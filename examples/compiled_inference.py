"""Compiled inference tour: opt into float32 plans, trace once, replay graph-free.

Serving defaults to float64, run eagerly through the model's batched
``predict_batch``.  ``plan_dtype="float32"`` is the opt-in compiled
configuration: the first batch of each shape bucket runs once under a
recorder, and what it records — kernel, argument slots, output slot
per op — replays on later batches as a flat float32 loop over
preallocated buffers.  No Tensors, no graph, no allocation churn.
Five stops:

1. trace: the first ``predict_batch`` of a shape bucket records a
   float32 plan (watch the cache counters move);
2. what a plan is: steps, folded constants, buffer bytes, inputs —
   ``describe()`` on the cached plan;
3. the oracle: the model-level plan API is dtype-generic, and a
   float64 plan (``build_encode_plan(..., np.float64, ...)``) replays
   *bit-identical* to eager — which is why float64 serving skips the
   trace and runs eagerly;
4. the payoff: float32 plans run the same steps end-to-end in float32
   with dtype-specialised kernels — compare samples/sec yourself;
5. the lifecycle: new weights bump ``weights_version``, the next batch
   re-traces; the float64 default and ``compile=False`` build no plan
   cache at all.

The same option serves over HTTP: ``ServerConfig(plan_dtype=
"float32")`` (CLI: ``repro serve --plan-dtype float32``) gives an
``InferenceServer`` one plan cache (``GET /stats`` has a ``plans``
section).

Runs in seconds on a laptop CPU:

    python examples/compiled_inference.py
"""

import time

import numpy as np

from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.serve import Predictor
from repro.utils import spawn


def main() -> None:
    # An untrained (seeded, deterministic) model ranks just as well for
    # this tour — identity and speed are properties of the execution
    # strategy, not the weights.
    dataset = build_dataset("nyc", seed=7, scale=0.3, imagery_resolution=32)
    splits = split_samples(make_samples(dataset), seed=7)
    model = TSPNRA.from_dataset(
        dataset,
        TSPNRAConfig(dim=32, fusion_layers=1, hgat_layers=1, top_k=10),
        rng=spawn(7),
    )
    model.eval()
    batch = list(splits.test[:16])

    # 1. Trace once.  The first batch of this shape bucket runs eagerly
    #    under a recorder and verifies the captured plan against its own
    #    eager output before caching it; the second batch replays.
    f32 = Predictor(model, plan_dtype="float32")
    f32.predict_batch(batch)
    cache = f32.plan_cache
    print(f"after first batch:  traces={cache.traces} hits={cache.hits} misses={cache.misses}")
    f32.predict_batch(batch)
    print(f"after second batch: traces={cache.traces} hits={cache.hits} misses={cache.misses}")
    assert cache.traces == 1 and cache.hits == 1

    # 2. What got captured: a flat step list (kernels + buffer slots),
    #    with everything that does not depend on the request — weights,
    #    normalised embedding tables, positional codes — folded into
    #    constants at trace time.
    plan_info = cache.stats()["plans"][0]
    print(
        "plan for bucket", plan_info["bucket"], "—",
        plan_info["steps"], "live steps,",
        plan_info["folded_steps"], "folded into constants,",
        f"{plan_info['buffer_bytes'] / 1024:.0f} KiB of reused buffers,",
        "feeds:", ", ".join(plan_info["inputs"][:4]), "...",
    )

    # 3. The oracle: at the model level a plan can be traced at any
    #    float dtype, and a float64 replay gives the eager ranked lists
    #    bit for bit.  Serving float64 therefore gains nothing from a
    #    plan, and runs eagerly.
    eager = Predictor(model, compile=False)
    want = eager.predict_batch(batch)
    shared = model.compute_embeddings()
    entry = model.build_encode_plan(batch, model.plan_bucket(batch), np.float64, *shared)
    got = model.predict_batch(batch, *shared, plan=entry)
    assert all(
        g.ranked_tiles == w.ranked_tiles and g.ranked_pois == w.ranked_pois
        for g, w in zip(got, want)
    )
    print("float64 plan replay: ranked lists bit-identical to eager on", len(batch), "samples")

    # 4. The payoff: float32 end-to-end.  Constants are baked to
    #    float32 at trace time, feeds are cast on the way in, and the
    #    replay kernels use float32-safe fast paths (a clipped softmax,
    #    matmul row-sums).  Rankings may legitimately swap near-ties,
    #    so float32 plans are tolerance-checked instead of bit-checked.
    def passes(predictor, n=20):
        start = time.perf_counter()
        for _ in range(n):
            predictor.predict_batch(batch)
        return n * len(batch) / (time.perf_counter() - start)

    eager_sps = passes(eager)
    f32_sps = passes(f32)
    print(
        f"eager float64 {eager_sps:7.0f} samples/s | compiled float32 {f32_sps:7.0f} "
        f"samples/s | {f32_sps / eager_sps:.2f}x"
    )
    heads_agree = sum(
        f.ranked_pois[0] == w.ranked_pois[0]
        for f, w in zip(f32.predict_batch(batch), want)
    )
    print(f"float32 top-1 agreement with eager: {heads_agree}/{len(batch)}")

    # 5. The lifecycle: touching the weights bumps ``weights_version``;
    #    cached plans are keyed by it, so the next batch re-traces
    #    against the new parameters instead of replaying stale ones.
    model.load_state_dict(model.state_dict())
    before = cache.traces
    f32.predict_batch(batch)
    print(f"after reload: re-traced {cache.traces - before} plan(s) for the new weights")
    assert cache.traces == before + 1
    assert Predictor(model).plan_cache is None  # the float64 default is eager
    print("float64 default and compile=False: no plan cache, eager serving")


if __name__ == "__main__":
    main()
