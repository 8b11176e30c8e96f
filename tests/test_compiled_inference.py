"""Plan replay vs eager, and the float32 plan cache.

float64 serving is eager (no serving path traces a float64 plan), but
the model-level plan API stays dtype-generic, and float64 replay is
its bit-exact oracle: ``build_encode_plan(..., np.float64, ...)`` plus
``predict_batch(plan=...)`` must produce ranked lists *bit-identical*
to the eager encode, on edge-case batches, at bucket-padding edges,
across batches with different masks in one bucket, and over a stream
replay.  The plan cache (float32 only) is checked for its
hit/miss/fallback ladder, reload-driven re-trace and stats against a
second float32 run; the serving surfaces are checked to build no plan
cache at the default float64.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, TraceError
from repro.baselines import MarkovChain
from repro.cluster import ClusterConfig, ClusterRouter
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.data.trajectory import PredictionSample, Trajectory, Visit
from repro.experiments import make_predictor
from repro.serve import (
    InferenceServer,
    PlanCache,
    Predictor,
    compare_throughput,
    sample_from_json,
    save_checkpoint,
    supports_plans,
)
from repro.stream import events_from_checkins, prequential_replay
from repro.utils import spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny():
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    samples = make_samples(dataset, last_only=False)
    splits = split_samples(samples, seed=0)
    return dataset, splits


@pytest.fixture(scope="module")
def model(tiny):
    dataset, _ = tiny
    model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


def _edge_case_batch(splits):
    """Mixed lengths, no-history, length-1 prefix, and target-less."""
    batch = list(splits.test[:8])
    with_history = next(s for s in splits.test if s.history)
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=[],
            prefix=with_history.prefix,
            target=with_history.target,
            history_key=(with_history.user_id, -1),
        )
    )
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix[:1],
            target=with_history.target,
            history_key=with_history.history_key,
        )
    )
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix,
            target=None,
            history_key=with_history.history_key,
        )
    )
    assert len({len(s.prefix) for s in batch}) > 1
    return batch


def _assert_identical(compiled, eager):
    assert len(compiled) == len(eager)
    for c, e in zip(compiled, eager):
        assert c.ranked_tiles == e.ranked_tiles
        assert c.ranked_pois == e.ranked_pois
        assert c.target_poi == e.target_poi
        assert c.num_pois == e.num_pois
        assert c.poi_rank == e.poi_rank


def _float64_plan(model, batch, shared):
    """A float64 plan traced on ``batch`` at its own shape bucket."""
    return model.build_encode_plan(
        batch, model.plan_bucket(batch), np.float64, *shared
    )


class _Float64Plans:
    """A ``Predictor`` plan source tracing float64 plans, one per bucket.

    The serving tiers never replay float64; this stands in for a plan
    cache so a replay through the ``Predictor`` facade can be checked
    bit for bit against eager.
    """

    def __init__(self):
        self.plans = {}

    def entry_for(self, model, samples, tile_embeddings, poi_embeddings, version=None):
        key = (version, model.plan_bucket(samples))
        if key not in self.plans:
            self.plans[key] = model.build_encode_plan(
                samples, key[1], np.float64, tile_embeddings, poi_embeddings
            )
        return self.plans[key]


# ----------------------------------------------------------------------
# shape bucketing
# ----------------------------------------------------------------------
class TestPlanBucket:
    def test_small_batches_round_to_pow2(self, tiny, model):
        _, splits = tiny
        batch = [s for s in splits.test if not s.history][:3]
        assert len(batch) == 3
        b, l, ht, hp = model.plan_bucket(batch)
        assert b == 4  # 3 -> next pow2
        assert l >= max(len(s.prefix) for s in batch)
        assert l % 4 == 0  # lengths round to a multiple of 4
        assert ht == 0 and hp == 0  # no history => no cross-attention

    def test_large_batches_round_to_multiple_of_4(self, tiny, model):
        _, splits = tiny
        batch = list(splits.test[:13])
        b, _, _, _ = model.plan_bucket(batch)
        assert b == 16

    def test_history_batches_get_knowledge_width(self, tiny, model):
        _, splits = tiny
        batch = [s for s in splits.test if s.history][:2]
        assert batch
        b, l, ht, hp = model.plan_bucket(batch)
        assert b == 2
        # knowledge widths are 0 or a multiple of 8
        for width in (ht, hp):
            assert width % 8 == 0
        assert ht or hp  # history batches carry some knowledge

    def test_same_bucket_means_plan_reuse(self, tiny, model):
        _, splits = tiny
        no_hist = [s for s in splits.test if not s.history]
        # different raw lengths, same pow2 length bucket
        same = sorted(
            (s for s in no_hist if 5 <= len(s.prefix) <= 8),
            key=lambda s: len(s.prefix),
        )
        assert len(same) >= 4
        a, b = same[:2], same[-2:]
        assert {len(s.prefix) for s in a} != {len(s.prefix) for s in b}
        assert model.plan_bucket(a) == model.plan_bucket(b)

    def test_empty_batch_rejected(self, model):
        with pytest.raises(ValueError):
            model.plan_bucket([])


# ----------------------------------------------------------------------
# float64 plan replay vs eager: direct predict_batch
# ----------------------------------------------------------------------
class TestCompiledIdentity:
    def test_float64_bit_identical_on_edge_cases(self, tiny, model):
        _, splits = tiny
        batch = _edge_case_batch(splits)
        shared = model.compute_embeddings()
        entry = _float64_plan(model, batch, shared)
        assert entry.dtype == np.float64
        _assert_identical(
            model.predict_batch(batch, *shared, plan=entry),
            model.predict_batch(batch, *shared),
        )

    def test_replay_pass_still_identical(self, tiny, model):
        """A second replay of one plan reads the knowledge cache."""
        _, splits = tiny
        batch = _edge_case_batch(splits)
        shared = model.compute_embeddings()
        entry = _float64_plan(model, batch, shared)
        model.predict_batch(batch, *shared, plan=entry)  # fills knowledge rows
        hits = model._knowledge_cache.hits
        _assert_identical(
            model.predict_batch(batch, *shared, plan=entry),
            model.predict_batch(batch, *shared),
        )
        assert model._knowledge_cache.hits > hits

    def test_bucket_padding_edges(self, tiny, model):
        """Batch sizes straddling the bucket boundaries stay identical.

        One plan per bucket, traced on the first batch that meets it:
        later sizes in the same bucket replay it with more padding rows.
        """
        _, splits = tiny
        shared = model.compute_embeddings()
        plans = {}
        pool = list(splits.test[:16])
        for size in (1, 2, 7, 8, 9, 16):
            batch = pool[:size]
            bucket = model.plan_bucket(batch)
            if bucket not in plans:
                plans[bucket] = _float64_plan(model, batch, shared)
            _assert_identical(
                model.predict_batch(batch, *shared, plan=plans[bucket]),
                model.predict_batch(batch, *shared),
            )
        assert len(plans) < 6  # some size replayed another size's plan

    def test_replay_with_different_masks_same_bucket(self, tiny, model):
        """One plan, two batches whose padding masks differ.

        Regression test: replay kernels may keep per-step scratch (e.g.
        a materialised broadcast of the attention mask) only if they
        re-validate it against the incoming feed — the mask is dynamic
        and changes between batches that share a shape bucket.
        """
        _, splits = tiny
        base = max((s for s in splits.test if s.history), key=lambda s: len(s.prefix))
        full = len(base.prefix)
        assert full >= 2

        # a shorter synthetic history: fewer distinct POIs => fewer
        # QR-P knowledge rows => a different cross-attention padding
        # mask inside the same width-8 bucket
        seen: list = []
        for visit in base.history[0].visits:
            if visit.poi_id not in seen:
                seen.append(visit.poi_id)
        assert len(seen) >= 2
        short_history = [
            Trajectory(
                user_id=base.user_id,
                visits=[Visit(poi_id=seen[0], timestamp=1.0)],
            )
        ]

        def variant(n_prefix, history, tag):
            return PredictionSample(
                user_id=base.user_id,
                history=history,
                prefix=base.prefix[:n_prefix],
                target=None,
                history_key=(base.user_id, -10 - tag),  # bypass knowledge cache
            )

        # same bucket on every axis, different padding masks: per-row
        # prefix lengths differ and the knowledge row counts differ
        first = [variant(full, base.history, 0)] * 4
        second = [
            variant(full, short_history, 1),
            variant(1, base.history, 2),
            variant(full, short_history, 3),
            variant(1, short_history, 4),
        ]
        assert model.plan_bucket(first) == model.plan_bucket(second)
        assert model._knowledge_counts(second[0]) != model._knowledge_counts(first[0])
        shared = model.compute_embeddings()
        entry = _float64_plan(model, first, shared)  # traced on the first batch
        model.predict_batch(first, *shared, plan=entry)
        _assert_identical(
            model.predict_batch(second, *shared, plan=entry),
            model.predict_batch(second, *shared),
        )

    def test_float32_within_tolerance(self, tiny, model):
        _, splits = tiny
        batch = _edge_case_batch(splits)
        eager = Predictor(model, graph_cache_size=None, compile=False)
        f32 = Predictor(model, graph_cache_size=None, plan_dtype="float32")
        got = f32.predict_batch(batch)
        want = eager.predict_batch(batch)
        assert f32.plan_cache.traces >= 1
        # float32 replay may legitimately swap near-ties deep in the
        # list; the head of the ranking must survive the down-cast.
        agree = sum(g.ranked_pois[0] == w.ranked_pois[0] for g, w in zip(got, want))
        assert agree >= int(0.8 * len(batch))
        for g, w in zip(got, want):
            assert set(g.ranked_tiles) == set(w.ranked_tiles)

    def test_results_do_not_leak_padding(self, tiny, model):
        """A 3-sample batch in a 4-wide bucket returns exactly 3 results."""
        _, splits = tiny
        batch = list(splits.test[:3])
        shared = model.compute_embeddings()
        entry = _float64_plan(model, batch, shared)
        assert entry.bucket[0] == 4
        assert len(model.predict_batch(batch, *shared, plan=entry)) == 3


class TestKnowledgeCacheScope:
    """Only plan replay reads ``_knowledge_cache``.

    Eager inference and training compute knowledge fresh, which is what
    lets an eager replay check a compiled one (the repository benchmark
    compares against an eager run without clearing this cache).
    """

    def test_eager_paths_ignore_poisoned_rows(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        batch = [s for s in splits.test if s.history][:8]
        shared = model.compute_embeddings()
        want = model.predict_batch(batch, *shared)
        want_loss = float(model.loss_batch(batch, *shared).data)

        version = model.weights_version()
        for sample in batch:
            model._knowledge_cache.put(
                (sample.history_key, version),
                tuple(
                    Tensor(np.zeros((rows, model.config.dim))) if rows else None
                    for rows in model._knowledge_counts(sample)
                ),
            )
        hits = model._knowledge_cache.hits
        _assert_identical(model.predict_batch(batch, *shared), want)
        assert float(model.loss_batch(batch, *shared).data) == want_loss
        assert model._knowledge_cache.hits == hits

        # the poisoned rows are live: a plan replay reads them
        model.predict_batch(batch, *shared, plan=_float64_plan(model, batch, shared))
        assert model._knowledge_cache.hits >= hits + len({s.history_key for s in batch})


# ----------------------------------------------------------------------
# float32 plan cache behaviour through the Predictor facade
# ----------------------------------------------------------------------
def _f32(model, **kwargs):
    return Predictor(model, graph_cache_size=None, plan_dtype="float32", **kwargs)


class TestPlanCacheBehaviour:
    def test_compile_false_escape_hatch(self, model):
        assert Predictor(model, graph_cache_size=None, compile=False).plan_cache is None
        assert _f32(model, compile=False).plan_cache is None

    def test_float64_cache_rejected(self, model):
        """Plans are float32 only: float64 is served eagerly."""
        with pytest.raises(ValueError, match="float32"):
            PlanCache(dtype="float64")
        with pytest.raises(ValueError):
            Predictor(model, graph_cache_size=None, plan_dtype="int8")

    def test_baselines_served_eagerly(self):
        mc = MarkovChain(num_pois=10)
        assert not supports_plans(mc)
        assert _f32(mc).plan_cache is None

    def test_reload_invalidates_and_retraces(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        batch = list(splits.test[:4])
        compiled = _f32(model)
        compiled.predict_batch(batch)
        assert compiled.plan_cache.traces == 1
        version = model.weights_version()
        model.load_state_dict(model.state_dict())  # hot reload, same weights
        assert model.weights_version() != version
        _assert_identical(compiled.predict_batch(batch), _f32(model).predict_batch(batch))
        assert compiled.plan_cache.traces == 2  # stale plan dropped, re-traced

    def test_reload_during_build_is_not_cached(self, tiny, monkeypatch):
        """A reload landing mid-trace must not leave a stale cached plan.

        The plan is built from the embedding tables captured *before*
        the reload; caching it under any version would serve pre-reload
        constants after the version-keyed invalidation should have
        retired them.  The batch itself is served, nothing is cached,
        and the next batch re-traces against the new weights.
        """
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        batch = list(splits.test[:4])
        compiled = _f32(model)
        orig_build = model.build_encode_plan

        def reload_lands_mid_build(*args, **kwargs):
            entry = orig_build(*args, **kwargs)
            model.load_state_dict(model.state_dict())  # hot reload races the build
            return entry

        monkeypatch.setattr(model, "build_encode_plan", reload_lands_mid_build)
        compiled.predict_batch(batch)
        assert compiled.plan_cache.traces == 1
        assert len(compiled.plan_cache) == 0  # built, served, discarded
        monkeypatch.setattr(model, "build_encode_plan", orig_build)
        want = _f32(model).predict_batch(batch)
        _assert_identical(compiled.predict_batch(batch), want)
        assert compiled.plan_cache.traces == 2  # clean re-trace, now cached
        assert len(compiled.plan_cache) == 1
        _assert_identical(compiled.predict_batch(batch), want)
        assert compiled.plan_cache.hits == 1

    def test_trace_failure_falls_back_to_eager(self, tiny, model, monkeypatch):
        _, splits = tiny
        batch = list(splits.test[:4])
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = _f32(model)

        def boom(*args, **kwargs):
            raise TraceError("op 'untraceable' has no replay kernel")

        monkeypatch.setattr(model, "build_encode_plan", boom)
        _assert_identical(compiled.predict_batch(batch), eager.predict_batch(batch))
        assert compiled.plan_cache.fallbacks == 1
        assert len(compiled.plan_cache) == 0
        # the failed bucket is remembered: no second trace attempt
        compiled.predict_batch(batch)
        assert compiled.plan_cache.fallbacks == 2
        assert compiled.plan_cache.misses == 1

    def test_shared_cache_across_predictors(self, tiny, model):
        """Two predictors handed one cache share it: one trace, then hits."""
        _, splits = tiny
        batch = list(splits.test[:4])
        cache = PlanCache()
        a = Predictor(model, graph_cache_size=None, plan_cache=cache)
        b = Predictor(model, graph_cache_size=None, plan_cache=cache)
        first = a.predict_batch(batch)
        second = b.predict_batch(batch)
        _assert_identical(second, first)
        assert cache.traces == 1 and cache.hits == 1

    def test_stats_shape(self, tiny, model):
        _, splits = tiny
        compiled = _f32(model)
        compiled.predict_batch(list(splits.test[:4]))
        stats = compiled.plan_cache.stats()
        assert stats["enabled"] is True
        assert stats["dtype"] == "float32"
        assert stats["traces"] == 1 and stats["misses"] == 1
        (entry,) = stats["plans"]
        assert entry["bucket"][0] == 4
        assert entry["steps"] > 0
        assert entry["buffer_bytes"] > 0
        assert entry["runs"] >= 1


class TestEagerFloat64Serving:
    def test_serving_surfaces_build_no_plan_cache(self, tiny, tmp_path, monkeypatch):
        """At the default float64, every serving surface is eager.

        ``Predictor(model)``, ``make_predictor`` and ``InferenceServer``
        build no plan cache, never trace a plan, and answer exactly as
        ``compile=False`` does; so does a cluster shard process at the
        ``SHARD_SERVER`` defaults (its ``/stats`` plans section).
        """
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        checkpoint = save_checkpoint(model, tmp_path / "tiny.npz", dataset=dataset)
        payloads = [
            {
                "user_id": s.user_id,
                "prefix": [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in s.prefix],
                "history": [
                    [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in t.visits]
                    for t in s.history
                ],
            }
            for s in splits.test[:8]
        ]
        batch = [sample_from_json(p) for p in payloads]
        want = [
            r.top_k(10)
            for r in Predictor(model, graph_cache_size=None, compile=False).predict_batch(batch)
        ]
        traces = []
        build = TSPNRA.build_encode_plan

        def counted_build(self, *args, **kwargs):
            traces.append(len(args[0]))
            return build(self, *args, **kwargs)

        monkeypatch.setattr(TSPNRA, "build_encode_plan", counted_build)

        for predictor in (Predictor(model), make_predictor(model)):
            assert predictor.plan_cache is None
            assert [r.top_k(10) for r in predictor.predict_batch(batch)] == want

        with InferenceServer(model) as server:
            assert server.plan_cache is None
            assert server.stats()["plans"] == {"enabled": False}
            assert [server.predict(s, timeout=30.0).top_k(10) for s in batch] == want

        assert traces == []

        config = ClusterConfig(num_shards=1, auto_restart=False)
        with ClusterRouter(checkpoint, tmp_path / "cluster", config=config) as router:
            replies = [router.predict(p) for p in payloads]
            (shard,) = router.stats()["cluster"]["shards"]
        assert shard["plans"] == {"enabled": False}
        assert [reply["result"]["top_pois"] for reply in replies] == want


# ----------------------------------------------------------------------
# stream replay surface
# ----------------------------------------------------------------------
class TestStreamReplayIdentity:
    def test_prequential_replay_identical(self, tiny):
        """float64 plans replayed over a stream, histories growing."""
        dataset, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        events = events_from_checkins(dataset.checkins)[:200]
        eager = prequential_replay(
            Predictor(model, graph_cache_size=None, compile=False),
            events,
            batch_size=16,
            keep_results=True,
        )
        plans = _Float64Plans()
        compiled = prequential_replay(
            Predictor(model, graph_cache_size=None, plan_cache=plans),
            events,
            batch_size=16,
            keep_results=True,
        )
        assert plans.plans
        assert compiled.predictions == eager.predictions
        assert compiled.metrics == eager.metrics
        for c, e in zip(compiled.records, eager.records):
            assert c.rank == e.rank
            assert c.result.ranked_pois == e.result.ranked_pois


# ----------------------------------------------------------------------
# throughput microbench surface
# ----------------------------------------------------------------------
class TestCompareThroughput:
    def test_compiled_legs_reported(self, tiny, model):
        _, splits = tiny
        report = compare_throughput(model, splits.test[:12], repeats=1, batch_size=8)
        assert report["compiled_f32_sps"] > 0
        assert report["compiled_f32_warmup_seconds"] >= 0
        assert report["compiled_f32_plans"] >= 1
        assert report["compiled_speedup"] > 0
        # no float64 leg: float64 is served eagerly (the batched leg)
        assert not any(key.startswith("compiled_f64") for key in report)
        assert "compiled_sps" not in report

    def test_baseline_report_has_no_compiled_legs(self, tiny):
        _, splits = tiny
        mc = MarkovChain(400)
        mc.fit(splits.train[:50])
        report = compare_throughput(mc, splits.test[:8], repeats=1, batch_size=8)
        assert not any(key.startswith("compiled") for key in report)
        assert report["batched_sps"] > 0
