"""One workload run in a fresh interpreter (started by ``run.py``).

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times (``setup_s``
is the median), generates the inputs from ``--seed``, measures, checks
the outputs and prints the end-to-end metrics.  ``--trace 1`` first
repeats that untraced measurement, then wraps the program's layer entry
points, sets up afresh and measures the same inputs again; it prints the
per-layer metrics, with the tracing overhead as traced minus untraced.
``--replica`` (train_batched only) reruns the training in this fresh
process and prints its fingerprint, which the parent compares against,
and its timings, which the parent pools with its own.

Before the result, one JSON line records the environment, the input
properties and the check details; the result is the last line.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from common import (
    BUILD,
    catalogue,
    checkpoint_path,
    emit,
    ensure_build_dir,
    environment,
    median,
    metric,
    peak_rss_mb,
)
from stream_rollover import StreamRollover
from tracer import Tracer
from train_batched import TrainBatched

WORKLOADS = {cls.name: cls for cls in (StreamRollover, TrainBatched)}
SETUP_REPEATS = 5


def _timed_setups(workload, repeats: int):
    times = []
    state = None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - started)
    return state, times


def untraced(workload, setup_repeats: int = SETUP_REPEATS) -> dict:
    state, setup_times = _timed_setups(workload, setup_repeats)
    data, properties = workload.make_inputs(state)
    outcome = workload.measure(state, data)
    rss = peak_rss_mb()  # before the checks, which are not part of the workload
    values = workload.end_to_end(outcome)
    check = workload.check(state, data, outcome)
    workload.teardown(state)
    values.update(setup_s=median(setup_times), peak_rss_mb=rss)
    info = {
        "inputs": properties,
        "check": check,
        "setup_s_all": setup_times,
        "diagnostics": workload.diagnostics(outcome),
    }
    return {"values": values, "check": check, "info": info, "outcome": outcome, "data": data}


def traced(workload, seed: int) -> dict:
    base = untraced(workload, setup_repeats=1)  # setup_s is not reported here
    gc.collect()
    tracer = Tracer()
    workload.instrument(tracer)
    try:
        state = workload.setup()
        tracer.spans.clear()  # set-up is not part of the traced window
        outcome = workload.measure(state, base["data"], tracer=tracer)
    finally:
        tracer.active = False
    metrics = workload.per_layer(state, outcome, tracer, base["outcome"])
    workload.teardown(state)
    tracer.restore()
    same = workload.same_outputs(base["outcome"], outcome)
    ensure_build_dir()
    spans = BUILD / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.dump(spans)
    info = dict(base["info"], traced_same_outputs=same, spans=str(spans.name))
    return {"metrics": metrics, "check": dict(base["check"], ok=base["check"]["ok"] and same),
            "info": info, "values": base["values"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replica", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](str(checkpoint_path()), args.seed, args.seconds)
    if args.replica:
        state = workload.setup()
        data, _ = workload.make_inputs(state)
        emit(workload.replica_record(workload.fit(state, data)))
        return 0

    if args.trace:
        run = traced(workload, args.seed)
        metrics = run["metrics"]
    else:
        run = untraced(workload)
        metrics = {
            name: metric(float(run["values"][name]), unit)
            for name, unit in catalogue("end_to_end")
        }
    values = run["values"]
    ok = bool(run["check"]["ok"])
    emit({"workload": args.workload, "seed": args.seed, "environment": environment(),
          **run["info"]})
    emit(
        {
            "correct": ok,
            "attempted": int(values["attempted"]),
            "failed": int(values["failed"]),
            "metrics": metrics,
        }
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
