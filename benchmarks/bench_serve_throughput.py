"""Serving throughput and latency percentiles — the BENCH_serve harness.

Seeds the BENCH trajectory for the ``repro.serve`` subsystem.  Four
legs, slowest to fastest:

* **uncached** — the legacy research loop (``compute_embeddings()``
  recomputed per request);
* **cached** — shared embeddings computed once, per-sample ``predict``
  loop (the pre-vectorisation ``Predictor`` behaviour);
* **batched** — the vectorised ``predict_batch`` path: padded-and-
  masked batch encode plus single-matmul tile/POI ranking, measured
  per batch so p50/p95/p99 latencies are meaningful;
* **compiled_f32** — the batched facade replaying captured float32
  inference plans (trace-once, graph-free), the opt-in compiled
  serving configuration, with dtype-specialised replay kernels.
  Plan-cache counters (plans, hits, misses) ride along.  The batched
  and compiled legs are interleaved round-robin, and the speedup is
  the median of per-round paired ratios, so shared-host clock drift
  cancels out.

The acceptance gate is ``compiled_speedup`` — the float32 compiled
leg vs the eager batched leg — asserted >= 1.5x.

Alongside the human-readable table the run emits
``benchmarks/results/BENCH_serve.json`` — the machine-readable BENCH
trajectory point (samples/sec per leg, batched-vs-per-sample and
compiled-vs-batched speedups, latency percentiles, dtype).  Run
standalone with ``PYTHONPATH=src python benchmarks/bench_serve_throughput.py``
(the CI ``serve-smoke`` job does exactly that and uploads the JSON).
"""

import json
from pathlib import Path

import pytest

from repro.autograd import get_default_dtype
from repro.experiments import format_table, get_profile, prepare, run_one
from repro.serve import compare_throughput

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).parent / "results"
BATCH_SIZE = 16


def run_bench(profile=None, save_report=None):
    profile = (profile or get_profile("quick")).smaller(0.5)
    data = prepare("nyc", profile)
    _, model = run_one("TSPN-RA", data, profile)
    test = data.splits.test[:80]

    report = compare_throughput(model, test, batch_size=BATCH_SIZE, repeats=5)

    rows = [[key, f"{value:10.2f}"] for key, value in report.items()]
    table = format_table(
        ["Metric", "Value"],
        rows,
        title=(
            "Serving throughput — uncached vs cached vs batched vs compiled "
            "float32 (NYC)"
        ),
    )
    if save_report is not None:
        save_report("serve_throughput", table)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "serve_throughput.txt").write_text(table + "\n")
        print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    trajectory_point = {
        "bench": "serve",
        "dataset": "nyc",
        "batch_size": BATCH_SIZE,
        "dtype": str(get_default_dtype()),
        **{key: round(value, 4) for key, value in report.items()},
    }
    out = RESULTS_DIR / "BENCH_serve.json"
    out.write_text(json.dumps(trajectory_point, indent=2) + "\n")
    print(f"[BENCH trajectory point saved to {out}]")

    assert report["speedup"] > 1.0, report
    assert report["batched_speedup"] > 1.0, report
    # acceptance gate: compiled replay beats the eager batched leg
    assert report["compiled_speedup"] >= 1.5, report
    return trajectory_point


def bench_serve_throughput(profile, save_report):
    run_bench(profile=profile, save_report=save_report)


if __name__ == "__main__":
    run_bench()
