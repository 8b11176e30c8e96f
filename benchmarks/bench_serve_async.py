"""Async serving under load: closed-loop generator — BENCH_serve_async.

Seeds the BENCH trajectory for the ``repro.serve.server`` runtime.
A *closed-loop* load generator (each client thread keeps exactly one
request outstanding: submit, wait, repeat) drives an in-process
:class:`~repro.serve.InferenceServer` (one inference thread) at
several concurrency levels under three batching configurations:

* **serial** — ``max_batch_size=1``: the per-request baseline every
  client-facing latency number in the related systems (MobTCast,
  SANST) is reported against; concurrency only queues.
* **batched** — ``max_batch_size=16, max_wait_ms=4``: the dynamic
  micro-batching scheduler coalesces concurrent clients into one
  vectorised ``predict_batch`` pass (float64, served eagerly).
* **compiled** — the batched scheduler serving captured inference
  plans in float32, the compiled serving configuration; the cell also
  records the server's plan-cache counters (plans/traces/hits/misses)
  scraped from the same ``stats()`` surface ``/stats`` exposes.

Per (config, concurrency) cell the run records sustained samples/sec
and end-to-end per-request latency percentiles (p50/p95/p99, enqueue
to completion — queueing + batching delay + inference).  Two extra
legs at top concurrency re-run the compiled configuration with request
tracing off and at the serving default 1% sampling; their throughput
deltas against the compiled cell land in the JSON as
``obs_overhead`` — the standing measurement that the trace hooks stay
in the noise.  The
acceptance gate asserts the micro-batched server sustains >= 2x the
serial samples/sec at the highest concurrency; the compiled leg's
speedups over serial and batched are recorded (the hard compiled
gate lives in ``bench_serve_throughput.py`` where legs interleave).
Alongside the human-readable table the run emits
``benchmarks/results/BENCH_serve_async.json``.  Run standalone with
``PYTHONPATH=src python benchmarks/bench_serve_async.py``
(the CI ``serve-smoke`` job does exactly that and uploads the JSON).
"""

import json
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import format_table, get_profile, prepare, run_one
from repro.obs import activate, maybe_trace
from repro.serve import InferenceServer, ServerConfig, interpolated_percentile

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).parent / "results"

CONFIGS = {
    "serial": ServerConfig(max_batch_size=1, max_wait_ms=0.0, max_queue=4096),
    "batched": ServerConfig(max_batch_size=16, max_wait_ms=4.0, max_queue=4096),
    "compiled": ServerConfig(
        max_batch_size=16, max_wait_ms=4.0, max_queue=4096, plan_dtype="float32"
    ),
}
CONCURRENCY_LEVELS = (4, 16)
REQUESTS_PER_CLIENT = 24
WARMUP_REQUESTS = 8
OBS_REPETITIONS = 3


def _closed_loop(server, samples, clients, requests_per_client):
    """Drive the server with ``clients`` synchronous request loops.

    Closed loop: offered load adapts to service rate (each client has
    one request in flight), so throughput measures sustainable
    capacity rather than queue growth.  Each request runs the same
    sampling wrap the HTTP handler applies (``maybe_trace`` at the
    server's configured rate, slow-ring offer on completion), so the
    obs-overhead legs exercise the real traced path, not just the
    span no-ops.
    """
    latencies = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)
    sample_rate = server.config.trace_sample

    def client(index):
        mine = []
        barrier.wait()  # line up so every client offers load at once
        for j in range(requests_per_client):
            sample = samples[(index + j * clients) % len(samples)]
            start = time.perf_counter()
            trace = maybe_trace(sample_rate)
            with activate(trace):
                server.predict(sample, timeout=60.0)
            if trace is not None:
                server.slow_ring.offer(trace)
            mine.append(time.perf_counter() - start)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    total = clients * requests_per_client
    millis = sorted(1000.0 * s for s in latencies)
    return {
        "clients": clients,
        "requests": total,
        "wall_seconds": wall,
        "sps": total / wall if wall > 0 else float("inf"),
        **{f"p{p}_ms": interpolated_percentile(millis, p) for p in (50, 95, 99)},
    }


def run_bench(profile=None, save_report=None):
    profile = (profile or get_profile("quick")).smaller(0.5)
    data = prepare("nyc", profile)
    _, model = run_one("TSPN-RA", data, profile)
    samples = data.splits.test[:64]

    cells = []
    for config_name, config in CONFIGS.items():
        for clients in CONCURRENCY_LEVELS:
            server = InferenceServer(model, config=config).start()
            try:
                _closed_loop(server, samples, clients=2, requests_per_client=WARMUP_REQUESTS)
                cell = _closed_loop(server, samples, clients, REQUESTS_PER_CLIENT)
                if server.plan_cache is not None:
                    plan_stats = server.stats()["plans"]
                    cell["plans"] = len(plan_stats["plans"])
                    for counter in ("traces", "hits", "misses"):
                        cell[f"plan_{counter}"] = plan_stats[counter]
            finally:
                server.stop(drain=True)
            cell = {"config": config_name, **cell}
            cells.append(cell)
            print(
                f"{config_name:8s} clients={clients:3d}  "
                f"{cell['sps']:8.1f} samples/s  p50 {cell['p50_ms']:6.2f} ms  "
                f"p99 {cell['p99_ms']:6.2f} ms"
            )

    # Observability overhead at top load: the compiled configuration
    # with tracing off (the span no-op path) vs the serving default 1%
    # sampling.  Legs interleave over OBS_REPETITIONS rounds and each
    # keeps its best sustained rate — back-to-back best-vs-best cancels
    # the run-to-run drift a single pair of cells drowns in (the drift
    # is larger than the effect being measured).  The off leg's delta
    # against the compiled cell above doubles as the noise floor.
    top = CONCURRENCY_LEVELS[-1]
    obs_cells = []
    best = {}
    for repetition in range(OBS_REPETITIONS):
        for leg, sample_rate in (("obs_off", 0.0), ("obs_1pct", 0.01)):
            config = replace(CONFIGS["compiled"], trace_sample=sample_rate)
            server = InferenceServer(model, config=config).start()
            try:
                _closed_loop(
                    server, samples, clients=2, requests_per_client=WARMUP_REQUESTS
                )
                cell = _closed_loop(server, samples, top, REQUESTS_PER_CLIENT)
                cell["trace_sample"] = sample_rate
                cell["traces_sampled"] = server.slow_ring.observed
                cell["repetition"] = repetition
            finally:
                server.stop(drain=True)
            obs_cells.append({"config": leg, **cell})
            if leg not in best or cell["sps"] > best[leg]["sps"]:
                best[leg] = cell
            print(
                f"{leg:8s} clients={top:3d}  "
                f"{cell['sps']:8.1f} samples/s  p50 {cell['p50_ms']:6.2f} ms  "
                f"p99 {cell['p99_ms']:6.2f} ms  (traces: {cell['traces_sampled']})"
            )

    serial_sps = next(
        c["sps"] for c in cells if c["config"] == "serial" and c["clients"] == top
    )
    batched_sps = next(
        c["sps"] for c in cells if c["config"] == "batched" and c["clients"] == top
    )
    compiled_sps = next(
        c["sps"] for c in cells if c["config"] == "compiled" and c["clients"] == top
    )
    speedup = batched_sps / serial_sps if serial_sps > 0 else float("inf")
    compiled_speedup = compiled_sps / serial_sps if serial_sps > 0 else float("inf")
    compiled_vs_batched = compiled_sps / batched_sps if batched_sps > 0 else float("inf")
    off_sps = best["obs_off"]["sps"]
    traced_sps = best["obs_1pct"]["sps"]
    # 1% sampling is measured against the off leg (same interleaved
    # rounds); the off leg against the compiled cell is the noise floor
    obs_overhead = {
        "obs_off": 1.0 - off_sps / compiled_sps if compiled_sps > 0 else 0.0,
        "obs_1pct": 1.0 - traced_sps / off_sps if off_sps > 0 else 0.0,
    }
    print(
        f"obs overhead at {top} clients (best of {OBS_REPETITIONS}): "
        f"sampling off {obs_overhead['obs_off'] * 100:+.2f}% vs compiled "
        f"(noise floor), 1% sampling {obs_overhead['obs_1pct'] * 100:+.2f}% "
        f"vs sampling off"
    )

    rows = [
        [
            cell["config"],
            str(cell["clients"]),
            f"{cell['sps']:9.1f}",
            f"{cell['p50_ms']:8.2f}",
            f"{cell['p95_ms']:8.2f}",
            f"{cell['p99_ms']:8.2f}",
        ]
        for cell in cells
    ]
    table = format_table(
        ["Config", "Clients", "Samples/s", "p50 ms", "p95 ms", "p99 ms"],
        rows,
        title=(
            "Async serving — serial vs micro-batched vs compiled under closed-loop "
            f"load (NYC, batched {speedup:.2f}x / compiled {compiled_speedup:.2f}x "
            f"at {top} clients)"
        ),
    )
    if save_report is not None:
        save_report("serve_async", table)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "serve_async.txt").write_text(table + "\n")
        print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    trajectory_point = {
        "bench": "serve_async",
        "dataset": "nyc",
        "configs": {
            name: {
                "max_batch_size": config.max_batch_size,
                "max_wait_ms": config.max_wait_ms,
                "plan_dtype": config.plan_dtype,
            }
            for name, config in CONFIGS.items()
        },
        "concurrency_levels": list(CONCURRENCY_LEVELS),
        "requests_per_client": REQUESTS_PER_CLIENT,
        "results": [
            {key: (round(value, 4) if isinstance(value, float) else value)
             for key, value in cell.items()}
            for cell in cells
        ],
        "batched_speedup_at_top_load": round(speedup, 4),
        "compiled_speedup_at_top_load": round(compiled_speedup, 4),
        "compiled_vs_batched_at_top_load": round(compiled_vs_batched, 4),
        "obs_overhead": {
            "clients": top,
            "cells": [
                {key: (round(value, 4) if isinstance(value, float) else value)
                 for key, value in cell.items()}
                for cell in obs_cells
            ],
            "sampling_off_overhead": round(obs_overhead["obs_off"], 4),
            "sampling_1pct_overhead": round(obs_overhead["obs_1pct"], 4),
        },
    }
    out = RESULTS_DIR / "BENCH_serve_async.json"
    out.write_text(json.dumps(trajectory_point, indent=2) + "\n")
    print(f"[BENCH trajectory point saved to {out}]")

    assert speedup >= 2.0, trajectory_point
    return trajectory_point


def bench_serve_async(profile, save_report):
    run_bench(profile=profile, save_report=save_report)


if __name__ == "__main__":
    run_bench()
