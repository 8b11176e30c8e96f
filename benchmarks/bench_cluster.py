"""Durable multi-process cluster serving vs the single-process tiers —
BENCH_cluster.

Extends the BENCH trajectory to the ``repro.cluster`` subsystem.  A
trained quick-profile NYC model replays the dataset's check-ins as a
prequential ingest+predict workload through these deployments:

* **baseline** — the serialised stateless cost model from
  BENCH_stream: rebuild the user's sessions and QR-P graph from the
  raw log per arrival, predict one request at a time (re-measured
  in-run so the gate compares same-machine numbers);
* **stream** — the in-process :class:`~repro.stream.UserStateStore`
  path (PR 5's winning leg), for the single-process ceiling;
* **cluster-2 / cluster-4** — the new tier: shard worker subprocesses
  with consistent-hash routing, every acknowledged event logged to a
  per-shard WAL with periodic snapshots, predictions pipelined through
  each shard's micro-batch scheduler.  Shards serve float64 eagerly,
  the serving default.

After the cluster legs the harness SIGKILLs a shard and times the
supervisor-path restart (process spawn + dataset rebuild + snapshot
load + log-tail fold) — the measured crash-recovery cost, not a guess.

Gates: the 4-shard cluster must sustain >= 2x the serialised
baseline's events/s, and its post-ingest ranked lists must be
identical to a never-crashed single-process control.  On a
single-core box the cluster cannot beat the *in-process* stream leg
(N processes time-slice one core and pay IPC on top); the JSON records
``cpu_cores`` so the trajectory stays honest about that.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_cluster.py``
(the CI ``cluster-smoke`` job does exactly that and uploads the JSON).
"""

import json
import os
import signal
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments import format_table, get_profile, prepare, run_one

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).parent / "results"

MAX_EVENTS = 1500
BATCH_SIZE = 32
# the quick half-profile tape is short (~470 check-ins); replay it in
# several timestamp-shifted passes — users revisiting across later
# sessions — so every leg measures sustained throughput over a stream
# long enough to amortise pipeline fill/drain and scheduling noise
PASSES = 3
PASS_GAP_HOURS = 96.0  # > the 72h session-gap rule: each pass is a new session


def _cluster_leg(checkpoint, persist_dir, leg_name, num_shards, payloads):
    """Time one full ingest+predict pass through an N-shard cluster."""
    from repro.cluster import ClusterConfig, ClusterRouter
    from repro.serve import ServerConfig

    config = ClusterConfig(
        num_shards=num_shards,
        snapshot_interval=500,
        server=ServerConfig(
            max_batch_size=BATCH_SIZE,
            # throughput profile: when shard processes oversubscribe the
            # cores, the serve tier's latency-oriented 2ms batch deadline
            # expires before batches fill (a preempted ingest thread
            # stops feeding the queue) and predictions degrade to tiny
            # batches — a wider window keeps micro-batches full under
            # time-slicing
            max_wait_ms=10.0,
            request_timeout_s=30.0,
        ),
        heartbeat_interval_s=1.0,
        auto_restart=False,
    )
    router = ClusterRouter(checkpoint, persist_dir, config=config)
    start = time.perf_counter()
    router.start()
    startup_s = time.perf_counter() - start

    start = time.perf_counter()
    outcome = router.stream_events(payloads, predict_every=1)
    seconds = time.perf_counter() - start
    assert outcome["rejected"] == 0, outcome
    leg = {
        "leg": leg_name,
        "events": len(payloads),
        "predictions": outcome["predictions"],
        "seconds": round(seconds, 3),
        "events_per_second": round(len(payloads) / seconds, 2),
        "startup_seconds": round(startup_s, 2),
        "plan_dtype": config.server.plan_dtype,
    }
    return router, leg


def _measure_recovery(router):
    """SIGKILL one shard, restart it, and time the full comeback."""
    victim = router.shards[-1]
    os.kill(victim.pid, signal.SIGKILL)
    victim._process.join(10.0)
    victim._mark_dead("killed by bench")
    start = time.perf_counter()
    ready = router.restart_shard(victim.spec.shard_index)
    seconds = time.perf_counter() - start
    recovery = dict(ready.get("recovery") or {})
    recovery["restart_seconds"] = round(seconds, 3)
    return recovery


def run_bench(profile=None, save_report=None):
    profile = (profile or get_profile("quick")).smaller(0.5)
    data = prepare("nyc", profile)
    _, model = run_one("TSPN-RA", data, profile)

    from repro.serve import (
        InferenceServer,
        Predictor,
        load_checkpoint,
        save_checkpoint,
    )
    from repro.stream import (
        StoreConfig,
        UserStateStore,
        compare_replay,
        events_from_checkins,
    )
    from repro.stream.events import CheckinEvent, event_to_json

    base_events = list(events_from_checkins(data.dataset.checkins))
    span = max(event.timestamp for event in base_events) + PASS_GAP_HOURS
    events = [
        CheckinEvent(event.user_id, event.poi_id, event.timestamp + index * span)
        for index in range(PASSES)
        for event in base_events
    ][:MAX_EVENTS]
    payloads = [event_to_json(event) for event in events]

    # ---- single-process legs (baseline re-measured for the gate) ----
    predictor = Predictor(model, graph_cache_size=512)
    comparison = compare_replay(
        predictor, events, batch_size=BATCH_SIZE, max_events=MAX_EVENTS
    )
    reports = comparison.pop("_reports")
    legs = {
        name: {
            "leg": name,
            "events": report.events,
            "predictions": report.predictions,
            "seconds": round(report.seconds, 3),
            "events_per_second": round(report.events_per_second, 2),
        }
        for name, report in reports.items()
    }

    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        tmp = Path(tmp)
        checkpoint = save_checkpoint(model, tmp / "model.npz", dataset=data.dataset)

        # ---- cluster legs ----
        recovery = None
        parity = None
        for leg_name, num_shards in (("cluster-2", 2), ("cluster-4", 4)):
            router, leg = _cluster_leg(
                checkpoint, tmp / f"persist-{leg_name}", leg_name, num_shards,
                payloads,
            )
            try:
                if leg_name == "cluster-2":
                    recovery = _measure_recovery(router)
                else:
                    # ranked-list identity vs a never-crashed
                    # single-process control, checked end-to-end after
                    # a real ingest
                    loaded = load_checkpoint(checkpoint, dataset=data.dataset)
                    control = InferenceServer(
                        loaded.model,
                        dataset=data.dataset,
                        state_store=UserStateStore(StoreConfig()),
                    )
                    control.start()
                    try:
                        for event in events:
                            control.checkin(event)
                        users = control.state_store.users()
                        mismatches = sum(
                            1
                            for user in users
                            if router.predict_user(user, k=10)["result"]["top_pois"]
                            != control.predict_user(user).ranked_pois[:10]
                        )
                        parity = {
                            "users_compared": len(users),
                            "ranked_lists_identical": mismatches == 0,
                        }
                    finally:
                        control.stop()
            finally:
                router.stop()
            legs[leg_name] = leg

    baseline_eps = legs["baseline"]["events_per_second"]
    speedups = {
        name: round(leg["events_per_second"] / baseline_eps, 2)
        for name, leg in legs.items()
        if name != "baseline"
    }

    rows = [
        [
            leg["leg"],
            str(leg["events"]),
            str(leg["predictions"]),
            f"{leg['seconds']:8.2f}",
            f"{leg['events_per_second']:9.1f}",
            f"{speedups.get(name, 1.0):5.2f}x",
        ]
        for name, leg in legs.items()
    ]
    table = format_table(
        ["Leg", "Events", "Predictions", "Seconds", "Events/s", "vs baseline"],
        rows,
        title=(
            "Durable cluster serving — shard processes + WAL vs single-process "
            f"(NYC, {os.cpu_count()} core(s); shard recovery "
            f"{recovery['restart_seconds']:.2f}s)"
        ),
    )
    if save_report is not None:
        save_report("cluster", table)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "cluster.txt").write_text(table + "\n")
        print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    trajectory_point = {
        "bench": "cluster",
        "dataset": "nyc",
        "model": "TSPN-RA",
        "cpu_cores": os.cpu_count(),
        "events": len(events),
        "legs": legs,
        "speedup_vs_baseline": speedups,
        "recovery": recovery,
        **(parity or {}),
    }
    out = RESULTS_DIR / "BENCH_cluster.json"
    out.write_text(json.dumps(trajectory_point, indent=2) + "\n")
    print(f"[BENCH trajectory point saved to {out}]")

    assert trajectory_point["ranked_lists_identical"], trajectory_point
    # the tier gate: a 4-shard durable cluster must clear 2x the
    # serialised stateless deployment it replaces
    assert speedups["cluster-4"] >= 2.0, trajectory_point
    return trajectory_point


def bench_cluster(profile, save_report):
    run_bench(profile=profile, save_report=save_report)


if __name__ == "__main__":
    run_bench()
