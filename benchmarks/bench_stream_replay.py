"""Prequential streaming replay: incremental state vs full rebuild —
BENCH_stream.

Seeds the BENCH trajectory for the ``repro.stream`` subsystem.  A
trained quick-profile NYC model replays the dataset's check-ins in
global time order through three deployments of the same predictor:

* **baseline** — the serialised, stateless cost model: every arrival
  that warrants a prediction first rebuilds the user's sessions from
  the raw log (the server holds no state) and recomputes the per-user
  QR-P graph from scratch, one request at a time;
* **stream** — the :class:`~repro.stream.UserStateStore` path: O(1)
  sharded appends, session rollover at the Δt gap rule, per-user QR-P
  graphs cached under ``("stream", user, history_version)`` keys and
  retired exactly when the history moves, and predictions flushed
  through the vectorised ``predict_batch`` in cross-user chunks
  (sound under prequential order because every sample is an immutable
  pre-ingest snapshot);
* **incremental** — the stream leg plus O(session) QR-P maintenance:
  the store keeps each user's live graph, session rollovers update it
  incrementally (:class:`~repro.graphs.QRPGraphMaintainer`) and push
  the fresh ``(qrp, edges)`` entry into the serving cache, so a
  rollover is cache-neutral instead of an O(history) rebuild on the
  next miss.

All legs make identical prediction decisions from identical inputs, so
their ranked lists must agree (asserted) — the comparison isolates the
*architecture*, not the model.  Legs run interleaved round-robin over
``ROUNDS`` rounds and each speedup is the median of per-round paired
ratios, the same discipline as BENCH_serve.  The acceptance gates
assert the streaming leg sustains >= 2x the baseline's ingest+predict
events/sec and the incremental leg >= 1.5x (it additionally holds off
rebuild-per-rollover).

Two model-quality-observability legs ride along: **quality overhead**
replays the same tape with the prequential
:class:`~repro.obs.QualityMonitor` + :class:`~repro.obs.DriftDetector`
off vs on (paired rounds; gate: watching costs <= 3%), and the **drift
scenario** permutes every POI id from mid-tape on
(:func:`~repro.stream.popularity_shift_events`) and asserts the
detector fires on the shifted tape, stays quiet on the stationary
control, and the prequential Recall@10 curve drops across the shift.
Alongside the human-readable table the run
emits ``benchmarks/results/BENCH_stream.json``.  Run standalone with
``PYTHONPATH=src python benchmarks/bench_stream_replay.py``
(the CI ``serve-smoke`` job does exactly that and uploads the JSON).
"""

import json
import statistics
from pathlib import Path

import pytest

from repro.experiments import format_table, get_profile, prepare, run_one
from repro.obs import DriftDetector, MetricsRegistry, QualityMonitor
from repro.serve import Predictor
from repro.stream import (
    StoreConfig,
    compare_replay,
    events_from_checkins,
    popularity_shift_events,
    prequential_replay,
)

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).parent / "results"

MAX_EVENTS = 1200
BATCH_SIZE = 32
ROUNDS = 3

#: Acceptance gate on the quality monitor's replay overhead: the
#: monitor-on leg may cost at most 3% over the identical monitor-off
#: leg (median of paired per-round ratios).
QUALITY_OVERHEAD_GATE = 0.03

#: Drift-scenario detector shape: the reference freezes over the first
#: 256 events (well inside the stationary half) and the sliding window
#: holds the most recent 256, so by tape end the window is pure
#: post-shift traffic.
DRIFT_WINDOW = 256

_WIDE_STORE = dict(max_sessions=4096, max_session_visits=4096)


def _reset_cache(predictor) -> None:
    cache = getattr(predictor, "graph_cache", None)
    if cache is not None:
        cache.clear()


def quality_overhead(predictor, events, rounds=ROUNDS):
    """Paired replay rounds with the quality monitor off vs on.

    Both passes of a round replay the identical tape through the
    incremental leg; the *on* pass additionally records every
    prediction into a :class:`QualityMonitor` (labelled-sample path —
    replay targets join immediately) and feeds every ingested event to
    a :class:`DriftDetector`.  The overhead is the median paired ratio
    minus one, the same discipline as the leg speedups.
    """
    predictor.shared_state()  # warm-up outside every timed pass

    def one_pass(with_quality):
        _reset_cache(predictor)
        quality = drift = None
        if with_quality:
            registry = MetricsRegistry()
            quality = QualityMonitor(registry, top_k=20)
            drift = DriftDetector(registry)
        report = prequential_replay(
            predictor,
            events,
            store_config=StoreConfig(**_WIDE_STORE),
            batch_size=BATCH_SIZE,
            quality=quality,
            drift=drift,
        )
        return report, quality

    ratios = []
    joins = 0
    for _ in range(rounds):
        off_report, _ = one_pass(False)
        on_report, quality = one_pass(True)
        ratios.append(on_report.seconds / off_report.seconds)
        joins = sum(quality.summary()["joins"].values())
    overhead = statistics.median(ratios) - 1.0
    return {
        "rounds": rounds,
        "joins": joins,
        "paired_ratios": [round(r, 4) for r in ratios],
        "overhead": round(overhead, 4),
        "gate": QUALITY_OVERHEAD_GATE,
    }


def drift_scenario(predictor, events, num_pois):
    """Mid-stream popularity shift: the detector fires, accuracy drops.

    The shifted tape permutes every POI id from the halfway point on
    (:func:`popularity_shift_events`); the stationary control is the
    untouched tape through an identically configured detector.  The
    prequential quality curve is read straight off the replay records:
    Recall@10 over the predictions before vs after the shift.
    """
    scenario = popularity_shift_events(events, num_pois, shift_at=0.5, seed=0)

    def run(tape):
        _reset_cache(predictor)
        drift = DriftDetector(
            MetricsRegistry(), window=DRIFT_WINDOW, reference=DRIFT_WINDOW
        )
        report = prequential_replay(
            predictor,
            tape,
            store_config=StoreConfig(**_WIDE_STORE),
            batch_size=BATCH_SIZE,
            drift=drift,
        )
        return report, drift

    shifted_report, shifted_drift = run(scenario.events)
    control_report, control_drift = run(events)

    def recall_curve(report):
        # records are in prediction order; the shift lands mid-tape, so
        # the halfway split of the record list brackets it
        ranks = [record.rank for record in report.records]
        cut = len(ranks) // 2
        def recall(chunk):
            return sum(1 for r in chunk if r <= 10) / len(chunk) if chunk else 0.0
        return recall(ranks[:cut]), recall(ranks[cut:])

    pre_recall, post_recall = recall_curve(shifted_report)
    control_pre, control_post = recall_curve(control_report)
    return {
        "shift_index": scenario.shift_index,
        "window": DRIFT_WINDOW,
        "shifted": {
            "alert": shifted_drift.alert(),
            "psi_poi": round(shifted_drift.psi("poi"), 4),
            "recall10_pre_shift": round(pre_recall, 4),
            "recall10_post_shift": round(post_recall, 4),
        },
        "control": {
            "alert": control_drift.alert(),
            "psi_poi": round(control_drift.psi("poi"), 4),
            "recall10_first_half": round(control_pre, 4),
            "recall10_second_half": round(control_post, 4),
        },
    }


def run_bench(profile=None, save_report=None):
    profile = (profile or get_profile("quick")).smaller(0.5)
    data = prepare("nyc", profile)
    _, model = run_one("TSPN-RA", data, profile)
    events = events_from_checkins(data.dataset.checkins)

    predictor = Predictor(model, graph_cache_size=512)
    comparison = compare_replay(
        predictor,
        events,
        batch_size=BATCH_SIZE,
        max_events=MAX_EVENTS,
        rounds=ROUNDS,
    )
    reports = comparison.pop("_reports")

    rows = [
        [
            report.leg,
            str(report.events),
            str(report.predictions),
            f"{report.seconds:8.2f}",
            f"{report.events_per_second:9.1f}",
            f"{report.metrics['Recall@10']:.4f}",
            f"{report.metrics['MRR']:.4f}",
        ]
        for report in (
            reports["baseline"],
            reports["stream"],
            reports["incremental"],
        )
    ]
    table = format_table(
        ["Leg", "Events", "Predictions", "Seconds", "Events/s", "Recall@10", "MRR"],
        rows,
        title=(
            "Prequential streaming replay — incremental user state vs "
            f"serialised full rebuild (NYC, stream {comparison['speedup']:.2f}x, "
            f"incremental {comparison['incremental_speedup']:.2f}x, "
            f"median of {ROUNDS} paired rounds)"
        ),
    )
    if save_report is not None:
        save_report("stream_replay", table)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "stream_replay.txt").write_text(table + "\n")
        print(table)

    overhead = quality_overhead(predictor, events[:MAX_EVENTS])
    print(f"quality monitor overhead: {overhead['overhead'] * 100:+.2f}% "
          f"(median of {overhead['rounds']} paired rounds, "
          f"{overhead['joins']} joins; gate <= "
          f"{QUALITY_OVERHEAD_GATE * 100:.0f}%)")

    drift = drift_scenario(
        predictor, events[:MAX_EVENTS], data.dataset.num_pois
    )
    print(f"drift scenario: shifted alert={drift['shifted']['alert']} "
          f"(PSI {drift['shifted']['psi_poi']:.2f}), control "
          f"alert={drift['control']['alert']} "
          f"(PSI {drift['control']['psi_poi']:.2f}); recall@10 "
          f"{drift['shifted']['recall10_pre_shift']:.3f} -> "
          f"{drift['shifted']['recall10_post_shift']:.3f} across the shift")

    RESULTS_DIR.mkdir(exist_ok=True)
    trajectory_point = {
        "bench": "stream_replay",
        "dataset": "nyc",
        "model": "TSPN-RA",
        **comparison,
        "quality_overhead": overhead,
        "drift_scenario": drift,
    }
    out = RESULTS_DIR / "BENCH_stream.json"
    out.write_text(json.dumps(trajectory_point, indent=2) + "\n")
    print(f"[BENCH trajectory point saved to {out}]")

    # identical inputs + deterministic eval-mode inference => identical
    # ranked lists; a mismatch means the store mis-split a session (or
    # an incremental graph diverged from the rebuild)
    assert comparison["ranked_lists_identical"], trajectory_point
    assert comparison["incremental_ranked_identical"], trajectory_point
    assert comparison["speedup"] >= 2.0, trajectory_point
    assert comparison["incremental_speedup"] >= 1.5, trajectory_point
    # model-quality observability gates: watching must be (nearly)
    # free, and the drift detector must fire on the shift and only there
    assert overhead["overhead"] <= QUALITY_OVERHEAD_GATE, trajectory_point
    assert drift["shifted"]["alert"], trajectory_point
    assert not drift["control"]["alert"], trajectory_point
    assert (drift["shifted"]["recall10_post_shift"]
            < drift["shifted"]["recall10_pre_shift"]), trajectory_point
    return trajectory_point


def bench_stream_replay(profile, save_report):
    run_bench(profile=profile, save_report=save_report)


if __name__ == "__main__":
    run_bench()
