"""stream_rollover: single-thread prequential replay of a rollover-heavy tape.

The replay predicts each check-in from the user's stored state *before*
ingesting it (test, then train), flushing predictions through a default
``Predictor`` (compiled float64 plans, 256-entry graph cache) in fixed
batches of ``REPLAY_BATCH_SIZE``.  The store runs at its default bounds
(64 sessions per user) with the ``QualityMonitor`` and ``DriftDetector``
a stateful ``InferenceServer`` attaches by default.

The tape re-times every user's real POI sequence into short sessions
separated by more than the 72 h session gap: about one event in four
rolls a session, and heavy users pass the 64-session cap, so the stream
store, incremental QR-P maintenance, cache invalidation and push, and
the observers sit on the critical path.  Batch composition is a pure
function of the tape, so plan behaviour repeats exactly, and the
micro-batch scheduler is bypassed.

Throughput is events per second over the whole replay; a prediction's
latency runs from taking its event off the tape to the end of the batch
that serves it, and its percentiles pool every prediction of the replay.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

from repro.data.trajectory import Visit
from repro.obs import DriftDetector, MetricsRegistry, QualityMonitor
from repro.serve import Predictor, ServerConfig, load_checkpoint
from repro.stream import StoreConfig, StreamIngest, UserStateStore
from repro.stream.replay import REPLAY_BATCH_SIZE
from repro.utils.rng import set_seed, spawn

import inputs
from common import MODEL_SEED, percentile, quality
from layers import cache_counts, cache_metrics, instrument, layer_metrics
from tracer import root_span

NOMINAL_EVENTS_PER_S = 1450.0  # sizes the tape from --seconds
CHECKINS = 5395  # events per pass over the dataset's users
REFERENCE_BATCH = 64  # flush size of the eager reference replay


class _Pipeline:
    """A predictor wired to a user store exactly as a stateful server is."""

    def __init__(self, model, compile: bool = True, observers: bool = True):
        config = ServerConfig()
        self.model = model
        self.registry = MetricsRegistry()
        self.predictor = Predictor(
            model,
            graph_cache_size=config.graph_cache_size if compile else None,
            compile=compile,
            registry=self.registry,
        )
        self.store = UserStateStore(StoreConfig())
        self.ingest = StreamIngest(self.store, registry=self.registry)
        # the eager reference rebuilds graphs on every miss instead of
        # taking incrementally maintained ones, so it checks them too
        self.ingest.register_predictor(self.predictor, incremental=compile)
        if observers:
            quality_monitor = QualityMonitor(
                self.registry,
                window_seconds=config.quality_window,
                top_k=config.quality_topk,
                gap_hours=self.store.config.gap_hours,
            )
            drift = DriftDetector(self.registry, tile_of=model.tile_system.leaf_of_poi)
            self.ingest.add_observer(quality_monitor.observe_checkin)
            self.ingest.add_observer(drift.update)
            self.predictor.quality = quality_monitor


class StreamRollover:
    name = "stream_rollover"

    def __init__(self, checkpoint: str, seed: int, seconds: float):
        self.checkpoint = checkpoint
        self.seed = seed
        self.seconds = seconds

    def setup(self):
        """Checkpoint load to a ready predictor, store and observers.

        Ready includes the shared embedding tables, which the predictor
        would otherwise compute lazily inside the first timed batch.
        """
        set_seed(MODEL_SEED)  # see MODEL_SEED
        loaded = load_checkpoint(self.checkpoint, rng=spawn(MODEL_SEED))
        pipeline = _Pipeline(loaded.model)
        pipeline.predictor.shared_state()
        pipeline.dataset = loaded.dataset
        return pipeline

    def teardown(self, pipeline) -> None:
        pass

    def instrument(self, tracer) -> None:
        instrument(tracer)

    def make_inputs(self, pipeline):
        cycles = max(1, int(round(NOMINAL_EVENTS_PER_S * self.seconds / CHECKINS)))
        tape, properties = inputs.rollover_tape(
            pipeline.dataset, self.seed, cycles, pipeline.store.config.max_sessions
        )
        properties.update(
            replay_batch=REPLAY_BATCH_SIZE,
            graph_cache_size=ServerConfig().graph_cache_size,
            plan_cache_size=ServerConfig().plan_cache_size,
        )
        return tape, properties

    # ------------------------------------------------------------------
    def measure(self, pipeline, tape, tracer=None) -> Dict:
        caches = [pipeline.predictor.graph_cache]
        before = cache_counts(pipeline.predictor.plan_cache, caches)
        tensors = tracer.instances() if tracer is not None else 0
        with root_span(tracer, "bench.replay"):
            replay = _replay(pipeline, tape, REPLAY_BATCH_SIZE)
        replay["caches"] = (before, cache_counts(pipeline.predictor.plan_cache, caches))
        replay["tensors"] = (tracer.instances() if tracer is not None else 0) - tensors
        replay["ingest"] = pipeline.ingest.stats()
        return replay

    def end_to_end(self, outcome) -> Dict[str, float]:
        """Operations are events, observer calls and predictions.

        ``StreamIngest`` contains an observer's exception and only counts
        it, so observer calls are counted here as operations of their own.
        """
        ranks = [r.poi_rank for r in outcome["results"] if r is not None]
        stats = outcome["ingest"]
        observer_calls = stats["ingested"] * stats["observers"]
        attempted = outcome["events"] + observer_calls + len(outcome["results"])
        failed = outcome["errors"] + stats["observer_errors"]
        latencies = outcome["latencies"]
        return {
            "throughput_per_s": outcome["events"] / outcome["seconds"],
            "latency_p50_ms": 1000.0 * percentile(latencies, 50.0),
            "latency_p90_ms": 1000.0 * percentile(latencies, 90.0),
            **quality(ranks),
            "success_rate": (attempted - failed) / attempted,
            "attempted": attempted,
            "failed": failed,
        }

    def diagnostics(self, outcome) -> Dict:
        return {
            "ingest": outcome["ingest"],
            "batches": outcome["batches"],
            "replay_seconds": outcome["seconds"],
        }

    def check(self, pipeline, tape, outcome) -> Dict:
        """Ranked lists equal an untimed eager replay of the same tape."""
        pipeline.model.clear_graph_cache()
        reference = _replay(
            _Pipeline(pipeline.model, compile=False, observers=False), tape, REFERENCE_BATCH
        )
        got, want = _ranked(outcome["results"]), _ranked(reference["results"])
        mismatches = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        observer_errors = outcome["ingest"]["observer_errors"]
        return {
            "ok": mismatches == 0 and outcome["errors"] == 0 and observer_errors == 0,
            "mismatches": mismatches,
            "predictions": len(got),
            "observer_errors": observer_errors,
        }

    def same_outputs(self, untraced, traced) -> bool:
        return _ranked(untraced["results"]) == _ranked(traced["results"])

    def per_layer(self, pipeline, outcome, tracer, untraced) -> Dict:
        counters = cache_metrics(*outcome["caches"])
        stats = outcome["ingest"]
        counters.update(
            {
                "stream.rollover_ratio": stats["rollovers"] / stats["ingested"],
                "stream.graph_pushes": stats["graph_pushes"],
                "stream.cache_invalidations": stats["cache_invalidations"],
                "trace.overhead_pct": 100.0
                * (outcome["seconds"] - untraced["seconds"])
                / untraced["seconds"],
            }
        )
        return layer_metrics(tracer, counters, outcome["tensors"], outcome["batches"])


def _ranked(results) -> List:
    return [None if r is None else list(r.ranked_pois) for r in results]


def _replay(pipeline: _Pipeline, tape, batch_size: int) -> Dict:
    """Predict-then-ingest every event; predictions flush in fixed batches.

    A prediction's latency runs from the moment its event is taken off
    the tape to the end of the batch that serves it.
    """
    store, ingest, predictor = pipeline.store, pipeline.ingest, pipeline.predictor
    results: List = []
    latencies: List[float] = []
    pending: List = []
    taken: List[float] = []
    errors = batches = 0

    def flush() -> None:
        nonlocal errors, batches
        if not pending:
            return
        batches += 1
        try:
            served = predictor.predict_batch(pending)
        except Exception:  # counted as failed predictions, replay goes on
            errors += len(pending)
            served = [None] * len(pending)
        done = time.perf_counter()
        results.extend(served)
        latencies.extend(
            done - t if r is not None else math.inf for t, r in zip(taken, served)
        )
        pending.clear()
        taken.clear()

    started = time.perf_counter()
    for event in tape:
        now = time.perf_counter()
        snapshot = store.get_snapshot(event.user_id)
        if snapshot is not None and snapshot.continues_session(event):
            pending.append(
                snapshot.sample(target=Visit(poi_id=event.poi_id, timestamp=event.timestamp))
            )
            taken.append(now)
        try:
            ingest.ingest(event)
        except ValueError:
            errors += 1
        if len(pending) >= batch_size:
            flush()
    flush()
    return {
        "events": len(tape),
        "seconds": time.perf_counter() - started,
        "results": results,
        "latencies": latencies,
        "errors": errors,
        "batches": batches,
    }
