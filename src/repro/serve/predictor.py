"""Serving facade: cached shared state, batched inference, stats.

:class:`Predictor` wraps any :class:`~repro.serve.protocol.PredictorProtocol`
model as a long-lived recommendation service:

* shared embedding tables are computed once and reused across requests,
  invalidated automatically when the model's ``weights_version`` moves
  (optimiser steps and ``load_state_dict`` both bump it);
* per-user QR-P graphs are bounded by an LRU cache instead of the
  model's default unbounded dict;
* request batches go through the model's vectorised ``predict_batch``
  (padded-and-masked batch encode for TSPN-RA, ``score_batch`` for the
  baselines) instead of a per-sample loop;
* every request batch is timed, so latency/throughput — including
  per-batch p50/p95/p99 — roll up in :class:`ServeStats`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import no_grad
from ..data.trajectory import PredictionSample, Trajectory, Visit
from ..obs import MetricsRegistry
from ..utils.cache import LRUCache
from .checkpoint import load_checkpoint
from .plans import PlanCache, supports_plans
from .protocol import PredictorResult, serve_history_key

LATENCY_PERCENTILES = (50, 95, 99)


def interpolated_percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linearly interpolated percentile of an ascending-sorted sequence.

    The standard linear method (numpy's default): the percentile falls
    at fractional rank ``(n - 1) * p / 100`` and is interpolated between
    the two bracketing order statistics.  Nearest-rank would quantise
    p99 onto whichever single sample happens to sit at the top of a
    small window; interpolation degrades smoothly instead.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(sorted_values[0])
    rank = (n - 1) * p / 100.0
    lo = int(rank)
    if lo >= n - 1:
        return float(sorted_values[-1])
    frac = rank - lo
    return float(sorted_values[lo] + (sorted_values[lo + 1] - sorted_values[lo]) * frac)


class ServeStats:
    """Rolling counters for one predictor instance, registry-backed.

    Thread-safe: a :class:`Predictor` may be called from many threads,
    and `/stats` reads concurrently.  Every quantity lives in a
    :class:`~repro.obs.MetricsRegistry` instrument — the counters are
    registry counters and the per-batch latency distribution is a
    fixed-bucket :class:`~repro.obs.Histogram` (O(buckets) memory under
    sustained load, unlike the unbounded list it replaced).  The
    historical attribute surface (``stats.requests`` …) is preserved as
    read-only properties over the instruments.

    ``namespace`` keeps instruments distinct when several ServeStats
    share one registry (the server's request-level roll-up lives under
    ``serve_request``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "serve",
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            f"{namespace}_requests", "Requests served"
        )
        self._batches = self.registry.counter(
            f"{namespace}_batches", "Inference batches executed"
        )
        self._seconds = self.registry.counter(
            f"{namespace}_seconds", "Cumulative batch inference seconds"
        )
        self._embedding_refreshes = self.registry.counter(
            f"{namespace}_embedding_refreshes", "Shared-embedding recomputes"
        )
        self._embedding_cache_hits = self.registry.counter(
            f"{namespace}_embedding_cache_hits", "Shared-embedding cache hits"
        )
        self.latency = self.registry.histogram(
            f"{namespace}_batch_latency_seconds", "Per-batch latency"
        )

    # -- historical attribute surface ----------------------------------
    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def total_seconds(self) -> float:
        return self._seconds.value

    @property
    def embedding_refreshes(self) -> int:
        return int(self._embedding_refreshes.value)

    @property
    def embedding_cache_hits(self) -> int:
        return int(self._embedding_cache_hits.value)

    @property
    def mean_latency_ms(self) -> float:
        requests = self.requests
        return 1000.0 * self.total_seconds / requests if requests else 0.0

    @property
    def throughput(self) -> float:
        """Requests served per second of inference time."""
        total = self.total_seconds
        return self.requests / total if total > 0 else 0.0

    # -- recording -----------------------------------------------------
    def record_batch(self, seconds: float, size: int) -> None:
        self._seconds.inc(seconds)
        self._requests.inc(size)
        self._batches.inc()
        self.latency.observe(seconds)

    def note_embedding_refresh(self) -> None:
        self._embedding_refreshes.inc()

    def note_embedding_cache_hit(self) -> None:
        self._embedding_cache_hits.inc()

    # -- reading -------------------------------------------------------
    def latency_percentiles(
        self, percentiles: Sequence[int] = LATENCY_PERCENTILES
    ) -> Dict[str, float]:
        """Per-batch latency percentiles in ms from the histogram.

        Bucket-resolution with within-bucket linear interpolation,
        clamped to the observed min/max — so the all-batches-equal case
        reports the exact latency, and any case is within one bucket
        width of the order-statistic answer.
        """
        seconds = self.latency.percentiles(percentiles)
        return {f"{k}_ms": 1000.0 * v for k, v in seconds.items()}

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "requests": self.requests,
            "batches": self.batches,
            "total_seconds": self.total_seconds,
            "embedding_refreshes": self.embedding_refreshes,
            "embedding_cache_hits": self.embedding_cache_hits,
        }
        requests, total = out["requests"], out["total_seconds"]
        out["mean_latency_ms"] = 1000.0 * total / requests if requests else 0.0
        out["throughput"] = requests / total if total > 0 else 0.0
        out.update(self.latency_percentiles())
        return out


class Predictor:
    """A trained model, served.

    Unless ``graph_cache_size=None``, the model's per-user graph cache
    is replaced by an LRU of that size (warm entries migrated) — a
    deliberate, lasting adoption for long-lived serving; pass ``None``
    for throwaway measurement facades.

    ``plan_dtype`` picks the serving precision.  ``float64`` (the
    default) is served eagerly through the model's ``predict_batch``
    and builds no plan cache.  ``float32`` is the opt-in compiled
    configuration: when the model supports plans (see
    :mod:`repro.serve.plans`), the first batch of each shape bucket is
    traced into a float32 plan and later ones replay it graph-free;
    ``plan_cache`` hands in a cache built elsewhere (an
    :class:`~repro.serve.server.InferenceServer` builds one from its
    config, on its registry).  ``compile=False`` serves eagerly
    whatever the dtype.
    """

    def __init__(
        self,
        model,
        graph_cache_size: Optional[int] = 256,
        compile: bool = True,
        plan_dtype="float64",
        plan_cache: Optional[PlanCache] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.model = model
        self.dataset = None  # set by from_checkpoint
        # an attached QualityMonitor sees every served batch; None (the
        # default) costs one attribute check per batch
        self.quality = None
        self.stats = ServeStats(registry=registry)
        self._shared: Optional[Tuple[Any, ...]] = None
        self._shared_version: Optional[int] = None
        self._shared_lock = threading.Lock()
        self.graph_cache: Optional[LRUCache] = None
        if graph_cache_size is not None:
            cache = LRUCache(graph_cache_size)
            if model.set_graph_cache(cache):
                self.graph_cache = cache
        self.plan_cache: Optional[PlanCache] = None
        if compile and supports_plans(model):
            if plan_cache is None and np.dtype(plan_dtype) != np.float64:
                plan_cache = PlanCache(dtype=plan_dtype)
            self.plan_cache = plan_cache

    @classmethod
    def from_checkpoint(cls, path, dataset=None, **kwargs) -> "Predictor":
        """Serve a checkpoint without retraining."""
        loaded = load_checkpoint(path, dataset=dataset)
        predictor = cls(loaded.model, **kwargs)
        predictor.dataset = loaded.dataset
        return predictor

    def stream_graph_maintainer(self):
        """The model's incremental QR-P maintainer, or ``None``.

        ``StreamIngest.register_predictor`` calls this to decide
        whether freshly rolled graph entries may be pushed into this
        predictor's cache (see ``TSPNRA.stream_graph_maintainer`` for
        the compatibility gate; baselines simply lack the hook).
        """
        factory = getattr(self.model, "stream_graph_maintainer", None)
        return factory() if callable(factory) else None

    # ------------------------------------------------------------------
    # shared-state cache
    # ------------------------------------------------------------------
    def shared_state(self) -> Tuple[Any, ...]:
        """Cached ``compute_embeddings()``, refreshed on weight updates.

        Serialised by a lock so concurrent requests on one predictor
        refresh the tables exactly once per ``weights_version`` instead
        of racing duplicate recomputes.
        """
        return self.shared_state_versioned()[1]

    def shared_state_versioned(self) -> Tuple[Optional[int], Tuple[Any, ...]]:
        """``(weights_version, shared_state)`` captured under one lock.

        The version is read under the same lock that refreshes the
        tables, so it names exactly the generation the returned tables
        were computed from.  The compiled path keys its plan cache on
        this captured version — keying on a *re-read* of
        ``weights_version()`` would let a hot reload landing in between
        cache a plan baked from pre-reload tables under the post-reload
        version, where the version-keyed invalidation never fires.
        """
        with self._shared_lock:
            version = self.model.weights_version()
            if self._shared is None or version != self._shared_version:
                self._shared = self.model.compute_embeddings()
                self._shared_version = version
                self.stats.note_embedding_refresh()
            else:
                self.stats.note_embedding_cache_hit()
            return version, self._shared

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict(self, sample: PredictionSample, k: Optional[int] = None) -> PredictorResult:
        return self.predict_batch([sample], k=k)[0]

    def predict_batch(
        self, samples: Sequence[PredictionSample], k: Optional[int] = None
    ) -> List[PredictorResult]:
        """Serve a batch through the model's vectorised batch path.

        Shared embeddings come from the cache; the model's
        ``predict_batch`` encodes the whole batch at once (each result
        equals that of the sample's batch of one).  With a float32 plan
        cache, the entry for the batch's shape bucket (traced first if
        cold) goes to ``predict_batch`` as ``plan=``, which replays it
        in place of the eager encode; any bucket the tracer cannot
        capture falls back to eager automatically.  Inference
        runs under ``no_grad``, where dropout is the identity, so the
        model's train/eval mode never changes the result and a
        mid-training evaluation hook can wrap the live model safely.
        """
        start = time.perf_counter()
        with no_grad():
            version, shared = self.shared_state_versioned()
            plan = None
            if self.plan_cache is not None and samples:
                plan = self.plan_cache.entry_for(
                    self.model, samples, *shared, version=version
                )
            replay = {} if plan is None else {"plan": plan}
            results = self.model.predict_batch(samples, *shared, k=k, **replay)
        self.stats.record_batch(time.perf_counter() - start, len(results))
        if self.quality is not None:
            # record *before* the results leave the facade: by the time
            # a caller (or the HTTP layer above it) sees the ranked
            # list, the prediction is already pending its label
            for sample, result in zip(samples, results):
                self.quality.record(sample, result)
        return results

    def target_rank(self, sample: PredictionSample) -> int:
        return self.predict(sample).poi_rank

    def recommend(
        self,
        visits: Sequence[Visit],
        history: Sequence[Trajectory] = (),
        user_id: int = -1,
        k: int = 10,
    ) -> List[int]:
        """Top-k next-POI recommendations for a live user history.

        ``visits`` is the in-progress trajectory; ``history`` the user's
        earlier trajectories (feeds QR-P graph construction).  There is
        no ground-truth target, so the sample is built with
        ``target=None``.
        """
        visits = list(visits)
        if not visits:
            raise ValueError("recommend() needs at least one visit")
        history = list(history)
        sample = PredictionSample(
            user_id=user_id,
            history=history,
            prefix=visits,
            target=None,
            history_key=serve_history_key(user_id, history),
        )
        return self.predict(sample).top_k(k)


def compare_throughput(
    model,
    samples: Sequence[PredictionSample],
    repeats: int = 1,
    batch_size: int = 16,
) -> Dict[str, float]:
    """Samples/sec: uncached vs cached vs batched vs compiled float32.

    Legs, slowest to fastest:

    * ``uncached`` — the legacy research loop: ``compute_embeddings()``
      recomputed per request;
    * ``cached`` — shared embeddings computed once, then a loop of
      ``predict`` calls, each a batch of one;
    * ``batched`` — the :class:`Predictor` facade driving the model's
      eager ``predict_batch`` in chunks of ``batch_size``, with
      per-batch latencies recorded for p50/p95/p99;
    * ``compiled_f32`` — the same facade serving float32 plans
      end-to-end (documented tolerance, half the bandwidth,
      dtype-specialised replay kernels); present only when the model
      supports plans.  Its first pass over the samples warms the
      plan/knowledge caches (trace cost is reported separately as
      ``compiled_f32_warmup_seconds``).

    The batched and compiled legs are timed as full passes over the
    sample list, *interleaved round-robin* across ``repeats`` rounds,
    and each leg reports ``median(pass) * repeats`` as its seconds.
    On a shared host a sequential layout folds clock drift into
    whichever leg runs last; interleaving with medians cancels it, so
    the reported speedups are leg ratios rather than noise.

    ``compiled_speedup`` is the gate metric: the float32 compiled leg
    vs the eager batched leg, computed as the *median of per-round
    ratios* — each round times the legs back to back, so a
    contention burst inflates both passes of the pair and cancels in
    their ratio, where a ratio of independent leg medians would not.
    Every leg runs under ``no_grad``, so the model's train/eval mode
    does not matter and is left as it is.
    """
    samples = list(samples)
    start = time.perf_counter()
    with no_grad():
        for _ in range(repeats):
            for sample in samples:
                model.predict(sample, *model.compute_embeddings())
    uncached_seconds = time.perf_counter() - start

    with no_grad():
        shared = model.compute_embeddings()
        start = time.perf_counter()
        for _ in range(repeats):
            for sample in samples:
                model.predict(sample, *shared)
        cached_seconds = time.perf_counter() - start

    # graph_cache_size=None: a measurement facade must not swap the
    # caller's model cache out from under it
    predictor = Predictor(model, graph_cache_size=None, compile=False)
    legs: List[Tuple[str, Predictor]] = [("batched", predictor)]
    compiled: Dict[str, float] = {}
    if supports_plans(model):
        legs.append(
            (
                "compiled_f32",
                Predictor(model, graph_cache_size=None, plan_dtype="float32"),
            )
        )

    def one_pass(runner: Predictor) -> None:
        for lo in range(0, len(samples), batch_size):
            runner.predict_batch(samples[lo : lo + batch_size])

    # warmup pass per leg (traces plans, fills knowledge caches)
    for leg, runner in legs:
        start = time.perf_counter()
        one_pass(runner)
        if leg != "batched":
            compiled[f"{leg}_warmup_seconds"] = time.perf_counter() - start

    pass_times: Dict[str, List[float]] = {leg: [] for leg, _ in legs}
    for _ in range(repeats):
        for leg, runner in legs:
            start = time.perf_counter()
            one_pass(runner)
            pass_times[leg].append(time.perf_counter() - start)

    def _median(values: Sequence[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def leg_seconds(leg: str) -> float:
        return _median(pass_times[leg]) * repeats

    def paired_speedup(leg: str) -> float:
        ratios = [
            b / c
            for b, c in zip(pass_times["batched"], pass_times[leg])
            if c > 0
        ]
        return _median(ratios) if ratios else float("inf")

    batched_seconds = leg_seconds("batched")
    count = len(samples) * repeats
    for leg, runner in legs[1:]:
        seconds = leg_seconds(leg)
        compiled[f"{leg}_seconds"] = seconds
        compiled[f"{leg}_sps"] = count / seconds if seconds > 0 else float("inf")
        cache = runner.plan_cache
        compiled[f"{leg}_plans"] = float(len(cache))
        compiled[f"{leg}_plan_hits"] = float(cache.hits)
        compiled[f"{leg}_plan_misses"] = float(cache.misses)
        compiled["compiled_speedup"] = paired_speedup(leg)

    report = {
        "samples": float(count),
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "batched_seconds": batched_seconds,
        "uncached_sps": count / uncached_seconds if uncached_seconds > 0 else float("inf"),
        "cached_sps": count / cached_seconds if cached_seconds > 0 else float("inf"),
        "batched_sps": count / batched_seconds if batched_seconds > 0 else float("inf"),
        "speedup": uncached_seconds / cached_seconds if cached_seconds > 0 else float("inf"),
        "batched_speedup": (
            cached_seconds / batched_seconds if batched_seconds > 0 else float("inf")
        ),
    }
    report.update(compiled)
    report.update(predictor.stats.latency_percentiles())
    return report
