"""The async serving runtime: worker pool + micro-batching + HTTP.

This module turns the offline batched inference path into an online
service.  Three layers, composable and individually testable:

* :class:`InferenceServer` — the runtime.  Owns a
  :class:`~repro.serve.scheduler.MicroBatchScheduler` and a pool of
  worker threads, each serving through its own
  :class:`~repro.serve.predictor.Predictor` replica.  Replicas are
  shallow copies of one checkpoint's model: **parameters (and every
  other read-only table) are shared zero-copy**, while the mutable
  per-request state — the per-user QR-P graph cache — is per-worker,
  so workers never contend on cache eviction.  Because parameters are
  shared objects, :meth:`InferenceServer.reload_weights` on the
  primary propagates to every worker at once, and each worker's
  embedding cache refreshes itself via the existing
  ``weights_version`` token.
* the JSON request surface — :meth:`InferenceServer.checkin_json`,
  :meth:`~InferenceServer.predict_json`,
  :meth:`~InferenceServer.reload_json` and
  :meth:`~InferenceServer.result_json` turn one request body into one
  ``(status, body)`` pair.  Validation, backpressure, shutdown and
  timeouts map to status codes here and nowhere else: the cluster's
  shard workers (:mod:`repro.cluster.worker`) answer through the same
  calls.
* :class:`HttpFrontend` — a stdlib-only HTTP/JSON front door
  (``/predict``, ``/recommend``, ``/checkin``, ``/reload``,
  ``/healthz``, ``/stats``, ``/metrics``, ``/quality``,
  ``/debug/slow``) on a threading HTTP server.  One handler serves
  both tiers: an :class:`InferenceServer`, or a
  :class:`~repro.cluster.router.ClusterRouter` that answers the same
  JSON surface by routing each body to a shard process.  Each
  connection thread blocks on its request future while the scheduler
  coalesces concurrent requests into micro-batches.

:class:`ServerConfig` holds the batching/pool/backpressure knobs of
both tiers (a cluster ships one to every shard).

Stateful serving (``state_store=``): the server owns per-user check-in
state (:mod:`repro.stream`).  ``POST /checkin`` appends one arrival —
rolling sessions at the Δt gap rule and retiring the user's stale QR-P
graph entry from every worker's cache — and a history-less
``POST /predict {"user_id": ...}`` resolves the stored history into an
immutable snapshot sample *before* batching, so stateful and stateless
requests ride the same micro-batching scheduler side by side.

Request identity: a request's result is exactly what a direct
``Predictor.predict_batch([sample])`` would return — micro-batch
composition is invisible because padding never reaches a real row:
each row of a batched encode equals that sample's batch of one (the
equivalence tests check it), so *any* batching of requests yields
identical per-request rankings.

Failure containment: a batch that raises fails only its own requests
(their futures carry the exception); the worker survives and keeps
serving.  The request surface therefore validates payloads *before*
admission (:func:`~repro.serve.protocol.sample_from_json` bounds POI
ids) so a malformed request gets its own 400 instead of poisoning a
batch.
"""

from __future__ import annotations

import copy
import json
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..obs import (
    DriftDetector,
    MetricsRegistry,
    QualityMonitor,
    SlowRing,
    Trace,
    activate,
    maybe_trace,
    merge_histogram_snapshots,
    render_prometheus,
    snapshot_percentile,
    span,
)
from ..stream.events import CheckinEvent, event_from_json
from ..stream.ingest import StreamIngest
from ..stream.state import AppendResult, UserStateStore
from .checkpoint import load_checkpoint, read_checkpoint
from .plans import PlanCache, supports_plans
from .predictor import LATENCY_PERCENTILES, Predictor, ServeStats
from .protocol import PredictorResult, result_to_json, sample_from_json
from .scheduler import MicroBatchScheduler, QueueFullError, SchedulerClosedError


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving runtime.

    ``workers`` threads each run one Predictor replica; requests
    coalesce into batches of up to ``max_batch_size``, flushed at
    latest ``max_wait_ms`` after the oldest member entered the queue.
    ``max_queue`` bounds the admission queue (excess load is rejected,
    not buffered), ``graph_cache_size`` bounds each worker's per-user
    QR-P graph LRU, and ``request_timeout_s`` caps how long a blocking
    ``predict``/HTTP call waits for its future.

    ``compile`` turns captured inference plans on (the default; see
    :mod:`repro.serve.plans`) — one pool-wide :class:`PlanCache` is
    shared by every worker, valid because replicas share parameter
    objects.  ``plan_dtype`` picks the replay precision (``float64``
    keeps ranked lists bit-identical to eager) and ``plan_cache_size``
    bounds the number of live plans.  ``compile=False`` (CLI:
    ``repro serve --no-compile``) is the pure-eager escape hatch.

    ``trace_sample`` is the request-tracing sampling rate (0..1).  The
    default 0 keeps the hot path allocation-free — no Trace or Span
    objects exist anywhere; 0.01 (the CLI serving default) traces 1%
    of requests into the ``/debug/slow`` ring of ``slow_ring_size``
    worst-recent exemplars.

    ``quality_window`` is the sliding window (seconds) of the live
    prequential quality estimators on a *stateful* server (``0``
    disables the monitor entirely); ``quality_topk`` is the ranked-list
    depth each served prediction stores while awaiting its label.
    """

    workers: int = 2
    max_batch_size: int = 16
    max_wait_ms: float = 5.0
    max_queue: int = 256
    graph_cache_size: Optional[int] = 256
    request_timeout_s: float = 60.0
    compile: bool = True
    plan_dtype: str = "float64"
    plan_cache_size: int = 32
    trace_sample: float = 0.0
    slow_ring_size: int = 64
    quality_window: float = 3600.0
    quality_topk: int = 20

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be within [0, 1]")
        if self.slow_ring_size < 1:
            raise ValueError("slow_ring_size must be >= 1")
        if self.quality_window < 0:
            raise ValueError("quality_window must be >= 0 (0 disables)")
        if self.quality_topk < 1:
            raise ValueError("quality_topk must be >= 1")


class _PooledPredictor(Predictor):
    """A worker Predictor whose embedding cache is pool-wide.

    The shared embedding tables are a pure function of the (shared)
    parameters, so N replicas recomputing and retaining N identical
    copies per ``weights_version`` would waste both the compute (once
    per worker at startup and after every reload) and the residency.
    One version-keyed store, guarded by one lock, serves the pool.
    The plan cache is likewise pool-wide (passed in by the server): a
    plan traced by one worker replays on all of them, each on its own
    per-thread buffers.
    """

    def __init__(
        self, model, graph_cache_size, store, plan_cache=None,
        registry=None, stats_labels=None,
    ):
        super().__init__(
            model,
            graph_cache_size=graph_cache_size,
            compile=plan_cache is not None,
            plan_cache=plan_cache,
            registry=registry,
            stats_labels=stats_labels,
        )
        self._store = store

    def shared_state_versioned(self):
        store = self._store
        with store["lock"]:
            version = self.model.weights_version()
            if store["version"] != version:
                store["state"] = self.model.compute_embeddings()
                store["version"] = version
                self.stats.note_embedding_refresh()
            else:
                self.stats.note_embedding_cache_hit()
            return version, store["state"]

    def invalidate(self):
        with self._store["lock"]:
            self._store["version"] = None
            self._store["state"] = None


def _replicate_model(model):
    """A worker-private view of ``model`` sharing its weights zero-copy.

    A shallow copy shares every attribute object — parameters,
    embedding tables, the tile system, imagery columns — which is
    exactly right: they are read-only during inference, and sharing
    the :class:`~repro.nn.module.Parameter` objects themselves means a
    ``load_state_dict`` on any replica (hot reload goes through the
    primary) is visible to all of them, version bump included.  The
    one piece of genuinely mutable per-request state, the QR-P graph
    cache, is swapped per-replica by the :class:`Predictor` facade
    (``set_graph_cache`` migrates warm entries without touching the
    source cache).
    """
    return copy.copy(model)


class InferenceServer:
    """Accept single requests, serve them in dynamic micro-batches.

    Lifecycle: construct (optionally via :meth:`from_checkpoint`),
    :meth:`start`, then :meth:`submit`/:meth:`predict` from any number
    of threads; :meth:`stop` drains in-flight work by default.  Also a
    context manager (``with InferenceServer(model) as server:``).
    """

    def __init__(
        self,
        model,
        config: Optional[ServerConfig] = None,
        dataset=None,
        state_store: Optional[UserStateStore] = None,
        ingest: Optional[StreamIngest] = None,
    ):
        self.config = config or ServerConfig()
        self.dataset = dataset
        self._primary = model
        model.eval()
        # One registry for the whole runtime: the scheduler, plan cache,
        # worker stats, and stream pipeline all register their
        # instruments here, so /stats and /metrics are two renderings
        # of the same instruments rather than parallel bookkeeping.
        self.registry = MetricsRegistry()
        self.slow_ring = SlowRing(self.config.slow_ring_size)
        self.scheduler = MicroBatchScheduler(
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            max_queue=self.config.max_queue,
            registry=self.registry,
        )
        embedding_store = {"lock": threading.Lock(), "version": None, "state": None}
        self.plan_cache: Optional[PlanCache] = None
        if self.config.compile and supports_plans(model):
            self.plan_cache = PlanCache(
                maxsize=self.config.plan_cache_size,
                dtype=self.config.plan_dtype,
                registry=self.registry,
            )
        self.predictors: List[Predictor] = [
            _PooledPredictor(
                _replicate_model(model),
                graph_cache_size=self.config.graph_cache_size,
                store=embedding_store,
                plan_cache=self.plan_cache,
                registry=self.registry,
                stats_labels={"worker": str(index)},
            )
            for index in range(self.config.workers)
        ]
        self._request_stats = ServeStats(
            registry=self.registry, namespace="serve_request"
        )
        self._failed = self.registry.counter(
            "serve_request_failed", "Requests whose batch raised"
        )
        self._in_flight = [0] * self.config.workers  # per-worker batch sizes
        self.registry.gauge(
            "serve_in_flight",
            "Requests currently executing in worker batches",
            fn=lambda: sum(self._in_flight),
        )
        self.registry.gauge(
            "serve_weights_version",
            "Weights generation currently served",
            fn=self._primary.weights_version,
        )
        self._traces_sampled = self.registry.counter(
            "serve_traces_sampled", "Requests that carried a sampled trace"
        )
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopped = False
        # Stateful serving: the server owns per-user check-in state.
        # The ingest pipeline sees every worker's QR-P graph LRU, so a
        # session rollover retires the stale per-user entry everywhere
        # — and, when the model exposes an incremental QR-P maintainer,
        # pushes the O(session)-updated replacement into each worker
        # cache so the next predict is a hit instead of a rebuild.
        # A caller-supplied ``ingest`` (e.g. repro.cluster's
        # DurableIngest, which logs every acknowledged event) replaces
        # the default pipeline; its store becomes the server's.
        if ingest is not None:
            if state_store is not None and state_store is not ingest.store:
                raise ValueError("pass either state_store or ingest, not both")
            self.state_store = ingest.store
            self.stream = ingest
            for predictor in self.predictors:
                ingest.register_predictor(predictor)
            # the ingest pipeline predates the server (e.g. DurableIngest
            # built during recovery): adopt its instruments so /metrics
            # covers WAL/snapshot gauges and ingest counters too
            self.registry.adopt(ingest.registry)
        else:
            self.state_store = state_store
            self.stream = None
            if state_store is not None:
                self.stream = StreamIngest(state_store, registry=self.registry)
                for predictor in self.predictors:
                    self.stream.register_predictor(predictor)
        # Model-quality observability (stateful servers only — the
        # labels arrive as check-ins): every worker's served batch is
        # recorded by one QualityMonitor, and the ingest observer hook
        # joins each user's next check-in against the pending
        # prediction; the same hook feeds the drift detector's
        # POI/tile sketches.  All instruments live in ``self.registry``
        # so /metrics (and the cluster's shard-merged scrape) carry
        # them with zero extra plumbing.
        self.quality: Optional[QualityMonitor] = None
        self.drift: Optional[DriftDetector] = None
        if self.stream is not None and self.config.quality_window > 0:
            self.quality = QualityMonitor(
                self.registry,
                window_seconds=self.config.quality_window,
                top_k=self.config.quality_topk,
                gap_hours=self.state_store.config.gap_hours,
            )
            tile_system = getattr(model, "tile_system", None)
            tile_of = (
                getattr(tile_system, "leaf_of_poi", None)
                if tile_system is not None
                else None
            )
            self.drift = DriftDetector(self.registry, tile_of=tile_of)
            self.stream.add_observer(self.quality.observe_checkin)
            self.stream.add_observer(self.drift.update)
            for predictor in self.predictors:
                predictor.quality = self.quality

    @classmethod
    def from_checkpoint(
        cls,
        path,
        config: Optional[ServerConfig] = None,
        dataset=None,
        state_store: Optional[UserStateStore] = None,
    ) -> "InferenceServer":
        """Build the runtime straight from a saved checkpoint."""
        loaded = load_checkpoint(path, dataset=dataset)
        return cls(
            loaded.model, config=config, dataset=loaded.dataset, state_store=state_store
        )

    @property
    def num_pois(self) -> Optional[int]:
        return getattr(self._primary, "num_pois", None)

    @property
    def model(self):
        """The primary model (weight reloads go through it)."""
        return self._primary

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for index, predictor in enumerate(self.predictors):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index, predictor),
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Shut down the pool.

        ``drain=True`` serves everything already admitted before the
        workers exit (graceful); ``drain=False`` fails the backlog
        fast.  Idempotent.
        """
        self._stopped = True
        self.scheduler.close(drain=drain)
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, sample) -> Future:
        """Queue one :class:`PredictionSample`; non-blocking.

        Raises ``ValueError`` for samples the batched encode would
        reject (empty prefix) *before* they can join — and poison — a
        micro-batch, :class:`QueueFullError` under backpressure, and
        :class:`SchedulerClosedError` during shutdown.  The returned
        future resolves to the request's :class:`PredictorResult`.
        """
        if not sample.prefix:
            raise ValueError("sample needs a non-empty prefix")
        num_pois = self.num_pois
        if num_pois is not None:
            visits = list(sample.prefix)
            for trajectory in sample.history:
                visits.extend(trajectory.visits)
            if any(v.poi_id < 0 or v.poi_id >= num_pois for v in visits):
                raise ValueError(f"sample references POIs outside [0, {num_pois})")
        return self.scheduler.submit(sample)

    def predict(self, sample, timeout: Optional[float] = None) -> PredictorResult:
        """Blocking convenience wrapper: submit and wait for the result.

        On timeout the request is cancelled so a worker does not later
        spend a batch slot computing a result nobody is waiting for.
        """
        future = self.submit(sample)
        try:
            return future.result(
                self.config.request_timeout_s if timeout is None else timeout
            )
        except FutureTimeoutError:
            future.cancel()
            raise

    # ------------------------------------------------------------------
    # stateful request path (the server owns the user's history)
    # ------------------------------------------------------------------
    @property
    def stateful(self) -> bool:
        return self.state_store is not None

    def checkin(self, event: CheckinEvent) -> AppendResult:
        """Ingest one check-in into the server-owned user state.

        Appends to the sharded store, rolls the session at the Δt gap
        boundary, and retires the user's stale QR-P graph entry from
        every worker's cache.  Raises ``RuntimeError`` on a stateless
        server and ``ValueError`` for out-of-order arrivals.
        """
        if self.stream is None:
            raise RuntimeError(
                "this server is stateless; construct it with a state_store "
                "(CLI: repro serve --stateful)"
            )
        result = self.stream.ingest(event)
        # durable ingest: roll the interval snapshot on the serving path,
        # so the WAL stays bounded during long-running serving instead of
        # only compacting at shutdown
        maybe_snapshot = getattr(self.stream, "maybe_snapshot", None)
        if maybe_snapshot is not None:
            maybe_snapshot()
        return result

    def submit_user(self, user_id: int) -> Future:
        """Queue a history-less prediction for a stored user.

        The user's history and open-session prefix are resolved from
        the state store *at submit time* — the sample entering the
        micro-batch is an immutable snapshot, so a check-in ingested
        while the request waits does not shift its result.  Raises
        ``KeyError`` for users the store has never seen.
        """
        if self.state_store is None:
            raise RuntimeError(
                "this server is stateless; construct it with a state_store "
                "(CLI: repro serve --stateful)"
            )
        return self.submit(self.state_store.sample_for(user_id))

    def predict_user(self, user_id: int, timeout: Optional[float] = None) -> PredictorResult:
        """Blocking :meth:`submit_user` (mirrors :meth:`predict`)."""
        future = self.submit_user(user_id)
        try:
            return future.result(
                self.config.request_timeout_s if timeout is None else timeout
            )
        except FutureTimeoutError:
            future.cancel()
            raise

    # ------------------------------------------------------------------
    # JSON request surface: one (status, body) per POST endpoint
    # ------------------------------------------------------------------
    def checkin_json(self, payload: Dict) -> Tuple[int, Dict]:
        """``POST /checkin``: 200 with the append result, 400 for a bad
        body or a stateless server, 409 for an out-of-order arrival."""
        if not self.stateful:
            return 400, {"error": "this server is stateless; start it with "
                                  "repro serve --stateful to accept check-ins"}
        try:
            with span("validate"):
                event = event_from_json(payload, num_pois=self.num_pois)
        except ValueError as error:
            return 400, {"error": str(error)}
        try:
            result = self.checkin(event)
        except ValueError as error:
            # out-of-order arrival: the client's clock conflicts with
            # already-ingested state, not with the schema
            return 409, {"error": str(error)}
        return 200, result.as_dict()

    def predict_json(self, payload: Dict, recommend: bool = False) -> Tuple[int, Dict]:
        """``POST /predict``, or ``POST /recommend`` with ``recommend=True``.

        A body shipping none of ``prefix``/``history``/``target`` is the
        history-less form ``{"user_id": ...}``, resolved from the state
        store (404 for a user it has never seen); any other body is a
        :func:`~repro.serve.protocol.sample_from_json` request.  Bad
        bodies are 400s, backpressure 429, shutdown 503, and the wait
        is :meth:`result_json`'s.
        """
        k = payload.get("k", 10)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            return 400, {"error": "k must be a positive integer"}
        # classify the *as-shipped* body before /recommend drops the
        # target, so both endpoints route a given body identically
        historyless = not any(key in payload for key in ("prefix", "history", "target"))
        if recommend:
            payload = dict(payload)
            payload.pop("target", None)  # recommendations carry no truth
        if historyless:
            # A body that ships history or a target but no prefix is a
            # broken *stateless* request and keeps its 400 below;
            # silently serving it from stored state would mask the bug.
            with span("validate", historyless=True):
                if not self.stateful:
                    return 400, {"error": "history-less predict needs a stateful "
                                          "server; start it with repro serve "
                                          "--stateful or ship a 'prefix' with "
                                          "the request"}
                user_id = payload.get("user_id")
                if isinstance(user_id, bool) or not isinstance(user_id, int):
                    return 400, {"error": "user_id must be an integer"}
                try:
                    sample = self.state_store.sample_for(user_id)
                except KeyError:
                    return 404, {"error": f"no check-in state for user {user_id}"}
        else:
            try:
                with span("validate"):
                    sample = sample_from_json(payload, num_pois=self.num_pois)
            except ValueError as error:
                return 400, {"error": str(error)}
        try:
            future = self.submit(sample)
        except ValueError as error:
            return 400, {"error": str(error)}
        except QueueFullError as error:
            return 429, {"error": str(error), **self.scheduler.stats()}
        except SchedulerClosedError as error:
            return 503, {"error": str(error)}
        status, body = self.result_json(future, k)
        if recommend and status == 200:
            body = {
                "user_id": sample.user_id,
                "recommendations": body["top_pois"],
                "num_pois": body["num_pois"],
            }
        return status, body

    def result_json(self, future: Future, k: int) -> Tuple[int, Dict]:
        """Wait for one submitted request and encode its top ``k``.

        504 once ``request_timeout_s`` passes (the request is cancelled,
        so a worker does not later spend a batch slot on a result nobody
        waits for), 500 when its batch raised.
        """
        timeout = self.config.request_timeout_s
        try:
            result = future.result(timeout)
        except FutureTimeoutError:
            future.cancel()
            return 504, {"error": f"request timed out after {timeout}s"}
        except Exception as error:  # the batch raised
            return 500, {"error": str(error)}
        return 200, result_to_json(result, k=k)

    def reload_json(self, payload: Dict) -> Tuple[int, Dict]:
        """``POST /reload {"checkpoint": path}``: 200 with the new
        ``weights_version``, 400 for anything that cannot be loaded."""
        path = payload.get("checkpoint")
        if not isinstance(path, str) or not path:
            return 400, {"error": "reload needs a 'checkpoint' path"}
        try:
            version = self.reload_weights(path)
        except FileNotFoundError:
            return 400, {"error": f"checkpoint not found: {path}"}
        except Exception as error:
            # not just ValueError/KeyError: a corrupt or non-.npz file
            # surfaces as BadZipFile/OSError from np.load, and the
            # client must get a 400, not a dropped connection
            return 400, {"error": f"{type(error).__name__}: {error}"}
        return 200, {"weights_version": version}

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int, predictor: Predictor) -> None:
        while True:
            batch = self.scheduler.next_batch()
            if batch is None:  # closed and drained
                return
            samples = [request.sample for request in batch]
            self._in_flight[index] = len(batch)
            # One batch-scoped trace serves every traced member of the
            # batch: the worker's spans (inference, and below it the
            # model's encode/plan-replay/ranking spans) are recorded
            # once and grafted into each member's own trace afterwards,
            # so a request's tree shows the shared work it rode on.
            # Untraced batches skip all of it — no Trace, no spans.
            batch_trace = (
                Trace() if any(r.trace is not None for r in batch) else None
            )
            batch_started = time.monotonic()
            try:
                if batch_trace is not None:
                    with activate(batch_trace):
                        with span(
                            "infer.batch", worker=index, batch_size=len(batch)
                        ):
                            results = predictor.predict_batch(samples)
                else:
                    results = predictor.predict_batch(samples)
            except Exception as error:  # contain the blast radius to this batch
                self._failed.inc(len(batch))
                for request in batch:
                    try:
                        request.future.set_exception(error)
                    except InvalidStateError:
                        pass  # client cancelled; nothing to deliver
                continue
            finally:
                self._in_flight[index] = 0
            completed_at = time.monotonic()
            exported = (
                batch_trace.export_spans() if batch_trace is not None else None
            )
            for request, result in zip(batch, results):
                # record before resolving: a client that wakes on its
                # future must already see itself counted in /stats
                self._request_stats.record_batch(
                    completed_at - request.enqueued_at, 1
                )
                if request.trace is not None:
                    request.trace.add_span(
                        "queue.wait", request.enqueued_at, batch_started
                    )
                    # same process: the batch trace's offsets re-anchor
                    # exactly at its monotonic start
                    request.trace.graft(exported, anchor=batch_trace.started_at)
                try:
                    request.future.set_result(result)
                except InvalidStateError:
                    pass

    # ------------------------------------------------------------------
    # hot weight reload
    # ------------------------------------------------------------------
    def reload_weights(self, source: Union[str, Path, Dict]) -> int:
        """Swap in new weights without restarting the pool.

        ``source`` is a checkpoint path or a ``state_dict`` mapping.
        Parameters are shared objects across all worker replicas, so
        one ``load_state_dict`` on the primary updates every worker;
        the bumped ``weights_version`` then invalidates each worker's
        cached embedding tables on its next request — and every cached
        inference plan, whose keys carry the version (the pool re-traces
        against the new tables on first use).  Extra inference
        state (e.g. MC count tables) is re-applied to every replica
        explicitly, since it lives in plain attributes that shallow
        copies do not share on reassignment.  A batch already running
        during the swap may mix old and new parameters — acceptable
        for incremental refreshes; drain first if you need a hard cut.

        Returns the new ``weights_version``.
        """
        extra = None
        if isinstance(source, (str, Path)):
            meta, params, extra = read_checkpoint(source)
            name = meta.get("model_name")
            expected = getattr(self._primary, "name", None)
            if name != expected:
                raise ValueError(
                    f"checkpoint holds weights for {name!r}, server runs {expected!r}"
                )
        else:
            params = dict(source)
        self._primary.load_state_dict(params)
        if extra:
            self._primary.load_extra_state(extra)
            for predictor in self.predictors:
                predictor.model.load_extra_state(extra)
        return self._primary.weights_version()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        """The ``GET /healthz`` body (a stopping server still answers)."""
        return {
            "status": "ok" if self.running else "stopping",
            "workers": len(self.predictors),
            "weights_version": self._primary.weights_version(),
        }

    @property
    def trace_sample(self) -> float:
        """The request-tracing rate the HTTP handler samples at."""
        return self.config.trace_sample

    def offer_trace(self, trace: Trace) -> None:
        """Count one finished sampled request; keep it if among the slowest."""
        self._traces_sampled.inc()
        self.slow_ring.offer(trace)

    def stats(self) -> Dict:
        """One JSON-ready snapshot of the whole runtime.

        ``scheduler`` covers admission (``queue_depth``, rejections),
        ``batches`` the pooled per-batch execution stats across
        workers, ``workers_detail`` each worker's in-flight batch size
        and lifetime counters, and ``requests`` end-to-end request
        latency (enqueue to completion, i.e. queueing + batching delay
        + inference).  ``queue_depth`` + per-worker ``in_flight`` are
        the backpressure gauges: watching them climb is how operators
        (and the replay bench) see saturation building *before* the
        bounded queue starts returning 429s.  Stateful servers add a
        ``stream`` section (store occupancy + ingest counters), and
        ``plans`` reports the pool-wide plan cache (trace/hit/miss/
        fallback counters plus per-plan step and buffer sizes) or
        ``{"enabled": false}`` when serving eagerly.
        """
        batch_requests = batch_count = refreshes = hits = 0
        latency_snapshots: List[Dict] = []
        workers_detail: List[Dict] = []
        for index, predictor in enumerate(self.predictors):
            stats = predictor.stats
            latency_snapshots.append(stats.latency.snapshot())
            batch_requests += stats.requests
            batch_count += stats.batches
            refreshes += stats.embedding_refreshes
            hits += stats.embedding_cache_hits
            workers_detail.append(
                {
                    "worker": index,
                    "in_flight": self._in_flight[index],
                    "requests": stats.requests,
                    "batches": stats.batches,
                }
            )
        # per-worker histograms sum bucket-wise into one pool-wide
        # latency distribution — the merge the old pooled-list window
        # approximated with O(requests) memory
        pooled = merge_histogram_snapshots(latency_snapshots)
        request_stats = self._request_stats.as_dict()
        scheduler_stats = self.scheduler.stats()
        failed = int(self._failed.value)
        out = {
            "running": self.running,
            "workers": len(self.predictors),
            "weights_version": self._primary.weights_version(),
            "queue_depth": scheduler_stats["queue_depth"],
            "in_flight": sum(w["in_flight"] for w in workers_detail),
            "workers_detail": workers_detail,
            "scheduler": scheduler_stats,
            "batches": {
                "count": batch_count,
                "requests": batch_requests,
                "mean_size": batch_requests / batch_count if batch_count else 0.0,
                "embedding_refreshes": refreshes,
                "embedding_cache_hits": hits,
                **{
                    f"p{p}_ms": 1000.0 * snapshot_percentile(pooled, p)
                    for p in LATENCY_PERCENTILES
                },
            },
            "requests": {
                "completed": request_stats["requests"],
                "failed": failed,
                "rejected": scheduler_stats["rejected"],
                "mean_latency_ms": request_stats["mean_latency_ms"],
                **{
                    key: request_stats[key]
                    for key in (f"p{p}_ms" for p in LATENCY_PERCENTILES)
                },
            },
        }
        out["plans"] = (
            self.plan_cache.stats() if self.plan_cache is not None else {"enabled": False}
        )
        if self.stream is not None:
            out["stream"] = self.stream.stats()
        if self.quality is not None:
            out["quality"] = {
                "enabled": True,
                "pending": self.quality.pending_count(),
                "joins": sum(self.quality.summary()["joins"].values()),
            }
        out["tracing"] = {
            "sample_rate": self.config.trace_sample,
            "sampled": int(self._traces_sampled.value),
            "slow_ring": len(self.slow_ring),
        }
        return out

    def metrics_text(self) -> str:
        """The Prometheus text exposition ``GET /metrics`` serves."""
        return render_prometheus(self.registry.snapshot())

    def quality_report(self) -> Dict:
        """The ``GET /quality`` JSON: prequential accuracy + drift.

        ``{"enabled": false}`` on a stateless server (no labels can
        ever arrive) or when ``quality_window=0`` switched the monitor
        off.  Per-stratum blocks carry raw windowed sums alongside the
        ratios, which is what lets the cluster router merge shard
        reports by addition (:func:`~repro.obs.quality.merge_summaries`).
        """
        if self.quality is None:
            return {"enabled": False}
        report = self.quality.summary()
        report["drift"] = (
            self.drift.summary() if self.drift is not None else {"enabled": False}
        )
        if self.state_store is not None:
            report["store_strata"] = self.state_store.strata_counts()
        return report

    def slow_requests(self, n: int = 10) -> List[Dict]:
        """The ``n`` worst recent traced requests as span trees."""
        return self.slow_ring.slow(n)


# ----------------------------------------------------------------------
# HTTP front-end (stdlib only)
# ----------------------------------------------------------------------
_POST_PATHS = ("/predict", "/recommend", "/checkin", "/reload")


class _Handler(BaseHTTPRequestHandler):
    """The HTTP handler of both serving tiers.

    ``self.server.app`` is the :class:`HttpFrontend`'s app.  Every POST
    endpoint is one ``(status, body)`` call on it, so this class only
    parses JSON, samples the request trace and writes responses.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # the runtime's stats cover observability; per-request access
    # logging on stderr would just add noise to benchmarks
    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _read_json(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def do_GET(self):
        app = self.server.app
        if self.path == "/healthz":
            health = app.healthz()
            # only a cluster with a shard down is unhealthy; a draining
            # single-process server still answers
            status = 503 if health["status"] in ("degraded", "down") else 200
            self._send_json(status, health)
        elif self.path == "/stats":
            self._send_json(200, app.stats())
        elif self.path == "/metrics":
            self._send(
                200, app.metrics_text().encode("utf-8"), "text/plain; version=0.0.4"
            )
        elif self.path == "/quality":
            self._send_json(200, app.quality_report())
        elif self.path.startswith("/debug/slow"):
            self._send_json(200, {"slow": app.slow_requests(self._slow_n(app))})
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _slow_n(self, app) -> int:
        # /debug/slow?n=25 — bad or absent n falls back to 10
        _, _, query = self.path.partition("?")
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == "n" and value.isdigit():
                return max(1, min(int(value), app.slow_ring.capacity))
        return 10

    def do_POST(self):
        if self.path not in _POST_PATHS:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        app = self.server.app
        # Sampled request tracing: the trace is thread-local for the
        # rest of this handler (submit captures it onto the
        # ServeRequest; a check-in's WAL append and the cluster's
        # routing span see it directly) and reaches the app's slow ring
        # once the response is written.
        trace = maybe_trace(app.trace_sample)
        try:
            with activate(trace):
                self._send_json(*self._answer(app))
        finally:
            if trace is not None:
                app.offer_trace(trace)

    def _answer(self, app) -> Tuple[int, Dict]:
        with span("http.parse", path=self.path):
            try:
                payload = self._read_json()
            except ValueError as error:
                return 400, {"error": str(error)}
        if self.path == "/checkin":
            return app.checkin_json(payload)
        if self.path == "/reload":
            return app.reload_json(payload)
        return app.predict_json(payload, recommend=self.path == "/recommend")


class HttpFrontend:
    """Serve an app over HTTP/JSON: an :class:`InferenceServer`, or a
    :class:`~repro.cluster.router.ClusterRouter` in front of shard
    processes.

    Endpoints: ``POST /predict`` and ``POST /recommend`` (see
    :func:`~repro.serve.protocol.sample_from_json` for the body
    schema; on a stateful app a body without ``prefix`` is the
    history-less form ``{"user_id": ...}`` served from the state
    store), ``POST /checkin`` (``{"user_id", "poi_id", "timestamp"}``,
    stateful apps only), ``POST /reload`` (``{"checkpoint": path}``;
    a cluster answers 501), ``GET /healthz`` (503 only for a cluster
    with a shard down), ``GET /stats``, ``GET /metrics`` (Prometheus
    text), ``GET /quality`` (live prequential accuracy by cold-start
    stratum plus drift gauges; stateful apps) and
    ``GET /debug/slow?n=10`` (the worst recent traced requests as span
    trees).

    The app answers the POSTs through ``checkin_json``,
    ``predict_json`` and ``reload_json``, each returning
    ``(status, body)``, and the GETs through ``healthz``, ``stats``,
    ``metrics_text``, ``quality_report`` and ``slow_requests``; it
    samples request traces at ``trace_sample`` and takes finished ones
    through ``offer_trace``.  A threading HTTP server gives each
    connection its own thread.  ``port=0`` binds an ephemeral port
    (tests).
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8151):
        self.app = app
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.app = app
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpFrontend":
        if self._thread is not None:
            raise RuntimeError("HTTP front-end already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run in the calling thread until interrupted (CLI mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "HttpFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
