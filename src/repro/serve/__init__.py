"""``repro.serve`` — the unified inference and serving subsystem.

Entry points
------------
* :class:`PredictorResult` / :class:`PredictorProtocol` /
  :class:`PredictorBase` — the one inference contract TSPN-RA and all
  baselines conform to.  Rank semantics: an absent target ranks
  ``num_pois + 1`` (past the whole POI universe), never just past a
  restricted candidate list;
* :func:`save_checkpoint` / :func:`load_checkpoint` — persist a
  trained model (config + weights + dataset recipe) and reload it
  without retraining (:func:`read_checkpoint` is the weights-only
  read used by hot reload);
* :class:`Predictor` — the serving facade: cached shared embeddings,
  LRU-bounded per-user graph cache, and *vectorised* batched
  inference: every request batch is right-padded, masked, and encoded
  as one ``(batch, seq, dim)`` pass through the model's
  ``predict_batch`` (TSPN-RA's batched fusion/attention, the
  baselines' ``score_batch``), with per-batch p50/p95/p99 latency in
  :class:`ServeStats`;
* :class:`InferenceServer` / :class:`ServerConfig` — the async
  serving runtime: individual requests from many concurrent clients
  coalesce through a :class:`MicroBatchScheduler` (flush on
  ``max_batch_size`` or ``max_wait_ms``) and run on one inference
  thread through one Predictor, with bounded-queue admission control (:class:`QueueFullError`), graceful
  draining shutdown, and hot weight reload;
* :class:`HttpFrontend` — the stdlib HTTP/JSON front door
  (``/predict``, ``/recommend``, ``/checkin``, ``/reload``,
  ``/healthz``, ``/stats``, ``/metrics``, ``/quality``,
  ``/debug/slow``) of both tiers: it serves an
  :class:`InferenceServer` or a :class:`~repro.cluster.ClusterRouter`,
  which answer the same ``checkin_json``/``predict_json``/
  ``reload_json`` request surface; request/response codecs are
  :func:`sample_from_json` / :func:`result_to_json`;
* :func:`compare_throughput` — uncached vs cached (batches of one) vs
  batched vs compiled float32 serving microbench (the batched leg
  reports latency percentiles);
* :class:`PlanCache` — compiled float32 inference plans (trace-once,
  graph-free replay) keyed ``(weights_version, shape bucket)``, one
  per server.  float64, the default ``plan_dtype`` of
  :class:`Predictor` and :class:`ServerConfig`, is served eagerly and
  builds none; ``plan_dtype="float32"`` opts into plans.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    LoadedCheckpoint,
    apply_extra_state,
    build_dataset_from_meta,
    build_model_from_meta,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from .plans import PlanCache, supports_plans
from .predictor import (
    Predictor,
    ServeStats,
    compare_throughput,
    interpolated_percentile,
)
from .protocol import (
    PredictorBase,
    PredictorProtocol,
    PredictorResult,
    rank_of_target,
    result_to_json,
    sample_from_json,
    serve_history_key,
)
from .scheduler import (
    MicroBatchScheduler,
    QueueFullError,
    SchedulerClosedError,
    ServeRequest,
)
from .server import HttpFrontend, InferenceServer, ServerConfig

__all__ = [
    "CHECKPOINT_FORMAT",
    "HttpFrontend",
    "apply_extra_state",
    "InferenceServer",
    "LoadedCheckpoint",
    "MicroBatchScheduler",
    "PlanCache",
    "Predictor",
    "PredictorBase",
    "PredictorProtocol",
    "PredictorResult",
    "QueueFullError",
    "SchedulerClosedError",
    "ServeRequest",
    "ServeStats",
    "ServerConfig",
    "compare_throughput",
    "interpolated_percentile",
    "build_dataset_from_meta",
    "build_model_from_meta",
    "load_checkpoint",
    "rank_of_target",
    "read_checkpoint",
    "result_to_json",
    "sample_from_json",
    "save_checkpoint",
    "serve_history_key",
    "supports_plans",
]
