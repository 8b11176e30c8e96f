"""Plan cache: compiled inference plans keyed by shape bucket.

The serving glue for :mod:`repro.autograd.trace`: a thread-safe,
LRU-bounded cache of :class:`~repro.core.model.EncodePlan` entries
keyed ``(weights_version, dtype, shape_bucket)``.  One cache is shared
by every worker of an :class:`~repro.serve.server.InferenceServer` —
replicas share parameter objects, so a plan traced by one worker is
valid (and bit-identical) for all of them.  An entry is what the
model's ``predict_batch`` takes as ``plan=``: it replays the plan in
place of the eager encode, over the same feed prep and into the same
ranking tail.

Fallback ladder, never an error:

* models without the plan surface (baselines) are detected up front
  (:func:`supports_plans`) and served eagerly;
* a bucket whose trace raises :class:`~repro.autograd.TraceError`
  (an op without a replay kernel) is remembered as eager-only, so the
  failed trace is paid once, not per batch;
* a ``weights_version`` move (optimiser step, hot reload) changes the
  key, so stale plans are never replayed; the cache also drops the old
  generation eagerly to free its baked constants.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence

import numpy as np

from ..autograd import TraceError
from ..obs import MetricsRegistry
from ..obs.tracing import current_trace

__all__ = ["PlanCache", "supports_plans"]

_PLAN_METHODS = ("plan_bucket", "build_encode_plan")

# Cached marker for buckets whose trace failed: serve those eagerly
# without re-tracing every batch.
_EAGER = object()


def supports_plans(model) -> bool:
    """Whether ``model`` exposes the compiled-inference surface.

    That is ``plan_bucket`` and ``build_encode_plan``; the model's
    ``predict_batch`` then replays a built entry when passed it as
    ``plan=``.
    """
    return all(callable(getattr(model, name, None)) for name in _PLAN_METHODS)


class PlanCache:
    """Thread-safe LRU of compiled encode plans for one model scope.

    ``dtype`` picks the replay precision for every plan this cache
    builds: ``float64`` replays are bit-identical to eager, ``float32``
    halves bandwidth within the documented tolerance.  ``maxsize``
    bounds the number of *live* plans (buckets beyond it re-trace on
    return — shape bucketing keeps the working set tiny in practice).
    """

    def __init__(
        self,
        maxsize: int = 32,
        dtype="float64",
        registry: Optional[MetricsRegistry] = None,
    ):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.dtype = np.dtype(dtype)
        self._lock = threading.RLock()
        self._entries: "OrderedDict" = OrderedDict()
        self._version: Optional[int] = None
        # counters are registry instruments (private registry when the
        # cache stands alone), exposed as read-only properties below so
        # the long-standing `cache.hits` surface keeps working
        self.registry = registry if registry is not None else MetricsRegistry()
        labels = {"dtype": str(self.dtype)}
        self._traces = self.registry.counter(
            "plan_cache_traces", "Plans traced (cold buckets)", labels
        )
        self._hits = self.registry.counter(
            "plan_cache_hits", "Plan replays served from cache", labels
        )
        self._misses = self.registry.counter(
            "plan_cache_misses", "Plan lookups that missed", labels
        )
        self._fallbacks = self.registry.counter(
            "plan_cache_fallbacks", "Batches served eagerly (untraceable bucket)", labels
        )
        self.registry.gauge(
            "plan_cache_plans", "Live compiled plans", labels, fn=self.__len__
        )

    # -- historical counter surface ------------------------------------
    @property
    def traces(self) -> int:
        return int(self._traces.value)

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def fallbacks(self) -> int:
        return int(self._fallbacks.value)

    @staticmethod
    def _tag_trace(outcome: str) -> None:
        """Stamp the plan outcome onto the active trace's open span.

        During a traced request the worker's inference span is open
        when the lookup runs, so ``plan=hit|miss|trace|fallback`` lands
        exactly where a reader of ``/debug/slow`` looks to explain an
        encode that took a retrace."""
        trace = current_trace()
        if trace is not None:
            trace.tag_current(plan=outcome)

    # ------------------------------------------------------------------
    # lookup / build
    # ------------------------------------------------------------------
    def entry_for(
        self,
        model,
        samples: Sequence,
        tile_embeddings,
        poi_embeddings,
        version: Optional[int] = None,
    ):
        """The cached (or freshly traced) plan for this batch's bucket.

        Returns ``None`` when the batch must be served eagerly.  Tracing
        happens outside the lock — a worker building a plan never stalls
        the others; if two workers race the same cold bucket, both trace
        and the second insert wins (identical plans, wasted work once).

        ``version`` is the ``weights_version`` the embedding tables were
        captured at (see ``Predictor.shared_state_versioned``); it keys
        the cache so a plan is only ever stored under the generation its
        baked constants came from.  When omitted, the live version is
        read here (callers passing freshly computed tables).
        """
        if not samples:
            return None
        if version is None:
            version = model.weights_version()
        bucket = model.plan_bucket(samples)
        key = (version, str(self.dtype), bucket)
        with self._lock:
            if self._version is None or version > self._version:
                # new weights generation: drop the old plans eagerly so
                # their baked constants don't linger until LRU pressure.
                # Only move forward — a caller holding pre-reload tables
                # must not wipe plans already traced for the new weights.
                self._entries.clear()
                self._version = version
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                if cached is _EAGER:
                    self._fallbacks.inc()
                    self._tag_trace("fallback")
                    return None
                self._hits.inc()
                self._tag_trace("hit")
                return cached
            self._misses.inc()
        self._tag_trace("miss")
        try:
            entry = model.build_encode_plan(
                samples, bucket, self.dtype, tile_embeddings, poi_embeddings
            )
        except TraceError:
            with self._lock:
                if version == self._version:
                    self._put(key, _EAGER)
            self._fallbacks.inc()
            self._tag_trace("fallback")
            return None
        # A reload landing during the build mixes the caller's tables
        # with post-reload live parameters: usable for this one batch
        # (eager would read the same mix), but never cached — the next
        # batch captures post-reload tables and re-traces cleanly.
        fresh = model.weights_version() == version
        with self._lock:
            if fresh and version == self._version:
                self._put(key, entry)
        self._traces.inc()
        self._tag_trace("trace")
        return entry

    def _put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every cached plan (next batches re-trace)."""
        with self._lock:
            self._entries.clear()
            self._version = None

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for v in self._entries.values() if v is not _EAGER)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """JSON-ready snapshot for the ``/stats`` ``plans`` section."""
        with self._lock:
            entries = list(self._entries.items())
            out: Dict = {
                "enabled": True,
                "dtype": str(self.dtype),
                "traces": self.traces,
                "hits": self.hits,
                "misses": self.misses,
                "fallbacks": self.fallbacks,
            }
        plans = []
        for (version, _dtype, bucket), entry in entries:
            if entry is _EAGER:
                plans.append(
                    {"bucket": list(bucket), "weights_version": version, "eager": True}
                )
                continue
            plans.append(
                {
                    "bucket": list(bucket),
                    "weights_version": version,
                    **entry.plan.describe(),
                }
            )
        out["plans"] = plans
        return out
