"""Lock-cheap metrics primitives: counters, gauges, fixed-bucket histograms.

The measurement substrate of :mod:`repro.obs`.  Three instrument kinds,
all zero-dependency and JSON-serialisable:

* :class:`Counter` — a monotonically increasing float (``_total`` by
  convention).  One small lock per instrument ("striped" across the
  registry: two instruments never contend), matching the thread-safety
  discipline `ServeStats` established.
* :class:`Gauge` — a settable value, or a *callback* gauge whose value
  is read live at scrape time (queue depth, WAL segment count) so the
  hot path never maintains it.
* :class:`Histogram` — fixed upper-bound buckets with cumulative
  counts, a running sum, count, and observed min/max.  O(buckets)
  memory under any load, with percentiles exact to bucket resolution
  — the old unbounded latency lists grew with every request.

:class:`MetricsRegistry` is the instrument directory: get-or-create by
``(name, labels)``, snapshot to JSON-safe dicts (pipe/HTTP shippable),
and merge snapshots from other processes under extra labels (the
cluster router stamps ``shard="NN"``).  A process-global default
registry (:func:`get_registry`) serves components created standalone;
an :class:`~repro.serve.server.InferenceServer` builds its own so two
servers in one process (tests, multi-tenant) never share counters.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedCounter",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "get_registry",
]

# Latency buckets in seconds: roughly geometric from 100 micros to 30s,
# the span between a cached graph lookup and a request-timeout.  17
# buckets keeps every histogram O(1)-small while giving ~2.5x bucket
# resolution, tight enough for p99 on a serving path whose latencies
# spread over 4 decades.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared shape: name, help text, labels, a per-instrument lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(_label_key(labels))
        self._lock = threading.Lock()

    def _snapshot_head(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": dict(self.labels),
        }


class Counter(_Instrument):
    """Monotonically increasing value.  ``inc`` never goes backwards."""

    kind = "counter"

    def __init__(self, name, help="", labels=None):
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict:
        return {**self._snapshot_head(), "value": self.value}


class Gauge(_Instrument):
    """A value that moves both ways — stored, or computed at read time.

    ``fn`` makes a *callback gauge*: the value is whatever ``fn()``
    returns when scraped, so live quantities (queue depth, snapshot
    age) cost nothing between scrapes.
    """

    kind = "gauge"

    def __init__(self, name, help="", labels=None, fn: Optional[Callable[[], float]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError(f"gauge {self.name} is callback-backed")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def snapshot(self) -> Dict:
        return {**self._snapshot_head(), "value": self.value}


class Histogram(_Instrument):
    """Fixed-bucket histogram: O(buckets) memory, percentiles.

    ``buckets`` are ascending upper bounds (``le`` semantics, matching
    Prometheus); an implicit ``+Inf`` bucket catches the tail.  The
    observed min/max ride along so percentiles can clamp interpolation
    to the values actually seen instead of the bucket's full span —
    e.g. a thousand identical 1 ms observations report p50 = 1 ms, not
    the midpoint of the (0.5 ms, 1 ms] bucket.
    """

    kind = "histogram"

    def __init__(self, name, help="", labels=None, buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly ascending")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    # ------------------------------------------------------------------
    # percentiles
    # ------------------------------------------------------------------
    def percentile(self, p: float) -> float:
        with self._lock:
            return _bucket_percentile(
                self.bounds, self._counts, self._count, self._min, self._max, p
            )

    def percentiles(self, ps: Iterable[float]) -> Dict[str, float]:
        """``{"p50": ..., ...}`` under one lock acquisition."""
        with self._lock:
            return {
                f"p{int(p) if float(p).is_integer() else p}": _bucket_percentile(
                    self.bounds, self._counts, self._count, self._min, self._max, p
                )
                for p in ps
            }

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                **self._snapshot_head(),
                "buckets": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
            }


class WindowedCounter(_Instrument):
    """A counter that forgets: the sum over a sliding wall-clock window.

    Quality estimators (windowed Recall@K joins, drift-window hits)
    need "how many in the last hour", not "how many ever".  The window
    is ``slots`` coarse cells keyed by **absolute** slot index
    ``int(now // slot_seconds)`` — cells older than the window are
    pruned lazily on write/read, so memory is O(slots) under any load.

    Exposed as a *gauge* (the value is a point-in-time windowed sum,
    not a monotone total).

    ``clock`` is injectable for tests; it must return wall-clock
    seconds (``time.time``), not a per-process monotonic origin,
    or cross-process alignment breaks.
    """

    kind = "gauge"

    def __init__(
        self,
        name,
        help="",
        labels=None,
        window_seconds: float = 3600.0,
        slots: int = 60,
        clock: Optional[Callable[[], float]] = None,
    ):
        super().__init__(name, help, labels)
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        slots = int(slots)
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.window_seconds = float(window_seconds)
        self.slots = slots
        self.slot_seconds = self.window_seconds / slots
        self._clock = clock if clock is not None else time.time
        self._cells: Dict[int, float] = {}

    def _now_slot(self) -> int:
        return int(self._clock() // self.slot_seconds)

    def _prune(self, now_slot: int) -> None:
        floor = now_slot - self.slots + 1
        for slot in [s for s in self._cells if s < floor]:
            del self._cells[slot]

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("windowed counters only accumulate; use a Gauge")
        self.inc_at(self._now_slot(), amount)

    def inc_at(self, slot: int, amount: float = 1.0) -> None:
        """Add into an already-computed slot (hot-path batching).

        A caller updating several aligned windowed counters for one
        logical event (a quality join touches up to eight) computes
        ``_now_slot()`` once and fans it out, instead of paying a
        clock read per instrument.  Only sound between counters that
        share ``window_seconds``/``slots``/``clock``.
        """
        with self._lock:
            self._cells[slot] = self._cells.get(slot, 0.0) + amount
            if len(self._cells) > self.slots:
                self._prune(slot)

    @property
    def value(self) -> float:
        """Sum over the live window (stale cells pruned first)."""
        slot = self._now_slot()
        with self._lock:
            self._prune(slot)
            return sum(self._cells.values())

    def snapshot(self) -> Dict:
        slot = self._now_slot()
        with self._lock:
            self._prune(slot)
            return {
                **self._snapshot_head(),
                "value": sum(self._cells.values()),
                "window_seconds": self.window_seconds,
                "slot_seconds": self.slot_seconds,
                # JSON object keys are strings; absolute indices survive
                # the round-trip as text.
                "cells": {str(s): v for s, v in self._cells.items()},
            }


def _bucket_percentile(bounds, counts, total, lo_seen, hi_seen, p) -> float:
    """Linear interpolation of the p-th percentile within its bucket.

    The caller holds the histogram lock.  The interpolation span is
    clamped to the observed min/max so degenerate distributions (all
    values equal) report the exact value.
    """
    if total <= 0:
        return 0.0
    rank = (total - 1) * p / 100.0 + 1  # 1-based fractional rank
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else hi_seen
            lower = max(lower, lo_seen if lo_seen != float("inf") else lower)
            upper = min(upper, hi_seen if hi_seen != float("-inf") else upper)
            if upper < lower:
                upper = lower
            fraction = (rank - cumulative) / count
            return lower + (upper - lower) * fraction
        cumulative += count
    return hi_seen if hi_seen != float("-inf") else 0.0


class MetricsRegistry:
    """Directory of instruments, keyed ``(name, labels)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: two
    components asking for the same name+labels share one instrument,
    and instruments of one name differ by their labels (the plan
    cache's ``dtype``).  ``adopt`` folds another registry's instruments
    in — components built before the server existed (a ``DurableIngest`` recovered from disk) start
    on a private registry and are adopted at wiring time, keeping their
    counters' identity.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _Instrument] = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------
    def _get(self, cls, name, help, labels, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"{name} already registered as {existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help=help, labels=labels, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name, help="", labels=None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name, help="", labels=None, fn=None) -> Gauge:
        return self._get(Gauge, name, help, labels, fn=fn)

    def histogram(self, name, help="", labels=None, buckets=LATENCY_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def windowed(
        self, name, help="", labels=None, window_seconds=3600.0, slots=60, clock=None
    ) -> WindowedCounter:
        return self._get(
            WindowedCounter,
            name,
            help,
            labels,
            window_seconds=window_seconds,
            slots=slots,
            clock=clock,
        )

    def adopt(self, other: Optional["MetricsRegistry"]) -> None:
        """Register every instrument of ``other`` here (shared objects)."""
        if other is None or other is self:
            return
        with other._lock:
            items = list(other._instruments.items())
        with self._lock:
            for key, instrument in items:
                self._instruments.setdefault(key, instrument)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def find(self, name: str, labels=None) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get((name, _label_key(labels)))

    def snapshot(self) -> List[Dict]:
        """JSON-safe dump of every instrument (pipe/HTTP shippable)."""
        return [instrument.snapshot() for instrument in self.instruments()]


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _GLOBAL
