"""Request tracing: trace ids, per-stage spans, cross-process carriers.

A :class:`Trace` is one request's timeline: a trace id plus an append-
only list of :class:`Span`\\ s, each a named ``[start, end)`` interval
on the *local* monotonic clock with an optional parent (span trees).
Propagation is three-legged, matching the three hand-offs in the
serving stack:

* **thread-local** — the HTTP handler thread activates the trace
  (:func:`activate` / :func:`current_trace`), so code below it
  (validation, submit) finds it without plumbing;
* **object capture** — the scheduler's future hand-off crosses threads,
  so the trace rides the ``ServeRequest`` explicitly and the inference
  thread re-activates it per request;
* **carrier dict** — the cluster pipes cross *processes*, so the router
  injects ``trace.carrier()`` into the payload, the shard builds a
  child trace from it, and ships its finished spans back in the reply
  for the router to :meth:`~Trace.graft` under its own routing span.
  Grafting re-anchors the child's *relative* offsets at the graft
  point: monotonic clocks are not comparable across processes, but
  span durations and in-trace ordering are.

The hot path must not notice any of this when sampling is off:
:func:`maybe_trace` returns ``None`` without allocating for rate 0,
and the module-level :data:`span` helper is a no-op (no Span object,
no append, no lock) when no trace is active.  ``Span`` keeps a class-
level creation counter so tests can assert exactly that.

Completed traces land in a :class:`SlowRing` — a bounded worst-N ring
backing ``/debug/slow``.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import threading
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Span",
    "Trace",
    "SlowRing",
    "activate",
    "current_trace",
    "maybe_trace",
    "span",
    "span_creation_count",
]

_local = threading.local()

_trace_counter = itertools.count()


def _new_trace_id() -> str:
    # pid + counter + 32 random bits: unique across the cluster's shard
    # processes without coordination, cheap, and grep-able in logs.
    return f"{os.getpid():x}-{next(_trace_counter):x}-{random.getrandbits(32):08x}"


class Span:
    """One named stage: ``[start, end)`` on the local monotonic clock."""

    __slots__ = ("name", "start", "end", "parent", "tags")

    created = 0  # class-level probe: total Span allocations this process

    def __init__(self, name: str, start: float, parent: Optional[int] = None):
        Span.created += 1
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent  # index into the owning trace's span list
        self.tags: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def tag(self, **tags) -> "Span":
        if self.tags is None:
            self.tags = {}
        self.tags.update(tags)
        return self


def span_creation_count() -> int:
    """Process-wide Span allocation counter (the sampling-off probe)."""
    return Span.created


class Trace:
    """One request's span tree.  Thread-safe appends; bounded size."""

    MAX_SPANS = 256  # runaway guard: a trace is a request, not a log

    __slots__ = ("trace_id", "spans", "started_at", "wall_started_at", "_lock", "_stack")

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        self.spans: List[Span] = []
        self.started_at = time.monotonic()
        self.wall_started_at = time.time()
        self._lock = threading.Lock()
        # Per-thread open-span stacks: parented spans nest correctly even
        # when several threads contribute to one trace.
        self._stack: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def begin(self, name: str, **tags) -> Optional[int]:
        """Open a span; returns its index (``None`` if the trace is full)."""
        thread_id = threading.get_ident()
        with self._lock:
            if len(self.spans) >= self.MAX_SPANS:
                return None
            stack = self._stack.setdefault(thread_id, [])
            parent = stack[-1] if stack else None
            index = len(self.spans)
            new_span = Span(name, time.monotonic(), parent)
            if tags:
                new_span.tag(**tags)
            self.spans.append(new_span)
            stack.append(index)
            return index

    def finish(self, index: Optional[int]) -> None:
        if index is None:
            return
        now = time.monotonic()
        thread_id = threading.get_ident()
        with self._lock:
            self.spans[index].end = now
            stack = self._stack.get(thread_id)
            if stack and stack[-1] == index:
                stack.pop()

    def add_span(self, name: str, start: float, end: float,
                 parent: Optional[int] = None, **tags) -> int:
        """Record an already-measured interval (e.g. queue wait)."""
        with self._lock:
            index = len(self.spans)
            if index >= self.MAX_SPANS:
                return -1
            new_span = Span(name, start, parent)
            new_span.end = end
            if tags:
                new_span.tag(**tags)
            self.spans.append(new_span)
            return index

    def tag_current(self, **tags) -> None:
        """Tag the innermost open span of the calling thread (if any)."""
        thread_id = threading.get_ident()
        with self._lock:
            stack = self._stack.get(thread_id)
            if stack:
                self.spans[stack[-1]].tag(**tags)

    # ------------------------------------------------------------------
    # cross-process propagation
    # ------------------------------------------------------------------
    def carrier(self) -> Dict[str, object]:
        """The wire form: enough for a child process to join the trace."""
        return {"trace_id": self.trace_id, "sampled": True}

    @classmethod
    def from_carrier(cls, carrier: Optional[Dict]) -> Optional["Trace"]:
        if not carrier or not carrier.get("sampled"):
            return None
        return cls(trace_id=str(carrier.get("trace_id", "")) or None)

    def export_spans(self) -> List[Dict]:
        """Spans as JSON-safe dicts, times *relative to trace start*.

        Relative offsets are the only portable form: the child process's
        monotonic clock shares no epoch with the parent's.
        """
        with self._lock:
            return [
                {
                    "name": s.name,
                    "offset": s.start - self.started_at,
                    "duration": s.duration,
                    "parent": s.parent,
                    "tags": dict(s.tags) if s.tags else {},
                }
                for s in self.spans
            ]

    def graft(self, exported: Sequence[Dict], parent: Optional[int] = None,
              anchor: Optional[float] = None) -> None:
        """Attach another process's exported spans under ``parent``.

        ``anchor`` is the local monotonic time the remote work began
        (defaults to now minus the remote spans' total extent — i.e.
        right-aligned, since the reply just arrived).  Remote offsets
        are re-based onto the local clock at the anchor; remote
        parent indices are shifted; remote roots adopt ``parent``.
        """
        if not exported:
            return
        if anchor is None:
            extent = max((s["offset"] + s["duration"]) for s in exported)
            anchor = time.monotonic() - extent
        with self._lock:
            base = len(self.spans)
            for remote in exported:
                if len(self.spans) >= self.MAX_SPANS:
                    break
                remote_parent = remote.get("parent")
                local_parent = base + remote_parent if remote_parent is not None else parent
                start = anchor + remote["offset"]
                grafted = Span(remote["name"], start, local_parent)
                grafted.end = start + remote["duration"]
                if remote.get("tags"):
                    grafted.tag(**remote["tags"])
                self.spans.append(grafted)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        with self._lock:
            if not self.spans:
                return 0.0
            return max(s.start + s.duration for s in self.spans) - self.started_at

    def as_dict(self) -> Dict:
        """The ``/debug/slow`` form: id, duration, span tree (children nested)."""
        exported = self.export_spans()
        children: Dict[Optional[int], List[int]] = {}
        for index, exported_span in enumerate(exported):
            children.setdefault(exported_span["parent"], []).append(index)

        def node(index: int) -> Dict:
            exported_span = exported[index]
            built = {
                "name": exported_span["name"],
                "offset_ms": round(exported_span["offset"] * 1000.0, 3),
                "duration_ms": round(exported_span["duration"] * 1000.0, 3),
            }
            if exported_span["tags"]:
                built["tags"] = exported_span["tags"]
            kids = children.get(index)
            if kids:
                built["children"] = [node(k) for k in kids]
            return built

        return {
            "trace_id": self.trace_id,
            "started_at": self.wall_started_at,
            "duration_ms": round(self.duration * 1000.0, 3),
            "spans": [node(i) for i in children.get(None, [])],
        }


# ----------------------------------------------------------------------
# thread-local activation
# ----------------------------------------------------------------------
class activate:
    """Context manager: make ``trace`` the calling thread's active trace.

    ``activate(None)`` is valid and clears the slot — callers wrap
    request handling unconditionally and pass whatever the sampler
    returned.
    """

    __slots__ = ("_trace", "_previous")

    def __init__(self, trace: Optional[Trace]):
        self._trace = trace
        self._previous = None

    def __enter__(self) -> Optional[Trace]:
        self._previous = getattr(_local, "trace", None)
        _local.trace = self._trace
        return self._trace

    def __exit__(self, *exc) -> None:
        _local.trace = self._previous


def current_trace() -> Optional[Trace]:
    return getattr(_local, "trace", None)


def maybe_trace(sample_rate: float) -> Optional[Trace]:
    """Sample a new trace.  The off path allocates nothing.

    ``sample_rate <= 0`` returns before touching the RNG; ``>= 1``
    always traces (tests); in between it is a Bernoulli draw.
    """
    if sample_rate <= 0.0:
        return None
    if sample_rate < 1.0 and random.random() >= sample_rate:
        return None
    return Trace()


# ----------------------------------------------------------------------
# the span() helper — free when no trace is active
# ----------------------------------------------------------------------
class span:
    """``with span("encode"):`` — records a span iff a trace is active.

    The inactive path costs one small object and two attribute reads;
    no Span is allocated, no lock taken.  Instrumented code never
    checks "is tracing on" — it just opens spans.
    """

    __slots__ = ("_name", "_tags", "_trace", "_index")

    def __init__(self, name: str, **tags):
        self._name = name
        self._tags = tags
        self._trace = None
        self._index = None

    def __enter__(self) -> "span":
        active = getattr(_local, "trace", None)
        if active is not None:
            self._trace = active
            self._index = active.begin(self._name, **self._tags)
        return self

    def __exit__(self, *exc) -> None:
        if self._trace is not None:
            self._trace.finish(self._index)

    def tag(self, **tags) -> None:
        if self._trace is not None and self._index is not None:
            self._trace.spans[self._index].tag(**tags)


# ----------------------------------------------------------------------
# slow-request exemplars
# ----------------------------------------------------------------------
class SlowRing:
    """Bounded worst-N ring of completed traces, backing ``/debug/slow``.

    A min-heap of ``(duration, seq, trace)``: a finished trace enters
    only if the ring has room or it is slower than the current fastest
    member, so the ring converges on the N worst *recent* requests
    (durations drift with load; old fast entries get displaced).
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._heap: List = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self.observed = 0

    def offer(self, trace: Optional[Trace]) -> None:
        if trace is None:
            return
        duration = trace.duration
        with self._lock:
            self.observed += 1
            entry = (duration, next(self._seq), trace)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
            elif duration > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)

    def slow(self, n: int = 10) -> List[Dict]:
        """The ``n`` worst traces, slowest first, as span-tree dicts."""
        with self._lock:
            worst = heapq.nlargest(n, self._heap)
        return [trace.as_dict() for _, _, trace in worst]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()
