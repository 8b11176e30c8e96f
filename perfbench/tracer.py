"""In-memory span tracer that wraps the program's entry points from outside.

The benchmark never edits the program: it replaces a method or module
function by a wrapper that records one span per call — name, start,
end, parent span, thread, and an optional tag such as a batch id — and
restores the original when the run ends.  Spans stay in memory until
``dump`` writes them out.

A span's *self time* is its duration minus the time covered by its
child spans.  Children always run on the parent's thread, nested inside
it, so the covered time is the sum of the children's durations.  Summed
per layer, self times partition the traced wall time of the benchmark's
own root spans; the root spans' self time is what no layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_NAME, _START, _END, _PARENT, _THREAD, _TAG, _CHILD = range(7)


class Tracer:
    """Records spans for wrapped callables; ``restore`` unwraps them all."""

    def __init__(self):
        #: wrapped calls record spans only while ``active``
        self.active = True
        self.spans: List[list] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._tensors: Optional[itertools.count] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag=None) -> list:
        stack = self._stack()
        record = [
            name,
            time.perf_counter(),
            0.0,
            stack[-1] if stack else None,
            threading.get_ident(),
            tag,
            0.0,
        ]
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[_END] = end = time.perf_counter()
        self._stack().pop()
        parent = record[_PARENT]
        if parent is not None:
            parent[_CHILD] += end - record[_START]
        self.spans.append(record)

    def add(self, name: str, start: float, end: float, tag=None) -> None:
        """A finished span measured elsewhere (e.g. across threads)."""
        self.spans.append([name, start, end, None, threading.get_ident(), tag, 0.0])

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager for the benchmark's own (root) spans."""
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        tag: Optional[Callable] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a class (methods and static methods) or a module
        (functions).  ``tag(args, kwargs)`` may compute the span's tag from
        the call's arguments.
        """
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            record = tracer.open(name, tag(args, kwargs) if tag is not None else None)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(record)

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))

    def hook(self, owner, attr: str, before=None, after=None) -> None:
        """Call ``before(args)`` / ``after(args, result)`` around ``owner.attr``.

        For counters that need no span (kept cheap enough for untraced
        runs: one extra Python call per invocation).
        """
        raw = inspect.getattr_static(owner, attr)

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = raw(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def count_instances(self, cls) -> None:
        """Count constructions of ``cls`` (e.g. autograd ``Tensor``)."""
        counter = self._tensors = itertools.count()
        original = inspect.getattr_static(cls, "__init__")

        @functools.wraps(original)
        def counting_init(obj, *args, **kwargs):
            next(counter)
            original(obj, *args, **kwargs)

        cls.__init__ = counting_init
        self._patches.append((cls, "__init__", original))

    def instances(self) -> int:
        """Constructions counted so far (``count_instances``)."""
        if self._tensors is None:
            return 0
        # next() on an itertools.count is atomic under the GIL, unlike
        # `n += 1`; its repr, "count(N)", reads it without advancing
        return int(repr(self._tensors)[6:-1])

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for record in self.spans:
            duration = record[_END] - record[_START]
            entry = out[record[_NAME]]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - record[_CHILD]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for record in self.spans if record[_NAME] == name)

    def tags(self, name: str) -> List:
        return [record[_TAG] for record in self.spans if record[_NAME] == name]

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip), times relative to the first."""
        if not self.spans:
            return
        origin = min(record[_START] for record in self.spans)
        ids = {id(record): index for index, record in enumerate(self.spans)}
        with gzip.open(path, "wt") as handle:
            for index, record in enumerate(self.spans):
                parent = record[_PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record[_NAME],
                            "start": round(record[_START] - origin, 7),
                            "end": round(record[_END] - origin, 7),
                            "parent": None if parent is None else ids.get(id(parent)),
                            "thread": record[_THREAD],
                            "tag": record[_TAG],
                        },
                        default=str,
                    )
                    + "\n"
                )


def root_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)`` in a traced run, a no-op context otherwise."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()
