"""A small LRU cache used to bound per-user serving state."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """Least-recently-used map; ``maxsize=None`` means unbounded.

    Tracks hit/miss counters so serving code can report cache health.
    All operations are thread-safe: a ``Predictor`` called from several
    threads inserts QR-P graphs concurrently, and an unguarded
    ``OrderedDict`` reorder/evict can corrupt the linked list mid-read.
    """

    def __init__(self, maxsize: Optional[int] = None):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if self.maxsize is not None and len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key``'s value (``default`` if absent).

        Targeted invalidation: the stream ingest pipeline retires a
        user's stale QR-P graph entry without touching the rest of the
        cache.  Not counted as a hit or miss — eviction is bookkeeping,
        not serving traffic.
        """
        with self._lock:
            return self._data.pop(key, default)

    def items(self):
        """(key, value) pairs, least- to most-recently used."""
        with self._lock:
            return list(self._data.items())

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
