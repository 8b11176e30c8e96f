"""Crash recovery: latest snapshot + event-log tail fold.

The per-user monotonic ``state_version`` was designed replay-friendly:
:meth:`UserStateStore.append` is a deterministic fold step, so

    recovered = fold(append, load(latest snapshot), log tail)

reproduces the exact pre-crash state — same sessions, same prefixes,
same version counters — for every event that was acknowledged.
:class:`DurableIngest` is the write side of that contract: an event is
applied to the store, then logged, then acknowledged, so the log holds
exactly the acknowledged events (an event rejected by the store — e.g.
out-of-order — never reaches the log and can never be replayed).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional

from ..obs import MetricsRegistry
from ..obs.tracing import span
from ..stream.events import CheckinEvent
from ..stream.ingest import StreamIngest
from ..stream.state import AppendResult, StoreConfig, UserStateStore
from ..utils.cache import LRUCache
from .snapshot import (
    LoadedSnapshot,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    save_snapshot,
)
from .wal import EventLogWriter, list_segments, read_log, remove_dead_segments

logger = logging.getLogger("repro.cluster.recovery")


@dataclass
class RecoveryResult:
    """What one recovery pass restored and where the log resumes."""

    store: UserStateStore
    last_seq: int  # next WAL append is last_seq + 1
    snapshot_seq: int  # 0 when no snapshot was found
    replayed: int  # log records folded past the snapshot
    torn_skipped: int  # truncated final records tolerated
    seconds: float
    snapshot_path: Optional[Path] = None

    def as_dict(self) -> Dict:
        return {
            "last_seq": self.last_seq,
            "snapshot_seq": self.snapshot_seq,
            "replayed": self.replayed,
            "torn_skipped": self.torn_skipped,
            "seconds": round(self.seconds, 4),
            "users": len(self.store),
            "snapshot": self.snapshot_path.name if self.snapshot_path else None,
        }


def recover_store(
    directory,
    config: Optional[StoreConfig] = None,
) -> RecoveryResult:
    """Rebuild a store from its persistence directory.

    Load the newest snapshot (none → empty store), then fold every log
    record with ``seq`` past it.  A torn final record is skipped with a
    warning (see :func:`~repro.cluster.wal.read_log`); everything else
    replays through the same :meth:`~repro.stream.state.UserStateStore.append`
    the live path uses, so the recovered ``state_version``s are exactly
    the pre-crash ones.
    """
    start = time.perf_counter()
    directory = Path(directory)
    snapshots = list_snapshots(directory)
    if snapshots:
        loaded: LoadedSnapshot = load_snapshot(snapshots[-1], config=config)
        store, snapshot_seq = loaded.store, loaded.last_seq
        snapshot_path = loaded.path
    else:
        store = UserStateStore(config or StoreConfig())
        snapshot_seq, snapshot_path = 0, None
    log = read_log(directory, min_seq=snapshot_seq)
    for _, event in log.records:
        store.append(event)
    last_seq = max(snapshot_seq, log.last_seq)
    # a crash can leave a trailing segment with zero valid records
    # (empty, or only a torn write); it would collide with the next
    # writer's exclusive create of wal-<last_seq + 1>
    remove_dead_segments(directory, last_seq)
    result = RecoveryResult(
        store=store,
        last_seq=last_seq,
        snapshot_seq=snapshot_seq,
        replayed=len(log.records),
        torn_skipped=log.torn_skipped,
        seconds=time.perf_counter() - start,
        snapshot_path=snapshot_path,
    )
    logger.info(
        "recovered %d users from %s (snapshot seq %d + %d replayed, %d torn skipped) "
        "in %.3fs",
        len(store),
        directory,
        snapshot_seq,
        result.replayed,
        result.torn_skipped,
        result.seconds,
    )
    return result


class DurableIngest(StreamIngest):
    """A :class:`StreamIngest` whose acknowledged events hit the log.

    Ordering per event: **apply → log → ack**.  The acknowledgement is
    the commit point — an event the store rejects never pollutes the
    log, and an event lost between apply and log was never acknowledged,
    so dropping it on recovery is correct.  Apply and log happen under
    one internal lock, so the log's replay order always matches the
    store's apply order even when many threads ingest concurrently
    (the durable serving process sits behind a
    ``ThreadingHTTPServer``).  ``maybe_snapshot`` rolls a snapshot (and
    prunes covered log segments) every ``snapshot_interval``
    acknowledged events; it takes the same lock, so any thread may call
    it and the snapshot's store-state/log-position pairing stays exact.
    """

    def __init__(
        self,
        store: Optional[UserStateStore] = None,
        caches: Iterable[Optional[LRUCache]] = (),
        log: Optional[EventLogWriter] = None,
        snapshot_interval: int = 1000,
        registry: Optional[MetricsRegistry] = None,
    ):
        super().__init__(store, caches, registry=registry)
        if log is None:
            raise ValueError("DurableIngest needs an EventLogWriter")
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        self.log = log
        self.snapshot_interval = snapshot_interval
        self.snapshots_taken = 0
        self._since_snapshot = 0
        self._bytes_at_snapshot = log.bytes_appended
        self._last_snapshot_time: Optional[float] = None
        self._lock = threading.RLock()
        # durability gauges, all callback-backed: the hot path maintains
        # nothing, a scrape reads the live writer state.  The fsync
        # policy rides as a label on a constant info gauge.
        self.registry.gauge(
            "wal_last_seq", "Sequence number of the last WAL append", fn=lambda: self.log.last_seq
        )
        self.registry.gauge(
            "wal_appended", "Events appended to the WAL", fn=lambda: self.log.appended
        )
        self.registry.gauge(
            "wal_fsyncs", "fsync calls issued by the WAL", fn=lambda: self.log.fsyncs
        )
        self.registry.gauge(
            "wal_segments", "Current on-disk WAL segment count", fn=self.segment_count
        )
        self.registry.gauge(
            "wal_bytes_since_snapshot",
            "WAL bytes written since the last snapshot",
            fn=self.bytes_since_snapshot,
        )
        self.registry.gauge(
            "wal_snapshot_age_seconds",
            "Seconds since the last snapshot (-1 before the first)",
            fn=self.snapshot_age_seconds,
        )
        self.registry.gauge(
            "wal_snapshots_taken", "Snapshots rolled", fn=lambda: self.snapshots_taken
        )
        self.registry.gauge(
            "wal_info",
            "WAL configuration marker (value is always 1)",
            labels={"fsync": self.log.fsync},
        ).set(1)

    def ingest(self, event: CheckinEvent) -> AppendResult:
        with self._lock:
            result = super().ingest(event)  # raises on out-of-order: nothing logged
            with span("wal.append", fsync=self.log.fsync):
                self.log.append(event)
            self._since_snapshot += 1
            return result

    def maybe_snapshot(self, force: bool = False) -> Optional[Path]:
        """Snapshot if the interval elapsed (or ``force``); prune behind it."""
        with self._lock:
            if not force and self._since_snapshot < self.snapshot_interval:
                return None
            path = save_snapshot(self.store, self.log.directory, self.log.last_seq)
            self.log.prune(self.log.last_seq)
            prune_snapshots(self.log.directory, keep=2)
            self._since_snapshot = 0
            self.snapshots_taken += 1
            self._bytes_at_snapshot = self.log.bytes_appended
            self._last_snapshot_time = time.time()
            return path

    # -- durability gauges ---------------------------------------------
    def segment_count(self) -> int:
        """On-disk segments right now (directory scan at read time)."""
        return len(list_segments(self.log.directory))

    def bytes_since_snapshot(self) -> int:
        """WAL bytes appended since the last snapshot (replay debt)."""
        return self.log.bytes_appended - self._bytes_at_snapshot

    def snapshot_age_seconds(self) -> float:
        """Seconds since the last snapshot; ``-1`` before the first."""
        if self._last_snapshot_time is None:
            return -1.0
        return time.time() - self._last_snapshot_time

    def stats(self) -> Dict:
        out = super().stats()
        out["durability"] = {
            "last_seq": self.log.last_seq,
            "appended": self.log.appended,
            "segment_rotations": self.log.rotations,
            "fsync_policy": self.log.fsync,
            "fsyncs": self.log.fsyncs,
            "snapshots_taken": self.snapshots_taken,
            "since_snapshot": self._since_snapshot,
            "segments": self.segment_count(),
            "bytes_appended": self.log.bytes_appended,
            "bytes_since_snapshot": self.bytes_since_snapshot(),
            "snapshot_age_seconds": self.snapshot_age_seconds(),
        }
        return out
