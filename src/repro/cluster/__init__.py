"""repro.cluster: durable event-log persistence and multi-process serving.

Three layers on top of :mod:`repro.stream` and :mod:`repro.serve`:

* **Durability** (:mod:`.wal`, :mod:`.snapshot`, :mod:`.recovery`) — an
  append-only event log plus periodic store snapshots; recovery is
  "load newest snapshot, fold the log tail".
* **Process pool** (:mod:`.worker`) — shard worker subprocesses
  wrapping :class:`~repro.serve.server.InferenceServer`, each loading
  the router's pinned copy of the checkpoint with the single-process
  tier's :func:`~repro.serve.checkpoint.load_checkpoint`.
* **Routing** (:mod:`.ring`, :mod:`.router`) — a consistent-hash
  router that owns the worker pool, supervises heartbeats, and answers
  the single-process server's JSON request surface, so
  :class:`~repro.serve.server.HttpFrontend` serves it unchanged
  (``HttpFrontend(router)``).
"""

from .recovery import DurableIngest, RecoveryResult, recover_store
from .ring import HashRing
from .router import ClusterConfig, ClusterRouter
from .worker import ShardError, ShardHandle, WorkerSpec
from .snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    save_snapshot,
)
from .wal import (
    FSYNC_POLICIES,
    EventLogWriter,
    WalCorruptionError,
    list_segments,
    read_log,
    remove_dead_segments,
)

__all__ = [
    "DurableIngest",
    "RecoveryResult",
    "recover_store",
    "ClusterConfig",
    "ClusterRouter",
    "HashRing",
    "ShardError",
    "ShardHandle",
    "WorkerSpec",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "list_snapshots",
    "load_snapshot",
    "prune_snapshots",
    "save_snapshot",
    "FSYNC_POLICIES",
    "EventLogWriter",
    "WalCorruptionError",
    "list_segments",
    "read_log",
    "remove_dead_segments",
]
