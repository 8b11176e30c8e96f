"""repro.cluster: durable event-log persistence for the serving process.

The package holds durability only, on top of :mod:`repro.stream`:
:mod:`.wal` (an append-only, segmented event log), :mod:`.snapshot`
(periodic store snapshots) and :mod:`.recovery` (load the newest
snapshot, fold the log tail).  :class:`DurableIngest` logs every
acknowledged check-in, and ``repro serve --persist DIR`` hands it to
one :class:`~repro.serve.server.InferenceServer` as its ``ingest=``, so
a restarted process serves exactly the state it acknowledged before a
crash.
"""

from .recovery import DurableIngest, RecoveryResult, recover_store
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
