"""Versioned ``UserStateStore`` snapshots: the fast half of recovery.

A snapshot is a compressed ``.npz`` in the checkpoint idiom
(:mod:`repro.serve.checkpoint`): a ``__meta__`` JSON blob plus flat
numpy arrays.  Per-user state — completed sessions, the open prefix,
and the exact ``state_version``/``history_version`` counters — is
packed into concatenated arrays with per-user offsets, so a store with
thousands of users is a handful of arrays, not thousands.

The meta records the event-log position (``last_seq``) the snapshot is
consistent with: recovery loads the newest snapshot and folds only the
log records past it.  Writes are atomic (temp file + ``os.replace``),
so a crash mid-snapshot leaves the previous snapshot intact and the
torn temp file ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..stream.state import StoreConfig, UserStateStore

SNAPSHOT_FORMAT = 1

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".npz"


class SnapshotError(RuntimeError):
    """A snapshot file this build cannot restore."""


def _snapshot_name(last_seq: int) -> str:
    return f"{_SNAPSHOT_PREFIX}{last_seq:012d}{_SNAPSHOT_SUFFIX}"


def _snapshot_seq(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX)):
        return None
    try:
        return int(name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)])
    except ValueError:
        return None


def list_snapshots(directory) -> List[Path]:
    """Snapshot files under ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        (seq, path)
        for path in directory.iterdir()
        if (seq := _snapshot_seq(path)) is not None
    ]
    found.sort()
    return [path for _, path in found]


def save_snapshot(store: UserStateStore, directory, last_seq: int) -> Path:
    """Write the store's state as ``snapshot-<last_seq>.npz``, atomically.

    The caller guarantees the store is quiescent and that every append
    up to and including log seq ``last_seq`` — and none after — is
    reflected in it (``DurableIngest.maybe_snapshot`` holds the ingest
    lock across the snapshot to make this true).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    users = store.export_users()
    stats = store.stats()

    user_ids = np.array([u["user_id"] for u in users], dtype=np.int64)
    state_versions = np.array([u["state_version"] for u in users], dtype=np.int64)
    history_versions = np.array([u["history_version"] for u in users], dtype=np.int64)
    last_timestamps = np.array([u["last_timestamp"] for u in users], dtype=np.float64)
    session_counts = np.array([len(u["sessions"]) for u in users], dtype=np.int64)
    session_lengths = np.array(
        [len(s) for u in users for s in u["sessions"]], dtype=np.int64
    )
    session_visits = [(p, t) for u in users for s in u["sessions"] for p, t in s]
    open_lengths = np.array([len(u["open"]) for u in users], dtype=np.int64)
    open_visits = [(p, t) for u in users for p, t in u["open"]]

    config = store.config
    meta = {
        "format": SNAPSHOT_FORMAT,
        "last_seq": int(last_seq),
        "users": len(users),
        "store": {
            "num_shards": config.num_shards,
            "max_sessions": config.max_sessions,
            "max_session_visits": config.max_session_visits,
            "gap_hours": config.gap_hours,
        },
        "counters": {
            "events": stats["events"],
            "rollovers": stats["sessions_rolled"],
            "forced_rolls": stats["forced_rolls"],
            # lifetime incremental-graph counters ride along so a
            # recovered process's /stats keeps the pre-crash totals; the
            # graphs themselves are never persisted — they are a pure
            # function of the session deque and re-materialise lazily
            # on the first post-recovery rollover
            "graph_updates": stats.get("graph_updates", 0),
            "graph_evictions": stats.get("graph_evictions", 0),
            "graph_rebuilds": stats.get("graph_rebuilds", 0),
        },
    }
    arrays = {
        "__meta__": np.array(json.dumps(meta)),
        "user_ids": user_ids,
        "state_versions": state_versions,
        "history_versions": history_versions,
        "last_timestamps": last_timestamps,
        "session_counts": session_counts,
        "session_lengths": session_lengths,
        "session_pois": np.array([p for p, _ in session_visits], dtype=np.int64),
        "session_times": np.array([t for _, t in session_visits], dtype=np.float64),
        "open_lengths": open_lengths,
        "open_pois": np.array([p for p, _ in open_visits], dtype=np.int64),
        "open_times": np.array([t for _, t in open_visits], dtype=np.float64),
    }
    path = directory / _snapshot_name(last_seq)
    tmp = directory / (path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


@dataclass
class LoadedSnapshot:
    """A restored store plus the log position it is consistent with."""

    store: UserStateStore
    last_seq: int
    users: int
    path: Path
    meta: Dict


def load_snapshot(path, config: Optional[StoreConfig] = None) -> LoadedSnapshot:
    """Rebuild a :class:`UserStateStore` from one snapshot file.

    ``config`` overrides lock striping (``num_shards`` is concurrency
    layout, not semantics) but must agree with the snapshot on the
    session-split knobs — replaying the log tail under a different
    ``gap_hours`` would fork the version history from what clients were
    acknowledged against.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(data["__meta__"].item())
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    found = meta.get("format")
    if found != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot {path!s} uses format {found!r}, this build supports "
            f"format {SNAPSHOT_FORMAT}"
        )
    stored = meta["store"]
    if config is None:
        config = StoreConfig(**stored)
    else:
        for knob in ("max_sessions", "max_session_visits", "gap_hours"):
            if getattr(config, knob) != stored[knob]:
                raise SnapshotError(
                    f"snapshot {path.name} was written with {knob}="
                    f"{stored[knob]!r} but recovery requested "
                    f"{getattr(config, knob)!r}; replaying the log under "
                    "different session-split rules would corrupt state"
                )
    store = UserStateStore(config)

    session_offsets = np.concatenate(([0], np.cumsum(arrays["session_lengths"])))
    open_offsets = np.concatenate(([0], np.cumsum(arrays["open_lengths"])))
    session_cursor = 0
    for index, user_id in enumerate(arrays["user_ids"]):
        count = int(arrays["session_counts"][index])
        sessions = []
        for s in range(session_cursor, session_cursor + count):
            lo, hi = session_offsets[s], session_offsets[s + 1]
            sessions.append(
                list(
                    zip(
                        arrays["session_pois"][lo:hi].tolist(),
                        arrays["session_times"][lo:hi].tolist(),
                    )
                )
            )
        session_cursor += count
        lo, hi = open_offsets[index], open_offsets[index + 1]
        store.restore_user(
            user_id=int(user_id),
            sessions=sessions,
            open_visits=list(
                zip(
                    arrays["open_pois"][lo:hi].tolist(),
                    arrays["open_times"][lo:hi].tolist(),
                )
            ),
            state_version=int(arrays["state_versions"][index]),
            history_version=int(arrays["history_versions"][index]),
            last_timestamp=float(arrays["last_timestamps"][index]),
        )
    counters = meta.get("counters", {})
    store.restore_counters(
        events=counters.get("events", 0),
        rollovers=counters.get("rollovers", 0),
        forced_rolls=counters.get("forced_rolls", 0),
        graph_updates=counters.get("graph_updates", 0),
        graph_evictions=counters.get("graph_evictions", 0),
        graph_rebuilds=counters.get("graph_rebuilds", 0),
    )
    return LoadedSnapshot(
        store=store,
        last_seq=int(meta["last_seq"]),
        users=int(meta["users"]),
        path=path,
        meta=meta,
    )


def prune_snapshots(directory, keep: int = 2) -> List[Path]:
    """Delete all but the ``keep`` newest snapshots (and stale temps)."""
    directory = Path(directory)
    removed: List[Path] = []
    if directory.is_dir():
        for tmp in directory.glob(f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}.tmp"):
            tmp.unlink(missing_ok=True)
            removed.append(tmp)
    snapshots = list_snapshots(directory)
    for path in snapshots[:-keep] if keep > 0 else snapshots:
        path.unlink(missing_ok=True)
        removed.append(path)
    return removed
