"""Append-only check-in event log: the durability floor of serving.

One :class:`EventLogWriter` per persistence directory appends every
acknowledged :class:`~repro.stream.events.CheckinEvent` as a JSON line
carrying a monotonically increasing ``seq`` number::

    {"seq": 42, "user_id": 7, "poi_id": 3, "timestamp": 12.5}

The log is segmented (``wal-<first_seq>.log``), rotated at a record or
byte bound, and pruned once a snapshot covers a segment's whole seq
range.  Recovery (:mod:`repro.cluster.recovery`) folds the tail —
records with ``seq`` past the latest snapshot — back into the
:class:`~repro.stream.state.UserStateStore`.

Durability contract
-------------------
Every ``append`` flushes the Python buffer, so an acknowledged event
survives a crashed *process* (SIGKILL) under any policy: the bytes are
in the OS page cache.  The ``fsync`` policy only governs survival of a
crashed *machine*:

* ``always`` — ``os.fsync`` after every record (each ack is on disk);
* ``rotate`` — fsync when a segment rotates or closes (bounded loss:
  at most the open segment);
* ``never``  — leave it to the OS writeback.

Torn writes: a crash can leave a truncated final record.  The reader
skips it with a logged warning — it was never acknowledged, so losing
it is correct — while a malformed record anywhere *else* means real
corruption and raises :class:`WalCorruptionError`.  Writers never
append to a recovered segment (a fresh segment starts after every
recovery), so the torn tail can't be buried mid-file by later appends.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from ..stream.events import CheckinEvent, event_from_json, event_to_json

logger = logging.getLogger("repro.cluster.wal")

FSYNC_POLICIES = ("always", "rotate", "never")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


class WalCorruptionError(RuntimeError):
    """A malformed record somewhere a torn final write cannot explain."""


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    try:
        return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])
    except ValueError:
        return None


def list_segments(directory) -> List[Path]:
    """Log segments under ``directory``, in seq order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    segments = [
        (first, path)
        for path in directory.iterdir()
        if (first := _segment_first_seq(path)) is not None
    ]
    segments.sort()
    return [path for _, path in segments]


class EventLogWriter:
    """Appends events to segmented JSON-line log files.

    One writer per log directory, but that writer may be shared by many
    threads: the durable serving process sits behind a
    ``ThreadingHTTPServer``, so ``append``/``rotate``/``prune`` hold an
    internal lock, keeping seq numbers dense and monotonic and record
    lines unterleaved no matter which thread acknowledges the event.
    ``next_seq`` seeds the sequence counter — recovery passes
    ``last_seq + 1`` so the log stays densely numbered across restarts.
    """

    def __init__(
        self,
        directory,
        fsync: str = "rotate",
        segment_max_records: int = 10000,
        segment_max_bytes: int = 4 << 20,
        next_seq: int = 1,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        if next_seq < 1:
            raise ValueError("next_seq must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_max_records = segment_max_records
        self.segment_max_bytes = segment_max_bytes
        self._next_seq = next_seq
        self._lock = threading.RLock()  # close -> rotate re-enters
        self._fh = None
        self._segment_path: Optional[Path] = None
        self._segment_records = 0
        self._segment_bytes = 0
        self.appended = 0
        self.rotations = 0
        self.fsyncs = 0
        self.bytes_appended = 0  # lifetime bytes, across rotations

    @property
    def last_seq(self) -> int:
        """Seq of the most recent append (``next_seq - 1`` before any)."""
        return self._next_seq - 1

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _open_segment(self) -> None:
        self._segment_path = self.directory / _segment_name(self._next_seq)
        # "x" (exclusive create): silently appending to a pre-existing
        # segment — e.g. after a botched recovery — could bury a torn
        # record mid-file where the reader must treat it as corruption
        self._fh = open(self._segment_path, "xb")
        self._segment_records = 0
        self._segment_bytes = 0

    def append(self, event: CheckinEvent) -> int:
        """Write one record; returns its ``seq``.

        The Python buffer is always flushed (process-crash durability);
        ``fsync="always"`` additionally syncs to disk before returning.
        """
        with self._lock:
            if self._fh is None:
                self._open_segment()
            elif (
                self._segment_records >= self.segment_max_records
                or self._segment_bytes >= self.segment_max_bytes
            ):
                self.rotate()
                self._open_segment()
            seq = self._next_seq
            line = json.dumps({"seq": seq, **event_to_json(event)}) + "\n"
            data = line.encode("utf-8")
            self._fh.write(data)
            self._fh.flush()
            if self.fsync == "always":
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
            self._next_seq = seq + 1
            self._segment_records += 1
            self._segment_bytes += len(data)
            self.appended += 1
            self.bytes_appended += len(data)
            return seq

    def rotate(self) -> None:
        """Close the current segment (fsyncing under ``always``/``rotate``)."""
        with self._lock:
            if self._fh is None:
                return
            self._fh.flush()
            if self.fsync in ("always", "rotate"):
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
            self._fh.close()
            self._fh = None
            # an empty segment (rotation raced the bound) is just clutter
            if self._segment_records == 0 and self._segment_path is not None:
                self._segment_path.unlink(missing_ok=True)
            self._segment_path = None
            self.rotations += 1

    def close(self) -> None:
        self.rotate()

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def prune(self, upto_seq: int) -> List[Path]:
        """Delete closed segments whose records are all ``<= upto_seq``.

        Called after a snapshot at ``upto_seq`` lands: those records can
        never be replayed again.  A segment's coverage is bounded by the
        next segment's first seq (records are densely numbered), and the
        writer's open segment is never touched.
        """
        with self._lock:
            segments = list_segments(self.directory)
            removed: List[Path] = []
            for path, following in zip(segments, segments[1:] + [None]):
                if path == self._segment_path:
                    break
                if following is None:
                    bound = self._next_seq  # last closed segment ends before next write
                else:
                    bound = _segment_first_seq(following)
                if bound - 1 <= upto_seq:
                    path.unlink(missing_ok=True)
                    removed.append(path)
                else:
                    break  # segments are seq-ordered; later ones reach further
            return removed


def remove_dead_segments(directory, last_seq: int) -> List[Path]:
    """Delete trailing segments that hold no valid record.

    A crash between segment creation and the first complete record
    leaves ``wal-<last_seq + 1>`` on disk holding nothing replayable
    (an empty file, or a single torn record).  Recovery seeds the next
    writer with ``next_seq = last_seq + 1``, whose exclusive create
    would collide with that leftover and fail every restart — so
    recovery clears such segments first.  Only segments
    named past ``last_seq`` can be dead: a segment is named after the
    first seq written into it, so one holding any valid record would
    have pushed ``last_seq`` to or past its own name.
    """
    removed: List[Path] = []
    for path in list_segments(directory):
        first = _segment_first_seq(path)
        if first is not None and first > last_seq:
            logger.warning(
                "removing dead log segment %s (holds no valid record)", path.name
            )
            path.unlink(missing_ok=True)
            removed.append(path)
    return removed


@dataclass
class LogReadResult:
    """What a torn-tolerant read of a log directory produced."""

    records: List[Tuple[int, CheckinEvent]]
    segments: int
    torn_skipped: int

    @property
    def last_seq(self) -> int:
        return self.records[-1][0] if self.records else 0


def read_log(directory, min_seq: int = 0) -> LogReadResult:
    """Read every record with ``seq > min_seq``, tolerating a torn tail.

    The final line of the final segment may be truncated by a crash;
    it is skipped with a warning (it was never acknowledged).  Any
    other malformed line — or a non-monotonic ``seq`` — raises
    :class:`WalCorruptionError`: the log is the durability source of
    truth, and silently skipping mid-file damage would resurrect a
    store that disagrees with what clients were told.
    """
    segments = list_segments(directory)
    records: List[Tuple[int, CheckinEvent]] = []
    torn = 0
    previous_seq = None
    for segment_index, path in enumerate(segments):
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        # a well-formed file ends with a newline, so the final split
        # element is empty; anything else is a record without its
        # terminator — torn if it is the very tail of the log
        complete, tail = lines[:-1], lines[-1]
        last_segment = segment_index == len(segments) - 1
        for line_index, line in enumerate(complete):
            final_line = last_segment and line_index == len(complete) - 1 and not tail
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("record is not a JSON object")
                seq = payload.get("seq")
                if not isinstance(seq, int) or isinstance(seq, bool):
                    raise ValueError("record has no integer seq")
                event = event_from_json(
                    {k: v for k, v in payload.items() if k != "seq"}
                )
            except ValueError as error:
                if final_line:
                    logger.warning(
                        "skipping torn final record in %s: %s", path.name, error
                    )
                    torn += 1
                    continue
                raise WalCorruptionError(
                    f"malformed record at {path.name}:{line_index + 1}: {error}"
                ) from error
            if previous_seq is not None and seq <= previous_seq:
                raise WalCorruptionError(
                    f"non-monotonic seq {seq} after {previous_seq} at "
                    f"{path.name}:{line_index + 1}"
                )
            previous_seq = seq
            if seq > min_seq:
                records.append((seq, event))
        if tail:
            if last_segment:
                logger.warning(
                    "skipping torn final record in %s (no terminator, %d bytes)",
                    path.name,
                    len(tail),
                )
                torn += 1
            else:
                raise WalCorruptionError(
                    f"unterminated record mid-log in {path.name}"
                )
    return LogReadResult(records=records, segments=len(segments), torn_skipped=torn)
