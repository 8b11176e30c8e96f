"""Check-in events: the wire model of the online ingestion path.

A :class:`CheckinEvent` is one ``(user, POI, timestamp)`` arrival — the
streaming twin of the offline :class:`~repro.data.checkin.Checkin`
record.  The JSON codec follows the same conventions as the serving
wire format (:mod:`repro.serve.protocol`): field-level ``ValueError``
messages raised *before* the event can enter the store, and POI ids
bounded by the model's universe when known, so a malformed check-in
gets its own 400 instead of corrupting per-user state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..data.checkin import Checkin, CheckinDataset, time_slot


@dataclass(frozen=True)
class CheckinEvent:
    """One streamed check-in arrival.

    Timestamps are float *hours* from an arbitrary epoch, the same
    clock the offline datasets use, so a replayed dataset and a live
    stream are interchangeable inputs to the store.
    """

    user_id: int
    poi_id: int
    timestamp: float

    @property
    def slot(self) -> int:
        return time_slot(self.timestamp)

    def to_checkin(self) -> Checkin:
        return Checkin(user_id=self.user_id, poi_id=self.poi_id, timestamp=self.timestamp)

    @classmethod
    def from_checkin(cls, record: Checkin) -> "CheckinEvent":
        return cls(user_id=record.user_id, poi_id=record.poi_id, timestamp=record.timestamp)


def event_from_json(payload: Dict, num_pois: Optional[int] = None) -> CheckinEvent:
    """Build a :class:`CheckinEvent` from a ``POST /checkin`` body.

    Expected shape::

        {"user_id": 7, "poi_id": 3, "timestamp": 12.5}

    Validation failures raise ``ValueError`` with a field-level message
    — the HTTP front-end turns them into 400s before the event reaches
    the state store, and ``num_pois`` (when given) bounds the POI id so
    a bad check-in can never feed an out-of-range gather to the encode.
    """
    if not isinstance(payload, dict):
        raise ValueError("check-in body must be a JSON object")
    user_id = payload.get("user_id")
    if isinstance(user_id, bool) or not isinstance(user_id, int):
        raise ValueError("user_id must be an integer")
    poi_id = payload.get("poi_id")
    if isinstance(poi_id, bool) or not isinstance(poi_id, int):
        raise ValueError("poi_id must be an integer")
    if poi_id < 0 or (num_pois is not None and poi_id >= num_pois):
        raise ValueError(
            f"poi_id {poi_id} outside the POI universe"
            + (f" [0, {num_pois})" if num_pois is not None else "")
        )
    timestamp = payload.get("timestamp")
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)):
        raise ValueError("timestamp must be a number (hours)")
    if not abs(timestamp) <= sys.float_info.max:  # NaN, ±inf, ints past float range
        raise ValueError("timestamp must be finite")
    return CheckinEvent(user_id=user_id, poi_id=int(poi_id), timestamp=float(timestamp))


def event_to_json(event: CheckinEvent) -> Dict:
    return {"user_id": event.user_id, "poi_id": event.poi_id, "timestamp": event.timestamp}


def events_from_checkins(checkins: CheckinDataset) -> List[CheckinEvent]:
    """A dataset's check-ins as one globally time-ordered arrival stream.

    This is the replay input: the per-user streams (already time-sorted
    by :class:`~repro.data.checkin.CheckinDataset`) are merged into a
    single sequence sorted by ``(timestamp, user_id)``.  The sort is
    stable, so ties within one user preserve the dataset's order and an
    ingest of this stream reconstructs exactly the offline per-user
    trajectories.
    """
    events = [CheckinEvent.from_checkin(record) for record in checkins.all_checkins()]
    events.sort(key=lambda e: (e.timestamp, e.user_id))
    return events
