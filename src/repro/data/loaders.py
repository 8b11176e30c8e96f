"""Loaders for real check-in data (Foursquare / Weeplaces style).

The reproduction ships a synthetic generator because the original
datasets are not redistributable, but the full pipeline runs unchanged
on real data.  This module parses the common LBSN interchange format —
one check-in per line:

    user_id <TAB> venue_id <TAB> category <TAB> latitude <TAB> longitude <TAB> timestamp

(`timestamp` is ISO-8601 or unix seconds; extra columns are ignored).
Venue/category/user identifiers are re-indexed to dense integers,
coordinates are projected to planar kilometres around the region's
centroid, and the result plugs into the same
:class:`~repro.data.datasets.Dataset` machinery the presets use.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..geo import BoundingBox
from .checkin import Checkin, CheckinDataset
from .poi import POISet

_KM_PER_DEGREE_LAT = 111.32


@dataclass
class RawCheckin:
    """One parsed line of an LBSN file."""

    user: str
    venue: str
    category: str
    lat: float
    lon: float
    timestamp_hours: float


def _parse_timestamp(token: str) -> float:
    """ISO-8601 or unix seconds -> hours from epoch."""
    token = token.strip()
    try:
        return float(token) / 3600.0
    except ValueError:
        pass
    parsed = _dt.datetime.fromisoformat(token.replace("Z", "+00:00"))
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=_dt.timezone.utc)
    return parsed.timestamp() / 3600.0


def parse_checkin_lines(lines: Iterable[str]) -> List[RawCheckin]:
    """Parse the tab-separated interchange format, skipping blanks/comments."""
    records: List[RawCheckin] = []
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 6:
            raise ValueError(f"line {number}: expected >= 6 tab-separated fields")
        user, venue, category, lat, lon, stamp = parts[:6]
        records.append(
            RawCheckin(
                user=user,
                venue=venue,
                category=category,
                lat=float(lat),
                lon=float(lon),
                timestamp_hours=_parse_timestamp(stamp),
            )
        )
    return records


@dataclass
class LoadedCheckins:
    """Re-indexed check-ins with planar coordinates.

    ``pois.xy`` is in kilometres relative to the region's south-west
    corner; ``bbox`` covers every venue with a small margin.
    """

    pois: POISet
    checkins: CheckinDataset
    bbox: BoundingBox
    user_labels: List[str]
    venue_labels: List[str]

    @property
    def num_users(self) -> int:
        return len(self.user_labels)


def _project(lats: np.ndarray, lons: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Equirectangular projection to kilometres around the centroid."""
    lat0 = float(lats.mean())
    xs = (lons - lons.min()) * _KM_PER_DEGREE_LAT * math.cos(math.radians(lat0))
    ys = (lats - lats.min()) * _KM_PER_DEGREE_LAT
    return xs, ys


def load_checkins(
    source,
    min_user_checkins: int = 5,
    min_poi_checkins: int = 1,
) -> LoadedCheckins:
    """Load from a path or an iterable of lines.

    ``min_user_checkins`` drops near-empty users (a standard LBSN
    preprocessing step); ``min_poi_checkins`` optionally drops
    rarely-visited venues.  Note the paper explicitly does *not* filter
    infrequent POIs — keep ``min_poi_checkins=1`` to follow it.
    """
    if isinstance(source, (str, Path)):
        with open(source) as handle:
            raw = parse_checkin_lines(handle)
    else:
        raw = parse_checkin_lines(source)
    if not raw:
        raise ValueError("no check-ins parsed")

    user_counts: Dict[str, int] = {}
    venue_counts: Dict[str, int] = {}
    for record in raw:
        user_counts[record.user] = user_counts.get(record.user, 0) + 1
        venue_counts[record.venue] = venue_counts.get(record.venue, 0) + 1
    raw = [
        r
        for r in raw
        if user_counts[r.user] >= min_user_checkins
        and venue_counts[r.venue] >= min_poi_checkins
    ]
    if not raw:
        raise ValueError("all check-ins filtered out; lower the thresholds")

    venue_labels = sorted({r.venue for r in raw})
    user_labels = sorted({r.user for r in raw})
    category_labels = sorted({r.category for r in raw})
    venue_index = {v: i for i, v in enumerate(venue_labels)}
    user_index = {u: i for i, u in enumerate(user_labels)}
    category_index = {c: i for i, c in enumerate(category_labels)}

    venue_lat = np.zeros(len(venue_labels))
    venue_lon = np.zeros(len(venue_labels))
    venue_cat = np.zeros(len(venue_labels), dtype=np.int64)
    for record in raw:  # last write wins; venues are assumed static
        i = venue_index[record.venue]
        venue_lat[i] = record.lat
        venue_lon[i] = record.lon
        venue_cat[i] = category_index[record.category]

    xs, ys = _project(venue_lat, venue_lon)
    pois = POISet(np.column_stack([xs, ys]), venue_cat, category_names=category_labels)

    t0 = min(r.timestamp_hours for r in raw)
    checkins = CheckinDataset(
        [
            Checkin(
                user_id=user_index[r.user],
                poi_id=venue_index[r.venue],
                timestamp=r.timestamp_hours - t0,
            )
            for r in raw
        ]
    )
    margin_x = max(1e-6, 0.01 * (xs.max() - xs.min() + 1.0))
    margin_y = max(1e-6, 0.01 * (ys.max() - ys.min() + 1.0))
    bbox = BoundingBox(
        float(xs.min() - margin_x),
        float(ys.min() - margin_y),
        float(xs.max() + margin_x),
        float(ys.max() + margin_y),
    )
    return LoadedCheckins(
        pois=pois,
        checkins=checkins,
        bbox=bbox,
        user_labels=user_labels,
        venue_labels=venue_labels,
    )
