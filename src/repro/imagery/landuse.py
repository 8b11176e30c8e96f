"""Synthetic land-use fields.

The paper's remote-sensing augmentation works because satellite pixels
correlate with urban function (paper Fig. 4: districts are visually
distinguishable; coastlines, parks and dense cores look different).
This module synthesises that correlation explicitly: a
:class:`LandUseMap` assigns every point one of six classes from a set
of parametric primitives (city cores, park blobs, industrial blobs, a
coastline, rivers).  Both the imagery renderer *and* the POI generator
read the same map, so image content genuinely predicts POI semantics —
the signal TSPN-RA's Me1 is supposed to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional

import numpy as np

from ..geo import BoundingBox


class LandUse(IntEnum):
    """Land-use classes, ordered by rendering precedence (water wins)."""

    WATER = 0
    PARK = 1
    COMMERCIAL = 2
    RESIDENTIAL = 3
    INDUSTRIAL = 4
    RURAL = 5


@dataclass(frozen=True)
class CityCenter:
    """A downtown: commercial core surrounded by a residential ring."""

    x: float
    y: float
    commercial_radius: float
    urban_radius: float

    def __post_init__(self):
        if self.urban_radius < self.commercial_radius:
            raise ValueError("urban_radius must contain commercial_radius")


@dataclass(frozen=True)
class Blob:
    """A roughly circular feature (park or industrial zone)."""

    x: float
    y: float
    radius: float


@dataclass(frozen=True)
class Coastline:
    """A north-south coastline ``x = base + amplitude * sin(freq * y + phase)``.

    ``side`` names the ocean side: ``"east"`` puts water at
    ``x > shore`` (Florida's Atlantic coast, paper Fig. 12); ``"west"``
    puts water at ``x < shore`` (California's Pacific coast).
    """

    base: float
    amplitude: float = 0.0
    frequency: float = 1.0
    phase: float = 0.0
    side: str = "east"

    def __post_init__(self):
        if self.side not in ("east", "west"):
            raise ValueError("side must be 'east' or 'west'")

    def shore_x(self, y) -> np.ndarray:
        return self.base + self.amplitude * np.sin(self.frequency * np.asarray(y) + self.phase)

    def is_water(self, x, y) -> np.ndarray:
        shore = self.shore_x(y)
        if self.side == "east":
            return np.asarray(x) > shore
        return np.asarray(x) < shore


@dataclass
class LandUseMap:
    """Composable land-use field over a bounding box."""

    bbox: BoundingBox
    centers: List[CityCenter] = field(default_factory=list)
    parks: List[Blob] = field(default_factory=list)
    industrial: List[Blob] = field(default_factory=list)
    coast: Optional[Coastline] = None

    def class_at(self, x: float, y: float) -> LandUse:
        return LandUse(int(self.classes_at(np.array([x]), np.array([y]))[0]))

    def classes_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised classification; precedence water > park > industrial
        > commercial > residential > rural."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        out = np.full(xs.shape, int(LandUse.RURAL), dtype=np.int64)

        for center in self.centers:
            d2 = (xs - center.x) ** 2 + (ys - center.y) ** 2
            out = np.where(d2 <= center.urban_radius ** 2, int(LandUse.RESIDENTIAL), out)
        for center in self.centers:
            d2 = (xs - center.x) ** 2 + (ys - center.y) ** 2
            out = np.where(d2 <= center.commercial_radius ** 2, int(LandUse.COMMERCIAL), out)
        for blob in self.industrial:
            d2 = (xs - blob.x) ** 2 + (ys - blob.y) ** 2
            out = np.where(d2 <= blob.radius ** 2, int(LandUse.INDUSTRIAL), out)
        for blob in self.parks:
            d2 = (xs - blob.x) ** 2 + (ys - blob.y) ** 2
            out = np.where(d2 <= blob.radius ** 2, int(LandUse.PARK), out)
        if self.coast is not None:
            out = np.where(self.coast.is_water(xs, ys), int(LandUse.WATER), out)
        return out

    def coastal_band(self, x: float, y: float, width: float) -> bool:
        """True when (x, y) lies on land within ``width`` of the shore."""
        if self.coast is None:
            return False
        shore = float(self.coast.shore_x(np.array([y]))[0])
        if self.coast.side == "east":
            return (shore - width) <= x <= shore
        return shore <= x <= (shore + width)


def random_land_use_map(
    bbox: BoundingBox,
    rng: np.random.Generator,
    n_centers: int = 1,
    n_parks: int = 3,
    n_industrial: int = 1,
    coastal: bool = False,
) -> LandUseMap:
    """Sample a plausible land-use map (used by dataset presets)."""
    span = min(bbox.width, bbox.height)
    centers = []
    for _ in range(n_centers):
        cx = bbox.min_x + rng.uniform(0.25, 0.75) * bbox.width
        cy = bbox.min_y + rng.uniform(0.25, 0.75) * bbox.height
        commercial = rng.uniform(0.06, 0.12) * span
        centers.append(
            CityCenter(cx, cy, commercial_radius=commercial, urban_radius=commercial * rng.uniform(2.2, 3.0))
        )
    parks = [
        Blob(
            bbox.min_x + rng.uniform(0.1, 0.9) * bbox.width,
            bbox.min_y + rng.uniform(0.1, 0.9) * bbox.height,
            rng.uniform(0.03, 0.08) * span,
        )
        for _ in range(n_parks)
    ]
    industrial = [
        Blob(
            bbox.min_x + rng.uniform(0.1, 0.9) * bbox.width,
            bbox.min_y + rng.uniform(0.1, 0.9) * bbox.height,
            rng.uniform(0.05, 0.1) * span,
        )
        for _ in range(n_industrial)
    ]
    coast = None
    if coastal:
        coast = Coastline(
            base=bbox.min_x + 0.78 * bbox.width,
            amplitude=0.04 * bbox.width,
            frequency=2.0 * np.pi / bbox.height,
            phase=rng.uniform(0, 2 * np.pi),
        )
    return LandUseMap(bbox=bbox, centers=centers, parks=parks, industrial=industrial, coast=coast)
