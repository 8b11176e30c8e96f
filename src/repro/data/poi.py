"""POI records and the POI set P = {p_1, ..., p_|P|} (paper Sec. II-A)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class POI:
    """A point of interest: ``(id, loc, cate)`` as in the paper."""

    poi_id: int
    x: float
    y: float
    category: int

    @property
    def loc(self) -> Tuple[float, float]:
        return (self.x, self.y)


class POISet:
    """Column-oriented POI storage with id/category/location access.

    POI ids are dense integers ``0..n-1`` (the synthetic generator emits
    them that way; loaders for external data must re-index).
    """

    def __init__(
        self,
        xy: np.ndarray,
        categories: np.ndarray,
        category_names: Optional[Sequence[str]] = None,
    ):
        xy = np.asarray(xy, dtype=np.float64)
        categories = np.asarray(categories, dtype=np.int64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("xy must have shape (N, 2)")
        if len(categories) != len(xy):
            raise ValueError("categories length mismatch")
        self.xy = xy
        self.categories = categories
        if category_names is None:
            category_names = [f"category_{i}" for i in range(int(categories.max()) + 1 if len(categories) else 0)]
        self.category_names = list(category_names)

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, poi_id: int) -> POI:
        x, y = self.xy[poi_id]
        return POI(poi_id=poi_id, x=float(x), y=float(y), category=int(self.categories[poi_id]))

    @property
    def num_categories(self) -> int:
        return len(self.category_names)

    def location_of(self, poi_id: int) -> Tuple[float, float]:
        x, y = self.xy[poi_id]
        return float(x), float(y)

    def pois_with_category(self, category: int) -> np.ndarray:
        return np.nonzero(self.categories == category)[0]

    def nearest(self, x: float, y: float, k: int = 1, exclude: Optional[int] = None) -> List[int]:
        """Ids of the k nearest POIs to (x, y) by planar distance."""
        d2 = (self.xy[:, 0] - x) ** 2 + (self.xy[:, 1] - y) ** 2
        if exclude is not None:
            d2 = d2.copy()
            d2[exclude] = np.inf
        order = np.argsort(d2)
        return [int(i) for i in order[:k]]

    def within(self, bbox) -> np.ndarray:
        """Ids of POIs inside a bounding box (closed containment)."""
        m = (
            (self.xy[:, 0] >= bbox.min_x)
            & (self.xy[:, 0] <= bbox.max_x)
            & (self.xy[:, 1] >= bbox.min_y)
            & (self.xy[:, 1] <= bbox.max_y)
        )
        return np.nonzero(m)[0]
