"""Dataset statistics (reproduces the paper's Table I)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .datasets import Dataset


@dataclass
class DatasetStats:
    """The Table I row for one dataset."""

    name: str
    checkins: int
    users: int
    pois: int
    categories: int
    coverage: float  # area of the bounding box, in km^2
    trajectories: int
    mean_trajectory_length: float
    leaf_tiles: int

    def as_row(self) -> List[str]:
        return [
            self.name,
            f"{self.checkins:,}",
            str(self.users),
            f"{self.pois:,}",
            str(self.categories),
            f"{self.coverage:,.2f} km2",
            str(self.trajectories),
            f"{self.mean_trajectory_length:.2f}",
            str(self.leaf_tiles),
        ]


def compute_stats(dataset: Dataset) -> DatasetStats:
    trajectory_lengths = [
        len(t) for trajectories in dataset.trajectories.values() for t in trajectories
    ]
    used_categories = len(set(int(c) for c in dataset.city.pois.categories))
    return DatasetStats(
        name=dataset.name,
        checkins=len(dataset.checkins),
        users=dataset.checkins.num_users,
        pois=len(dataset.city.pois),
        categories=used_categories,
        coverage=dataset.spec.bbox.area,
        trajectories=len(trajectory_lengths),
        mean_trajectory_length=float(np.mean(trajectory_lengths)) if trajectory_lengths else 0.0,
        leaf_tiles=len(dataset.quadtree.leaves()),
    )
