"""Tile-to-tile road adjacency (QR-P ``road`` edges, paper Sec. II-B).

Two leaf tiles are road-adjacent when some road segment passes from one
into the other.  Segments are rasterised by sampling points along their
length and mapping each sample to its leaf tile; consecutive distinct
tiles contribute an adjacency pair.  This reproduces the paper's fix
for quad-trees: small tiles that sit next to a large tile across a
granularity jump still exchange information if a road connects them.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from ..geo import euclidean
from .network import RoadNetwork


def tile_road_adjacency(
    tree,
    roads: RoadNetwork,
    sample_spacing: Optional[float] = None,
) -> Set[Tuple[int, int]]:
    """Set of unordered leaf-tile pairs linked by a road.

    ``tree`` may be a :class:`RegionQuadTree` or any index exposing
    ``leaves()``, ``leaf_for_point()``, ``bbox_of()`` and ``bbox``
    (:class:`~repro.spatial.GridIndex` qualifies, for the grid
    ablation).  ``sample_spacing`` defaults to half the smallest leaf
    side, which guarantees no traversed tile is skipped.
    """
    if sample_spacing is None:
        smallest = min(
            min(tree.bbox_of(leaf).width, tree.bbox_of(leaf).height)
            for leaf in tree.leaves()
        )
        sample_spacing = smallest / 2.0
    pairs: Set[Tuple[int, int]] = set()
    for (xa, ya), (xb, yb), _ in roads.segments():
        length = float(euclidean(xa, ya, xb, yb))
        steps = max(2, int(np.ceil(length / sample_spacing)) + 1)
        ts = np.linspace(0.0, 1.0, steps)
        previous = None
        for t in ts:
            x = xa + t * (xb - xa)
            y = ya + t * (yb - ya)
            if not tree.bbox.contains_closed(x, y):
                previous = None
                continue
            x, y = tree.bbox.clamp(x, y)
            leaf = tree.leaf_for_point(x, y)
            if previous is not None and leaf != previous:
                pairs.add((min(previous, leaf), max(previous, leaf)))
            previous = leaf
    return pairs
