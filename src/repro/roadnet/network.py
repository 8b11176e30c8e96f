"""Road network container.

Wraps a ``networkx.Graph`` whose nodes carry planar positions.  The
QR-P graph construction only needs one query from it — "does a road
link tile A to tile B" — answered by :mod:`repro.roadnet.adjacency`,
but the container also exposes the usual measures used in tests and
examples (road density is one of the environmental factors the paper's
introduction motivates).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import networkx as nx

from ..geo import BoundingBox, euclidean


class RoadNetwork:
    """An undirected road graph embedded in the plane."""

    def __init__(self):
        self.graph = nx.Graph()

    def add_intersection(self, node_id: int, x: float, y: float) -> None:
        self.graph.add_node(node_id, x=float(x), y=float(y))

    def add_road(self, a: int, b: int, kind: str = "street") -> None:
        if a not in self.graph or b not in self.graph:
            raise KeyError("both endpoints must be intersections")
        xa, ya = self.position(a)
        xb, yb = self.position(b)
        self.graph.add_edge(a, b, kind=kind, length=float(euclidean(xa, ya, xb, yb)))

    def position(self, node_id: int) -> Tuple[float, float]:
        data = self.graph.nodes[node_id]
        return data["x"], data["y"]

    @property
    def num_intersections(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_roads(self) -> int:
        return self.graph.number_of_edges()

    def total_length(self) -> float:
        return sum(d["length"] for _, _, d in self.graph.edges(data=True))

    def segments(self) -> Iterator[Tuple[Tuple[float, float], Tuple[float, float], str]]:
        """Yield ``((xa, ya), (xb, yb), kind)`` for every road."""
        for a, b, data in self.graph.edges(data=True):
            yield self.position(a), self.position(b), data.get("kind", "street")

    def density_in(self, bbox: BoundingBox) -> float:
        """Road length per unit area inside ``bbox`` (clipped coarsely).

        Used by the imagery renderer and by tests asserting that dense
        districts really do have denser roads.
        """
        total = 0.0
        for (xa, ya), (xb, yb), _ in self.segments():
            inside_a = bbox.contains_closed(xa, ya)
            inside_b = bbox.contains_closed(xb, yb)
            length = float(euclidean(xa, ya, xb, yb))
            if inside_a and inside_b:
                total += length
            elif inside_a or inside_b:
                total += 0.5 * length
        return total / bbox.area

    def largest_component_fraction(self) -> float:
        if self.graph.number_of_nodes() == 0:
            return 0.0
        biggest = max(nx.connected_components(self.graph), key=len)
        return len(biggest) / self.graph.number_of_nodes()
