"""Tile systems: the spatial-partition abstraction behind TSPN-RA.

The model interacts with urban space only through this interface:
candidate leaf tiles, POI->tile projection, and a historical-knowledge
graph.  Two implementations exist:

* :class:`QuadTreeTileSystem` — the paper's design (region quad-tree +
  QR-P graph with branch/road/contain edges);
* :class:`GridTileSystem` — the Table IV "Grid Replace Quad-tree"
  ablation: fixed cells, no hierarchy, hence no branch edges.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..data.trajectory import Trajectory, concat_history
from ..graphs import HeteroGraph, QRPGraph, QRPGraphMaintainer, build_qrp_graph
from ..spatial import GridIndex, RegionQuadTree


class QuadTreeTileSystem:
    """Quad-tree-backed tiles with full QR-P graphs."""

    def __init__(self, tree: RegionQuadTree, road_adjacency: Set[Tuple[int, int]]):
        self.tree = tree
        self.road_adjacency = road_adjacency
        self._maintainer: Optional[QRPGraphMaintainer] = None

    @property
    def num_tiles(self) -> int:
        """All tiles, leaves and internal (all can carry imagery)."""
        return len(self.tree)

    def leaves(self) -> List[int]:
        return self.tree.leaves()

    def leaf_of_poi(self, poi_id: int) -> int:
        return self.tree.leaf_of_poi(poi_id)

    def pois_in_leaf(self, leaf_id: int) -> List[int]:
        return self.tree.pois_in_leaf(leaf_id)

    def build_graph(self, history: Sequence[Trajectory]) -> QRPGraph:
        return build_qrp_graph(self.tree, self.road_adjacency, history)

    def graph_maintainer(self) -> QRPGraphMaintainer:
        """The shared incremental QR-P maintainer for this tile system.

        Memoised so every predictor over this tile system attaches the
        *same* maintainer to the user store — the store accepts one
        maintainer and keeps pushing fresh graph entries to every
        compatible cache.
        ``GridTileSystem`` deliberately has no counterpart: its grid
        graphs fall back to full rebuilds on the cache-miss path.
        """
        if self._maintainer is None:
            self._maintainer = QRPGraphMaintainer(self.tree, self.road_adjacency)
        return self._maintainer


class GridTileSystem:
    """Fixed-grid tiles; the historical graph has no branch edges."""

    def __init__(self, grid: GridIndex, road_adjacency: Set[Tuple[int, int]]):
        self.grid = grid
        self.road_adjacency = road_adjacency

    @property
    def num_tiles(self) -> int:
        return len(self.grid)

    def leaves(self) -> List[int]:
        return self.grid.leaves()

    def leaf_of_poi(self, poi_id: int) -> int:
        return self.grid.leaf_of_poi(poi_id)

    def pois_in_leaf(self, leaf_id: int) -> List[int]:
        return self.grid.pois_in_leaf(leaf_id)

    def build_graph(self, history: Sequence[Trajectory]) -> QRPGraph:
        visits = concat_history(list(history))
        graph = HeteroGraph()
        if not visits:
            return QRPGraph(graph, [], [], [], [], set())
        poi_ids = [v.poi_id for v in visits]
        cells = {self.grid.leaf_of_poi(p) for p in poi_ids}
        for cell in sorted(cells):
            graph.add_node("tile", cell)
        for a, b in self.road_adjacency:
            if a in cells and b in cells:
                graph.add_edge("road", graph.index_of("tile", a), graph.index_of("tile", b))
        for poi in dict.fromkeys(poi_ids):
            poi_index = graph.add_node("poi", poi)
            cell_index = graph.index_of("tile", self.grid.leaf_of_poi(poi))
            graph.add_edge("contain", cell_index, poi_index)
        graph.validate()
        tile_nodes = graph.nodes_of_type("tile")
        poi_nodes = graph.nodes_of_type("poi")
        return QRPGraph(
            graph=graph,
            tile_nodes=tile_nodes,
            tile_refs=[graph.node_refs[i] for i in tile_nodes],
            poi_nodes=poi_nodes,
            poi_refs=[graph.node_refs[i] for i in poi_nodes],
            leaf_tile_refs=set(cells),
        )
