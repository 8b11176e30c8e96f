"""QR-P graph construction (paper Sec. II-B, Fig. 3).

Given the region quad-tree Q, the road network's tile adjacency, and a
historical trajectory S, the four construction steps are:

1. extract the minimal sub-tree Q_S covering S's leaf tiles;
2. add ``road`` edges between leaf tiles of Q_S that the road network
   links directly;
3. add each historical POI as a node with a ``contain`` edge to its
   leaf tile;
4. assemble everything into one heterogeneous graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..data.trajectory import Trajectory, Visit, concat_history
from ..spatial import RegionQuadTree
from .hetero import HeteroGraph


@dataclass
class QRPGraph:
    """The assembled graph plus the index maps the model needs.

    ``tile_nodes``/``poi_nodes`` list local node indices in insertion
    order; ``tile_refs``/``poi_refs`` give the corresponding quad-tree
    node ids and POI ids (used to fetch initial embeddings from E_T and
    E_P, paper Eq. 7).
    """

    graph: HeteroGraph
    tile_nodes: List[int]
    tile_refs: List[int]
    poi_nodes: List[int]
    poi_refs: List[int]
    leaf_tile_refs: Set[int]

    @property
    def is_empty(self) -> bool:
        return self.graph.num_nodes == 0


def build_qrp_graph(
    tree: RegionQuadTree,
    road_adjacency: Set[Tuple[int, int]],
    history: Sequence[Trajectory],
) -> QRPGraph:
    """Construct the QR-P graph for a user's historical trajectories.

    An empty history yields an empty graph (the model falls back to
    sequence-only attention for cold-start users).
    """
    visits: List[Visit] = concat_history(list(history))
    graph = HeteroGraph()
    if not visits:
        return QRPGraph(graph, [], [], [], [], set())

    poi_ids = [v.poi_id for v in visits]
    leaf_ids = {tree.leaf_of_poi(p) for p in poi_ids}

    # Step 1: minimal sub-tree and its branch edges.
    subtree_nodes, branch_edges = tree.minimal_subtree(leaf_ids)
    for tile_ref in sorted(subtree_nodes):
        graph.add_node("tile", tile_ref)
    for parent, child in branch_edges:
        graph.add_edge(
            "branch", graph.index_of("tile", parent), graph.index_of("tile", child)
        )

    # Step 2: road edges between leaf tiles of the sub-tree.
    subtree_leaves = {n for n in subtree_nodes if tree.node(n).is_leaf}
    for a, b in road_adjacency:
        if a in subtree_leaves and b in subtree_leaves:
            graph.add_edge("road", graph.index_of("tile", a), graph.index_of("tile", b))

    # Step 3: POI nodes and contain edges.
    for poi in dict.fromkeys(poi_ids):  # unique, order-preserving
        poi_index = graph.add_node("poi", poi)
        leaf_index = graph.index_of("tile", tree.leaf_of_poi(poi))
        graph.add_edge("contain", leaf_index, poi_index)

    graph.validate()
    tile_nodes = graph.nodes_of_type("tile")
    poi_nodes = graph.nodes_of_type("poi")
    return QRPGraph(
        graph=graph,
        tile_nodes=tile_nodes,
        tile_refs=[graph.node_refs[i] for i in tile_nodes],
        poi_nodes=poi_nodes,
        poi_refs=[graph.node_refs[i] for i in poi_nodes],
        leaf_tile_refs=subtree_leaves,
    )


def update_qrp_graph(state, new_trajectory: Trajectory) -> QRPGraph:
    """Incremental counterpart of :func:`build_qrp_graph`.

    ``state`` is a :class:`~repro.graphs.incremental.QRPGraphState`
    (made by a :class:`~repro.graphs.incremental.QRPGraphMaintainer`);
    folding one newly completed session costs O(session) instead of
    O(history) and yields a graph identical to a full rebuild.  Defined
    in :mod:`repro.graphs.incremental`; re-exported here because it is
    this module's construction that it maintains.
    """
    from .incremental import update_qrp_graph as _update

    return _update(state, new_trajectory)


def strip_edges(qrp: QRPGraph, edge_type: str) -> QRPGraph:
    """Copy of the graph without one edge type (Table IV fine-grained
    ablations: "QR-P with no Road" / "QR-P with no Contain")."""
    graph = HeteroGraph()
    graph.node_types = list(qrp.graph.node_types)
    graph.node_refs = list(qrp.graph.node_refs)
    graph._index_of = dict(qrp.graph._index_of)
    for kind, pairs in qrp.graph.edges.items():
        graph.edges[kind] = [] if kind == edge_type else list(pairs)
    return QRPGraph(
        graph=graph,
        tile_nodes=list(qrp.tile_nodes),
        tile_refs=list(qrp.tile_refs),
        poi_nodes=list(qrp.poi_nodes),
        poi_refs=list(qrp.poi_refs),
        leaf_tile_refs=set(qrp.leaf_tile_refs),
    )
