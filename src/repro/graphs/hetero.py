"""Heterogeneous graph container.

Implements the typed-node / typed-edge structure of Definition II-B:
node types ``{POI, tile}`` and edge types ``{branch, road, contain}``.
Storage is adjacency-list per edge type, which is what the HGAT layer
(Eq. 6) consumes: for node i and edge type k it needs N_k(i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

NODE_TYPES = ("tile", "poi")
EDGE_TYPES = ("branch", "road", "contain")


@dataclass
class HeteroGraph:
    """Typed graph with local contiguous node indexing.

    ``node_types[i]`` is ``"tile"`` or ``"poi"``; ``node_refs[i]`` holds
    the external id (quad-tree node id for tiles, POI id for POIs).
    Edges are stored per type as directed pairs; message passing treats
    them as symmetric, so :meth:`add_edge` inserts both directions
    unless told otherwise.
    """

    node_types: List[str] = field(default_factory=list)
    node_refs: List[int] = field(default_factory=list)
    edges: Dict[str, List[Tuple[int, int]]] = field(
        default_factory=lambda: {t: [] for t in EDGE_TYPES}
    )
    _index_of: Dict[Tuple[str, int], int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_type: str, ref: int) -> int:
        """Add (or find) a node; returns its local index."""
        if node_type not in NODE_TYPES:
            raise ValueError(f"unknown node type {node_type!r}")
        key = (node_type, ref)
        if key in self._index_of:
            return self._index_of[key]
        index = len(self.node_types)
        self.node_types.append(node_type)
        self.node_refs.append(ref)
        self._index_of[key] = index
        return index

    def add_edge(self, edge_type: str, src: int, dst: int, symmetric: bool = True) -> None:
        if edge_type not in EDGE_TYPES:
            raise ValueError(f"unknown edge type {edge_type!r}")
        n = len(self.node_types)
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError("edge endpoint out of range")
        self.edges[edge_type].append((src, dst))
        if symmetric:
            self.edges[edge_type].append((dst, src))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_types)

    def num_edges(self, edge_type: Optional[str] = None) -> int:
        if edge_type is None:
            return sum(len(e) for e in self.edges.values())
        return len(self.edges[edge_type])

    def index_of(self, node_type: str, ref: int) -> Optional[int]:
        return self._index_of.get((node_type, ref))

    def nodes_of_type(self, node_type: str) -> List[int]:
        return [i for i, t in enumerate(self.node_types) if t == node_type]

    def neighbors(self, edge_type: str, node: int) -> List[int]:
        """N_k(i): neighbours of ``node`` along edges of one type."""
        return [dst for src, dst in self.edges[edge_type] if src == node]

    def adjacency_lists(self, edge_type: str) -> Dict[int, List[int]]:
        """dst-grouped adjacency for one edge type (HGAT's view)."""
        table: Dict[int, List[int]] = {}
        for src, dst in self.edges[edge_type]:
            table.setdefault(dst, []).append(src)
        return table

    def validate(self) -> None:
        """Check Definition II-B typing constraints; raises on violation."""
        for src, dst in self.edges["branch"]:
            if not (self.node_types[src] == "tile" and self.node_types[dst] == "tile"):
                raise ValueError("branch edges must connect tile-tile")
        for src, dst in self.edges["road"]:
            if not (self.node_types[src] == "tile" and self.node_types[dst] == "tile"):
                raise ValueError("road edges must connect tile-tile")
        for src, dst in self.edges["contain"]:
            types = {self.node_types[src], self.node_types[dst]}
            if types != {"tile", "poi"}:
                raise ValueError("contain edges must connect tile-poi")
