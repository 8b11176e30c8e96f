"""Incremental QR-P graph maintenance: O(session) updates per rollover.

:func:`~repro.graphs.qrp.build_qrp_graph` reconstructs a user's whole
graph from the concatenated history — O(history) work on every session
rollover.  The delta at a rollover is one new trajectory (and, at the
``max_sessions`` bound, one evicted trajectory), so this module keeps
enough bookkeeping per user to apply exactly that delta:

* per-POI deques of occurrence positions ``(session_seq, visit_idx)``
  — the head of a deque is the POI's *first* visit, which is what
  fixes its node position (``build_qrp_graph`` adds POIs in
  first-visit order of the concatenated history);
* per-leaf visit counts — a leaf leaves the graph only when its last
  counted visit is evicted;
* the live :class:`~repro.graphs.qrp.QRPGraph` plus its attention
  edge arrays, rebuilt **only where the delta reaches**: appending a
  session that introduces no new leaf appends POI nodes and contain
  edges to the existing tile skeleton; structural changes
  (new/dropped leaves, reordered POIs) re-run the cheap canonical
  assembly over the maintained order.

The invariant — checked after every event by the differential fuzz
harness in ``tests/test_incremental_graphs.py`` — is that the
maintained graph is node-, edge-, and attention-identical to a
``build_qrp_graph`` rebuild of the same completed sessions
(:func:`graphs_equal`).  Anything the incremental path cannot prove it
handled (an eviction that is not the oldest accounted session) falls
back to an explicit, *counted* rebuild via :meth:`build_state` — the
store surfaces ``graph_rebuilds`` so a fallback storm is visible in
``/stats``, never silent.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Deque, Dict, List, Sequence, Set, Tuple

import numpy as np

from ..data.trajectory import Trajectory
from .hetero import EDGE_TYPES, HeteroGraph
from .qrp import QRPGraph


def attention_edges(qrp: QRPGraph) -> Dict[str, np.ndarray]:
    """Per-edge-type ``(2, E)`` int64 ``[dst; src]`` attention edges.

    Column ``(i, j)`` of ``edges[k]`` means node i attends to its
    k-neighbour j — the contract of
    :meth:`repro.core.hgat.HGATLayer.forward`;
    ``HGATEncoder.build_masks`` delegates here.  Duplicate pairs
    collapse (attention is defined over the edge *set*) and columns
    sort by ``(dst, src)``, so every destination's in-edges form one
    contiguous run — the layout the segment softmax/sum need — and
    equal edge sets give identical arrays whatever order the pairs
    were added in.
    """
    n = qrp.graph.num_nodes
    lists = [qrp.graph.edges[kind] for kind in EDGE_TYPES]
    counts = [len(pairs) for pairs in lists]
    total = sum(counts)
    if not total:
        return {kind: np.zeros((2, 0), dtype=np.int64) for kind in EDGE_TYPES}
    # One (kind, dst, src) mixed-radix key per pair: a single sort
    # orders and a single comparison deduplicates all three types.
    # This runs on every graph build and incremental reassembly, so it
    # stays a handful of whole-array calls (per-type np.asarray +
    # np.unique costs several times more at QR-P sizes).
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(lists)), dtype=np.int64, count=2 * total
    )
    keys = np.repeat(np.arange(len(EDGE_TYPES), dtype=np.int64) * (n * n), counts)
    keys += flat[1::2] * n
    keys += flat[0::2]
    keys.sort()
    keep = np.ones(total, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    kind_of, node_pair = np.divmod(keys[keep], n * n)
    pairs = np.empty((2, len(node_pair)), dtype=np.int64)
    np.divmod(node_pair, n, out=(pairs[0], pairs[1]))
    bounds = np.searchsorted(kind_of, np.arange(len(EDGE_TYPES) + 1)).tolist()
    return {
        kind: pairs[:, bounds[i] : bounds[i + 1]] for i, kind in enumerate(EDGE_TYPES)
    }


def graphs_equal(a: QRPGraph, b: QRPGraph) -> bool:
    """Node-, edge-, and index-map identity of two QR-P graphs.

    Node order is canonical (sorted subtree tiles, then POIs in
    first-visit order), so node lists compare positionally.  Edge
    *list* order is not canonical — ``build_qrp_graph`` iterates sets
    for road edges — so per-type edges compare as multisets; the HGAT
    attention edges depend only on the edge *set*, so multiset-equal
    edges give identical arrays (asserted separately by the fuzz
    harness via :func:`attention_edges`).
    """
    return (
        a.graph.node_types == b.graph.node_types
        and a.graph.node_refs == b.graph.node_refs
        and all(
            sorted(a.graph.edges[kind]) == sorted(b.graph.edges[kind])
            for kind in EDGE_TYPES
        )
        and a.tile_nodes == b.tile_nodes
        and a.tile_refs == b.tile_refs
        and a.poi_nodes == b.poi_nodes
        and a.poi_refs == b.poi_refs
        and a.leaf_tile_refs == b.leaf_tile_refs
    )


def _empty_qrp() -> QRPGraph:
    return QRPGraph(HeteroGraph(), [], [], [], [], set())


class QRPGraphState:
    """One user's live incremental graph; owned by a store shard.

    All mutation goes through the :class:`QRPGraphMaintainer` that
    created it (``state.maintainer``) under the owning shard's lock.
    ``qrp``/``edges`` are replaced wholesale on change (copy-on-write),
    never mutated in place — snapshots and pushed cache entries stay
    immutable, the same contract completed :class:`Trajectory` objects
    follow.
    """

    __slots__ = (
        "maintainer",
        "next_seq",
        "evict_seq",
        "occurrences",
        "first",
        "order",
        "leaf_counts",
        "qrp",
        "edges",
    )

    def __init__(self, maintainer: "QRPGraphMaintainer"):
        self.maintainer = maintainer
        self.next_seq = 0  # sequence number of the next appended session
        self.evict_seq = 0  # sequence number of the next eviction (FIFO)
        self.occurrences: Dict[int, Deque[Tuple[int, int]]] = {}
        self.first: Dict[int, Tuple[int, int]] = {}
        self.order: List[int] = []  # POIs by first occurrence
        self.leaf_counts: Dict[int, int] = {}
        self.qrp: QRPGraph = _empty_qrp()
        self.edges: Dict[str, np.ndarray] = attention_edges(self.qrp)


class StaleEvictionError(RuntimeError):
    """The evicted trajectory is not the oldest accounted session.

    Raised before any externally visible mutation sticks; the caller's
    contract is to fall back to a counted :meth:`QRPGraphMaintainer.
    build_state` rebuild from the authoritative session deque.
    """


class QRPGraphMaintainer:
    """Applies session-level deltas to per-user QR-P graphs.

    One shared instance per tile system (see
    ``QuadTreeTileSystem.graph_maintainer``): the quad-tree and road
    adjacency are read-only, so every predictor and every user
    state can lean on the same precomputed ``road`` pair index and
    POI->leaf memo.  Mutable per-user state lives in
    :class:`QRPGraphState`, guarded by the store's shard locks.
    """

    def __init__(self, tree, road_adjacency: Set[Tuple[int, int]]):
        self.tree = tree
        self.road_adjacency = road_adjacency
        # Pairs indexed by their first element: reassembly touches each
        # undirected pair once (exactly as build_qrp_graph iterates the
        # set), instead of scanning all |roads| pairs per update.
        by_first: Dict[int, List[int]] = {}
        for a, b in road_adjacency:
            by_first.setdefault(a, []).append(b)
        self._road_by_first = by_first
        self._poi_leaf: Dict[int, int] = {}

    def _leaf_of(self, poi_id: int) -> int:
        leaf = self._poi_leaf.get(poi_id)
        if leaf is None:
            # benign if racy: leaf_of_poi is pure, duplicate writes agree
            leaf = self._poi_leaf[poi_id] = self.tree.leaf_of_poi(poi_id)
        return leaf

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def new_state(self) -> QRPGraphState:
        """Empty per-user state (no completed sessions yet)."""
        return QRPGraphState(self)

    def build_state(self, sessions: Sequence[Trajectory]) -> QRPGraphState:
        """Full (counted-fallback / first-materialisation) build.

        The canonical assembly over freshly accounted sessions — by
        construction identical to ``build_qrp_graph(tree, roads,
        sessions)``, which is what lets snapshot recovery restore
        graphs lazily from the session deque alone.
        """
        state = self.new_state()
        for trajectory in sessions:
            self._account_append(state, trajectory)
        self._reassemble(state)
        return state

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    def append_session(self, state: QRPGraphState, trajectory: Trajectory) -> QRPGraph:
        """Fold one newly completed session into the live graph."""
        new_pois, new_leaf = self._account_append(state, trajectory)
        if new_leaf:
            # the minimal subtree (and possibly its LCA root) moves
            self._reassemble(state)
        elif new_pois:
            self._extend_pois(state, new_pois)
        # else: repeat visits only — graph and edges are already exact
        return state.qrp

    def evict_session(self, state: QRPGraphState, trajectory: Trajectory) -> QRPGraph:
        """Un-account the oldest completed session (deque eviction).

        Raises :class:`StaleEvictionError` when ``trajectory`` is not
        the oldest accounted session — the caller falls back to a
        counted rebuild, so a bookkeeping bug degrades to O(history),
        never to a wrong graph.
        """
        seq = state.evict_seq
        removed = False
        order_dirty = False
        leaves_dirty = False
        for idx, visit in enumerate(trajectory.visits):
            poi = visit.poi_id
            occurrences = state.occurrences.get(poi)
            if not occurrences or occurrences[0] != (seq, idx):
                raise StaleEvictionError(
                    f"eviction of session seq {seq} does not match accounted "
                    f"occurrences for poi {poi}"
                )
            occurrences.popleft()
            if occurrences:
                state.first[poi] = occurrences[0]
                order_dirty = True  # first occurrence moved; order may shift
            else:
                del state.occurrences[poi]
                del state.first[poi]
                removed = True
            leaf = self._leaf_of(poi)
            count = state.leaf_counts[leaf] - 1
            if count:
                state.leaf_counts[leaf] = count
            else:
                del state.leaf_counts[leaf]
                leaves_dirty = True
        state.evict_seq = seq + 1
        if removed or leaves_dirty:
            state.order = sorted(state.occurrences, key=state.first.__getitem__)
            self._reassemble(state)
        elif order_dirty:
            # occurrence keys are unique, so sorting by first occurrence
            # reproduces first-visit order of the remaining history exactly
            order = sorted(state.occurrences, key=state.first.__getitem__)
            if order != state.order:
                state.order = order
                self._reassemble(state)
        return state.qrp

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _account_append(
        self, state: QRPGraphState, trajectory: Trajectory
    ) -> Tuple[List[int], bool]:
        seq = state.next_seq
        state.next_seq = seq + 1
        new_pois: List[int] = []
        new_leaf = False
        for idx, visit in enumerate(trajectory.visits):
            poi = visit.poi_id
            occurrences = state.occurrences.get(poi)
            if occurrences is None:
                occurrences = state.occurrences[poi] = deque()
                state.first[poi] = (seq, idx)
                state.order.append(poi)
                new_pois.append(poi)
            occurrences.append((seq, idx))
            leaf = self._leaf_of(poi)
            count = state.leaf_counts.get(leaf, 0)
            if count == 0:
                new_leaf = True
            state.leaf_counts[leaf] = count + 1
        return new_pois, new_leaf

    def _extend_pois(self, state: QRPGraphState, new_pois: List[int]) -> None:
        """Append POI nodes to a structurally unchanged tile skeleton.

        The tile nodes, their branch and road edges and the existing
        POIs keep their indices; only new POI nodes and their contain
        edges are appended, with no subtree or road re-derivation.
        """
        old = state.qrp
        graph = HeteroGraph()
        graph.node_types = list(old.graph.node_types)
        graph.node_refs = list(old.graph.node_refs)
        graph._index_of = dict(old.graph._index_of)
        graph.edges = {kind: list(pairs) for kind, pairs in old.graph.edges.items()}
        poi_nodes = list(old.poi_nodes)
        poi_refs = list(old.poi_refs)
        for poi in new_pois:
            poi_index = graph.add_node("poi", poi)
            leaf_index = graph.index_of("tile", self._leaf_of(poi))
            graph.add_edge("contain", leaf_index, poi_index)
            poi_nodes.append(poi_index)
            poi_refs.append(poi)
        graph.validate()
        state.qrp = QRPGraph(
            graph=graph,
            tile_nodes=list(old.tile_nodes),
            tile_refs=list(old.tile_refs),
            poi_nodes=poi_nodes,
            poi_refs=poi_refs,
            leaf_tile_refs=set(old.leaf_tile_refs),
        )
        state.edges = attention_edges(state.qrp)

    def _reassemble(self, state: QRPGraphState) -> None:
        """Canonical assembly from the maintained order and leaf set.

        Mirrors ``build_qrp_graph`` step for step (sorted subtree
        tiles, branch edges, road edges over the leaf set, POIs in
        first-visit order) — but from O(unique) maintained indices, not
        the O(history) concatenated visit list.
        """
        if not state.order:
            state.qrp = _empty_qrp()
            state.edges = attention_edges(state.qrp)
            return
        leaf_set = set(state.leaf_counts)
        subtree_nodes, branch_edges = self.tree.minimal_subtree(leaf_set)
        graph = HeteroGraph()
        for tile_ref in sorted(subtree_nodes):
            graph.add_node("tile", tile_ref)
        for parent, child in branch_edges:
            graph.add_edge(
                "branch", graph.index_of("tile", parent), graph.index_of("tile", child)
            )
        for a in leaf_set:
            for b in self._road_by_first.get(a, ()):
                if b in leaf_set:
                    graph.add_edge(
                        "road", graph.index_of("tile", a), graph.index_of("tile", b)
                    )
        for poi in state.order:
            poi_index = graph.add_node("poi", poi)
            leaf_index = graph.index_of("tile", self._leaf_of(poi))
            graph.add_edge("contain", leaf_index, poi_index)
        graph.validate()
        tile_nodes = graph.nodes_of_type("tile")
        poi_nodes = graph.nodes_of_type("poi")
        state.qrp = QRPGraph(
            graph=graph,
            tile_nodes=tile_nodes,
            tile_refs=[graph.node_refs[i] for i in tile_nodes],
            poi_nodes=poi_nodes,
            poi_refs=[graph.node_refs[i] for i in poi_nodes],
            leaf_tile_refs=leaf_set,
        )
        state.edges = attention_edges(state.qrp)


def update_qrp_graph(state: QRPGraphState, new_trajectory: Trajectory) -> QRPGraph:
    """Fold one newly completed session into a live graph state.

    The O(session) counterpart of rebuilding via
    :func:`~repro.graphs.qrp.build_qrp_graph`; the returned graph is
    identical (:func:`graphs_equal`) to a full rebuild of the same
    sessions.
    """
    return state.maintainer.append_session(state, new_trajectory)


def evict_qrp_graph(state: QRPGraphState, oldest_trajectory: Trajectory) -> QRPGraph:
    """Un-account the oldest session; see
    :meth:`QRPGraphMaintainer.evict_session`."""
    return state.maintainer.evict_session(state, oldest_trajectory)
