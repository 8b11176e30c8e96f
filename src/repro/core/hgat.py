"""Heterogeneous graph attention (paper Sec. IV-C, Eq. 6).

Per edge type k the layer computes GAT-style attention

    A_k[i, j] = softmax_j( LeakyReLU( a_k [W_k h_i || W_k h_j] ) )

and node i's update sums attention-weighted messages over all edge
types:  h_i^{l+1} = sigma( sum_k sum_{j in N_k(i)} A_k[i,j] W_k h_j ).

Attention runs over each graph's edge list: every (i, j) edge of type
k is scored, :func:`~repro.autograd.segment_softmax` normalises over
each destination's in-edges and :func:`~repro.autograd.segment_sum`
scatters the weighted messages back onto the nodes.  Cost is linear in
nodes + edges.  A QR-P graph is a quad-tree skeleton plus road and
contain edges, so it has a few edges per node while long histories
(and packs of several graphs) reach hundreds of nodes: a dense masked
(n, n) formulation would spend nearly all of its work on non-edges.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..autograd import Tensor, segment_softmax, segment_sum
from ..graphs import EDGE_TYPES, QRPGraph, attention_edges
from ..nn import Linear, Module, ModuleList
from ..nn.module import Parameter
from ..nn import init as nn_init
from ..utils.rng import default_rng


class HGATLayer(Module):
    """One round of Eq. 6 aggregation."""

    def __init__(self, dim: int, rng=None):
        super().__init__()
        rng = rng or default_rng()
        self.dim = dim
        self.w = {k: Linear(dim, dim, bias=False, rng=rng) for k in EDGE_TYPES}
        # a_k split into destination/source halves (standard GAT trick:
        # a.[Wh_i || Wh_j] = a_dst.Wh_i + a_src.Wh_j).
        self.a_dst = {k: Parameter(nn_init.xavier_uniform((dim,), rng)) for k in EDGE_TYPES}
        self.a_src = {k: Parameter(nn_init.xavier_uniform((dim,), rng)) for k in EDGE_TYPES}

    def forward(self, h: Tensor, edges: Dict[str, np.ndarray]) -> Tensor:
        """``edges[k]`` is a ``(2, E)`` ``[dst; src]`` array sorted by dst.

        Node ``dst`` attends to its k-neighbour ``src`` (see
        :func:`repro.graphs.attention_edges`).  Nodes without k-neighbours
        receive no k-message; a layer over no edges at all is the
        identity.
        """
        n = h.shape[0]
        total = None
        for kind in EDGE_TYPES:
            dst, src = edges[kind]
            if not len(dst):
                continue
            wh = self.w[kind](h)  # (n, dim)
            scores = (
                (wh @ self.a_dst[kind])[dst] + (wh @ self.a_src[kind])[src]
            ).leaky_relu(0.2)  # (E,)
            attention = segment_softmax(scores, dst)
            messages = segment_sum(attention.reshape(-1, 1) * wh[src], dst, n)
            total = messages if total is None else total + messages
        if total is None:
            return h
        return total.tanh()


class HGATEncoder(Module):
    """The module M_G: n stacked HGAT layers over a QR-P graph."""

    def __init__(self, dim: int, num_layers: int = 2, rng=None):
        super().__init__()
        rng = rng or default_rng()
        self.layers = ModuleList([HGATLayer(dim, rng=rng) for _ in range(num_layers)])

    @staticmethod
    def build_masks(qrp: QRPGraph) -> Dict[str, np.ndarray]:
        """Per-edge-type attention edges of ``qrp``.

        Delegates to :func:`repro.graphs.attention_edges`, so the serve
        path, the incremental maintainer and the differential harness
        share one constructor.  The name predates the edge-list layer;
        the repository benchmark's traced run wraps it under this name.
        """
        return attention_edges(qrp)

    def forward(self, qrp: QRPGraph, h0: Tensor, edges: Dict[str, np.ndarray] = None) -> Tensor:
        """Run all rounds; ``h0`` rows follow the graph's local indexing.

        A pack of one graph (:meth:`forward_packed`).  ``edges`` may be
        passed in to reuse a cached :meth:`build_masks` result across
        epochs (the edges depend only on the graph, not on parameters).
        """
        if edges is None:
            edges = self.build_masks(qrp)
        return self.forward_packed([edges], h0, [qrp.graph.num_nodes])

    def forward_packed(
        self, edges_list: List[Dict[str, np.ndarray]], h0: Tensor, sizes: List[int]
    ) -> Tensor:
        """One pass over several graphs packed as a disjoint union.

        ``h0`` stacks the graphs' initial node embeddings (graph i's
        rows occupy ``[offsets[i], offsets[i+1])``); ``edges_list[i]``
        is graph i's :meth:`build_masks` result.  Offsetting each
        graph's edges by its first row and concatenating them keeps
        every edge inside its graph and the destinations sorted, so
        each row's value is that of running the graph alone (up to
        matmul rounding, which depends on the row count) — for
        training and inference alike.

        Callers must not pack edge-free graphs: alone, a graph without
        edges is the identity, while inside a pack with edges its rows
        receive no messages and come out as ``tanh(0) = 0``.
        ``TSPNRA._history_knowledge_batch`` filters such graphs
        (reachable via the ``drop_edge_type`` ablations) before packing.
        """
        if len(edges_list) != len(sizes):
            raise ValueError("edges_list and sizes disagree")
        offsets = np.cumsum([0] + list(sizes))
        n = int(offsets[-1])
        if h0.shape[0] != n:
            raise ValueError(f"h0 has {h0.shape[0]} rows, sizes sum to {n}")
        edges = {}
        for kind in EDGE_TYPES:
            parts = [graph_edges[kind] for graph_edges in edges_list]
            shift = np.repeat(offsets[:-1], [part.shape[1] for part in parts])
            edges[kind] = np.concatenate(parts, axis=1) + shift
        h = h0
        for layer in self.layers:
            h = layer(h, edges)
        return h
