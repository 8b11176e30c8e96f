"""Property tests: the edge-list HGAT equals the dense masked Eq. 6.

The reference below is the dense formulation the edge-list layer
replaced: per edge type an (n, n) leaky-ReLU score matrix, a softmax
over rows with non-neighbours filled with -1e9, rows of nodes without
k-neighbours zeroed, messages summed over types, then tanh.  Small
heterogeneous graphs drawn by ``hypothesis`` (partial edge types,
isolated nodes, self-loops, duplicate directed edges, single-in-edge
destinations) must give the same rows to 1e-12, alone and inside a
pack at any offset.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, masked_fill, softmax
from repro.core.hgat import HGATEncoder
from repro.graphs import EDGE_TYPES, HeteroGraph, QRPGraph
from repro.utils import spawn

DIM = 4
TOL = 1e-12
ENCODER = HGATEncoder(DIM, num_layers=2, rng=spawn(31))


def dense_reference(encoder, h0, masks):
    """Dense Eq. 6; ``masks[k][i, j]`` is True when j is NOT a k-neighbour of i."""
    h = h0
    for layer in encoder.layers:
        n = h.shape[0]
        total = None
        for kind in EDGE_TYPES:
            mask = masks[kind]
            has_neighbors = (~mask).any(axis=1)
            if not has_neighbors.any():
                continue
            wh = layer.w[kind](h)
            scores = (
                (wh @ layer.a_dst[kind]).reshape(n, 1)
                + (wh @ layer.a_src[kind]).reshape(1, n)
            ).leaky_relu(0.2)
            attention = softmax(masked_fill(scores, mask, -1e9), axis=1)
            attention = attention * Tensor(has_neighbors[:, None].astype(np.float64))
            messages = attention @ wh
            total = messages if total is None else total + messages
        if total is not None:
            h = total.tanh()
    return h


def dense_masks(graphs):
    """Block-diagonal masks of graphs packed in order."""
    n = sum(size for size, _ in graphs)
    masks = {kind: np.ones((n, n), dtype=bool) for kind in EDGE_TYPES}
    offset = 0
    for size, pairs in graphs:
        for kind in EDGE_TYPES:
            for src, dst in pairs[kind]:
                masks[kind][offset + dst, offset + src] = False
        offset += size
    return masks


def as_qrp(size, pairs):
    """A QR-P graph wrapper around raw directed ``(src, dst)`` pairs."""
    graph = HeteroGraph()
    graph.node_types = ["tile"] * size
    graph.node_refs = list(range(size))
    graph.edges = {kind: list(pairs[kind]) for kind in EDGE_TYPES}
    return QRPGraph(graph, list(range(size)), list(range(size)), [], [], set())


@st.composite
def graphs(draw, with_edges=False):
    """``(num_nodes, {kind: [(src, dst), ...]})``; edges may repeat."""
    size = draw(st.integers(1, 8))
    node = st.integers(0, size - 1)
    pairs = {kind: draw(st.lists(st.tuples(node, node), max_size=2 * size)) for kind in EDGE_TYPES}
    if with_edges and not any(pairs.values()):
        pairs[draw(st.sampled_from(EDGE_TYPES))].append(draw(st.tuples(node, node)))
    return size, pairs


def features(seed, rows):
    return Tensor(np.random.default_rng(seed).normal(size=(rows, DIM)))


# every listed case in one graph: node 0 has branch in-edges only, node
# 1 road only, node 2 both, node 3 a self-loop, node 4 a duplicated
# single in-edge, node 5 is isolated
CRAFTED = (
    6,
    {
        "branch": [(1, 0), (2, 0), (0, 2)],
        "road": [(0, 1), (1, 2), (3, 3)],
        "contain": [(2, 4), (2, 4)],
    },
)


@settings(max_examples=80, deadline=None)
@given(graphs(), st.integers(0, 2**32 - 1))
@example(CRAFTED, 0)
@example((3, {kind: [] for kind in EDGE_TYPES}), 1)  # edge-free: the identity
def test_single_graph_matches_dense_reference(graph, seed):
    size, pairs = graph
    h0 = features(seed, size)
    out = ENCODER(as_qrp(size, pairs), h0).data
    want = dense_reference(ENCODER, h0, dense_masks([graph])).data
    np.testing.assert_allclose(out, want, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(st.lists(graphs(with_edges=True), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
@example([(1, {"branch": [], "road": [], "contain": [(0, 0)]}), CRAFTED], 0)
def test_pack_matches_dense_reference_and_graphs_alone(graph_list, seed):
    """Each graph's offset is the drawn size of the graphs before it.

    Edge-free graphs are excluded: callers filter them before packing.
    """
    sizes = [size for size, _ in graph_list]
    h0 = features(seed, sum(sizes))
    edges = [HGATEncoder.build_masks(as_qrp(size, pairs)) for size, pairs in graph_list]
    packed = ENCODER.forward_packed(edges, h0, sizes).data
    want = dense_reference(ENCODER, h0, dense_masks(graph_list)).data
    np.testing.assert_allclose(packed, want, rtol=0, atol=TOL)
    offset = 0
    for (size, pairs), graph_edges in zip(graph_list, edges):
        alone = ENCODER(as_qrp(size, pairs), h0[offset : offset + size], graph_edges).data
        np.testing.assert_allclose(packed[offset : offset + size], alone, rtol=0, atol=TOL)
        offset += size


def test_gradients_match_dense_reference():
    """Training runs the same kernel: parameter and input gradients agree."""
    size, pairs = CRAFTED
    grads = []
    for run in (
        lambda h0: ENCODER(as_qrp(size, pairs), h0),
        lambda h0: dense_reference(ENCODER, h0, dense_masks([CRAFTED])),
    ):
        ENCODER.zero_grad()
        h0 = Tensor(features(2, size).data, requires_grad=True)
        (run(h0) * Tensor(np.linspace(-1.0, 1.0, size * DIM).reshape(size, DIM))).sum().backward()
        grads.append([h0.grad] + [p.grad.copy() for _, p in ENCODER.named_parameters()])
    for edge_grad, dense_grad in zip(*grads):
        np.testing.assert_allclose(edge_grad, dense_grad, rtol=0, atol=TOL)
