"""Heterogeneous graphs and the QR-P graph construction."""

from .hetero import EDGE_TYPES, NODE_TYPES, HeteroGraph
from .incremental import (
    QRPGraphMaintainer,
    QRPGraphState,
    StaleEvictionError,
    attention_edges,
    evict_qrp_graph,
    graphs_equal,
    update_qrp_graph,
)
from .qrp import QRPGraph, build_qrp_graph, strip_edges

__all__ = [
    "EDGE_TYPES",
    "HeteroGraph",
    "NODE_TYPES",
    "QRPGraph",
    "QRPGraphMaintainer",
    "QRPGraphState",
    "StaleEvictionError",
    "attention_edges",
    "build_qrp_graph",
    "evict_qrp_graph",
    "graphs_equal",
    "strip_edges",
    "update_qrp_graph",
]
