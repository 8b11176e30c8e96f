"""Ranking metrics: Recall@K, NDCG@K, MRR (paper Sec. VI-A).

All three are computed from the 1-based rank of the ground-truth item
in the generated list.  With a single relevant item per query, NDCG@K
reduces to ``1 / log2(rank + 1)`` when the item is ranked within K.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

DEFAULT_KS = (5, 10, 20)


def recall_at_k(ranks: Sequence[int], k: int) -> float:
    """Hit rate: fraction of queries whose target rank is <= k."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float((ranks <= k).mean())


def ndcg_at_k(ranks: Sequence[int], k: int) -> float:
    """Single-relevant-item NDCG."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def mrr(ranks: Sequence[int]) -> float:
    """Mean reciprocal rank."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    return float((1.0 / ranks).mean())


def metric_table(ranks: Sequence[int], ks: Iterable[int] = DEFAULT_KS) -> Dict[str, float]:
    """The full metric row used by every results table."""
    table: Dict[str, float] = {}
    for k in ks:
        table[f"Recall@{k}"] = recall_at_k(ranks, k)
    for k in ks:
        table[f"NDCG@{k}"] = ndcg_at_k(ranks, k)
    table["MRR"] = mrr(ranks)
    return table
