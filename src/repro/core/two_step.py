"""Two-step prediction: tile selection then POI ranking (paper Sec. V-B).

Step one ranks all leaf tiles by cosine similarity to the fused tile
vector h_out_tau; step two restricts POI candidates to the top-K tiles
and ranks them by cosine similarity to h_out_p.

Inference ranks a whole batch of fused output vectors against the
leaf/POI embedding tables with a single matmul and reads each sample's
ranking off its own score row (:func:`rank_tiles_batch`,
:func:`rank_pois_batch`).  Training selects one sample's top-K tiles
at a time (:func:`select_tiles`).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..serve.protocol import rank_of_target  # noqa: F401  (canonical home; re-exported)


def normalize_rows(candidates: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm — the candidate half of every cosine."""
    return candidates / (np.linalg.norm(candidates, axis=1, keepdims=True) + 1e-12)


def rank_by_cosine(output: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Indices of ``candidates`` rows sorted by descending cosine sim."""
    out_norm = output / (np.linalg.norm(output) + 1e-12)
    return np.argsort(-(normalize_rows(candidates) @ out_norm), kind="stable")


def select_tiles(
    tile_output: np.ndarray,
    leaf_embeddings: np.ndarray,
    leaf_ids: Sequence[int],
    k: int,
) -> List[int]:
    """Step one: the top-K leaf tiles R_T[1:K]."""
    order = rank_by_cosine(tile_output, leaf_embeddings)
    return [leaf_ids[i] for i in order[:k]]


def candidate_pois(tile_system, top_tiles: Sequence[int]) -> List[int]:
    """POIs located inside the top-K tiles (step-two candidate set)."""
    pois: List[int] = []
    for tile in top_tiles:
        pois.extend(tile_system.pois_in_leaf(tile))
    return pois


# ----------------------------------------------------------------------
# batched ranking (the inference path)
# ----------------------------------------------------------------------
def cosine_similarities_batch(outputs: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """cos(theta) between each output row and each candidate row.

    ``outputs``: ``(batch, dim)``; ``candidates``: ``(n, dim)``;
    returns ``(batch, n)`` — one matmul instead of a per-sample loop.
    """
    out_norm = outputs / (np.linalg.norm(outputs, axis=1, keepdims=True) + 1e-12)
    return out_norm @ normalize_rows(candidates).T


def rank_tiles_batch(
    tile_outputs: np.ndarray,
    leaf_embeddings: np.ndarray,
    leaf_ids: Sequence[int],
) -> List[List[int]]:
    """Step one for a batch: the full ranked tile list per sample."""
    scores = cosine_similarities_batch(tile_outputs, leaf_embeddings)
    orders = np.argsort(-scores, axis=1, kind="stable")
    # one fancy-index + tolist instead of a per-sample Python loop;
    # same ids in the same order
    leaf_array = np.asarray(leaf_ids, dtype=np.int64)
    return leaf_array[orders].tolist()


def rank_pois_batch(
    poi_outputs: np.ndarray,
    poi_embeddings: np.ndarray,
    candidate_lists: Sequence[Sequence[int]],
) -> List[List[int]]:
    """Step two for a batch of per-sample candidate sets.

    One ``(batch, num_pois)`` matmul scores every output against the
    full POI table; each sample's ranking is then its candidate list
    stably re-ordered by its score row: ``argsort(-scores[candidates],
    kind="stable")`` per row, because cosine scores are
    row-independent.
    """
    scores = cosine_similarities_batch(poi_outputs, poi_embeddings)
    lengths = [len(c) for c in candidate_lists]
    width = max(lengths, default=0)
    if width == 0:
        return [[] for _ in candidate_lists]
    # One batched stable argsort instead of a per-row call: rows are
    # padded with -inf scores, which sort strictly after every real
    # entry under the descending key, and stability keeps the relative
    # order of the real entries — so each trimmed row is exactly the
    # per-row ``argsort(-row[candidates], kind="stable")`` result.
    rows = len(candidate_lists)
    cand_matrix = np.zeros((rows, width), dtype=np.int64)
    for i, candidates in enumerate(candidate_lists):
        if lengths[i]:
            cand_matrix[i, : lengths[i]] = candidates
    padded_scores = np.take_along_axis(scores, cand_matrix, axis=1)
    pad = np.arange(width)[None, :] >= np.asarray(lengths, dtype=np.int64)[:, None]
    padded_scores[pad] = -np.inf
    orders = np.argsort(-padded_scores, axis=1, kind="stable")
    ranked = np.take_along_axis(cand_matrix, orders, axis=1)
    return [row[:n].tolist() for row, n in zip(ranked, lengths)]


