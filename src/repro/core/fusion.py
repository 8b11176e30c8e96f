"""Attention-based embedding fusion, modules MP1 / MP2 (paper Sec. V-A).

Each of the N blocks applies:

1. masked sequential self-attention (inverted-triangle mask),
2. add & layer-normalise (ResNet shortcut),
3. cross attention: query = current sequence, key/value = historical
   graph knowledge (H_T◁ or H_P◁),
4. position-wise feed-forward with ReLU.

The output vector is the last real position of the final sequence.
Every block but the last runs over the whole padded sequence; the last
runs on each sample's output row alone, as its only query, attending
to the full sequence under a key-padding mask.  Under the causal mask
that row sees exactly the positions up to itself, so it equals the
row an all-positions final block would produce, without computing the
rows the output discards.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, gather_at, where
from ..nn import (
    Dropout,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
)
from ..utils.rng import default_rng


class AttentionBlock(Module):
    """One fusion block AB_i(., .)."""

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.1, rng=None):
        super().__init__()
        rng = rng or default_rng()
        self.self_attention = MultiHeadAttention(dim, num_heads, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.cross_attention = MultiHeadAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.feed_forward = Linear(dim, dim, rng=rng)
        self.norm3 = LayerNorm(dim)
        self.drop = Dropout(dropout)

    def forward(
        self,
        query: Tensor,
        sequence: Tensor,
        mask: np.ndarray,
        history: Optional[Tensor],
        cross_mask: Optional[np.ndarray],
        has_history: Optional[np.ndarray],
        rows=None,
    ) -> Tensor:
        """The block body over a padded batch; every mask arrives pre-broadcast.

        ``sequence`` is the ``(B, L, dim)`` key/value sequence of the
        self-attention and ``query`` is ``(B, L_q, dim)``: the sequence
        itself, under the causal ``(1, 1, L, L)`` ``mask``, or each
        sample's output row (``L_q = 1``), under a ``(B, 1, 1, L)``
        key-padding ``mask`` that blocks the positions after it.  The
        attention, feed-forward and LayerNorms run on the query rows
        only; the result has the query's shape.  ``history`` is
        ``(B, H, dim)`` right-padded graph knowledge, or None when no
        sample in the batch has any; ``cross_mask`` is ``(B, 1, 1, H)``
        (True at padded knowledge rows) and ``has_history`` is
        ``(B, 1, 1)``.  ``rows`` is the dropout draw for a query that
        is some rows of ``sequence`` (see :meth:`Dropout.forward`).  No
        batch-dependent array is *derived* in here — they are all
        explicit arguments — so a captured plan links each one back to
        a feed.  A real query never attends to a padded key, and a
        sample whose history is entirely padding keeps its
        pre-cross-attention query.
        """
        attended = self.self_attention(query, sequence, sequence, mask)
        query = self.norm1(query + self.drop(attended, rows))
        if history is not None:
            crossed = self.cross_attention(query, history, history, cross_mask)
            updated = self.norm2(query + self.drop(crossed, rows))
            query = where(has_history, updated, query)
        forwarded = self.feed_forward(query).relu()
        return self.norm3(query + self.drop(forwarded, rows))


class FusionModule(Module):
    """MP1 (tiles) / MP2 (POIs): N blocks, returns the last position."""

    def __init__(
        self, dim: int, num_heads: int = 4, num_layers: int = 2, dropout: float = 0.1, rng=None
    ):
        super().__init__()
        rng = rng or default_rng()
        self.blocks = ModuleList(
            [AttentionBlock(dim, num_heads, dropout=dropout, rng=rng) for _ in range(num_layers)]
        )

    def forward_batch(
        self,
        sequence: Tensor,
        positions: np.ndarray,
        causal: np.ndarray,
        prefix_mask: np.ndarray,
        history: Optional[Tensor] = None,
        cross_mask: Optional[np.ndarray] = None,
        has_history: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Padded-batch fusion: ``(B, L, dim)`` -> ``(B, dim)``.

        Row b of the output is position ``positions[b]`` (the sample's
        last real position) of the final sequence: h_out, the vector
        used for candidate ranking.  Every block but the last runs over
        all ``L`` positions under ``causal`` (``(1, 1, L, L)``); the
        last runs on row ``positions[b]`` alone, attending to the whole
        sequence under ``prefix_mask`` (``(B, 1, 1, L)``, True after
        ``positions[b]``).  ``history``, ``cross_mask`` and
        ``has_history`` are the pre-broadcast arguments of
        :meth:`AttentionBlock.forward`.  The caller builds every mask
        once for all blocks, so the stage is a pure function of its
        array arguments (what plan capture needs).  Fully
        differentiable: under gradient tracking the row gather scatters
        upstream gradients back to each sample's last real position,
        so the training loss flows through here.
        """
        *inner, final = self.blocks
        for block in inner:
            sequence = block(sequence, sequence, causal, history, cross_mask, has_history)
        batch, _, dim = sequence.shape
        row = gather_at(sequence, positions).reshape(batch, 1, dim)
        # The final block's dropout masks are drawn at the full
        # (B, L, dim) shape and only the output rows kept, so the
        # generator advances, and the kept rows are masked, as when
        # every position ran through the block: the golden fixture stays
        # as it was.  Dropout draws only under gradient tracking, never
        # in a trace, so deriving this index here bakes nothing into a
        # plan.  Draw at the row shape once the fixture is regenerated
        # for explicit dropout generators (ROADMAP.md, determinism item).
        rows = (sequence.shape, (np.arange(batch)[:, None], positions[:, None]))
        out = final(row, sequence, prefix_mask, history, cross_mask, has_history, rows)
        return out.reshape(batch, dim)
