"""Attention-based embedding fusion, modules MP1 / MP2 (paper Sec. V-A).

Each of the N blocks applies:

1. masked sequential self-attention (inverted-triangle mask),
2. add & layer-normalise (ResNet shortcut),
3. cross attention: query = current sequence, key/value = historical
   graph knowledge (H_T◁ or H_P◁),
4. position-wise feed-forward with ReLU.

The output vector is the last position of the final sequence.
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
        sequence: Tensor,
        causal: np.ndarray,
        history: Optional[Tensor],
        cross_mask: Optional[np.ndarray],
        has_history: Optional[np.ndarray],
    ) -> Tensor:
        """The block body over a padded batch; every mask arrives pre-broadcast.

        ``sequence`` is ``(B, L, dim)``; ``causal`` is ``(1, 1, L, L)``.
        ``history`` is ``(B, H, dim)`` right-padded graph knowledge, or
        None when no sample in the batch has any; ``cross_mask`` is
        ``(B, 1, 1, H)`` (True at padded knowledge rows) and
        ``has_history`` is ``(B, 1, 1)``.  No batch-dependent array is
        *derived* in here — they are all explicit arguments — so a
        captured plan links each one back to a feed.  A real query never
        attends to a padded key, and a sample whose history is entirely
        padding keeps its pre-cross-attention sequence.
        """
        attended = self.self_attention(sequence, sequence, sequence, causal)
        sequence = self.norm1(sequence + self.drop(attended))
        if history is not None:
            crossed = self.cross_attention(sequence, history, history, cross_mask)
            updated = self.norm2(sequence + self.drop(crossed))
            sequence = where(has_history, updated, sequence)
        forwarded = self.feed_forward(sequence).relu()
        return self.norm3(sequence + self.drop(forwarded))


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
        history: Optional[Tensor] = None,
        cross_mask: Optional[np.ndarray] = None,
        has_history: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Padded-batch fusion: ``(B, L, dim)`` -> ``(B, dim)``.

        Row b of the output is position ``positions[b]`` (the sample's
        last real position) of the final sequence: h_out, the vector
        used for candidate ranking.  ``causal``, ``history``,
        ``cross_mask`` and ``has_history`` are the pre-broadcast
        arguments of :meth:`AttentionBlock.forward`, built once for all
        blocks by the caller, so the stage is a pure function of its
        array arguments (what plan capture needs).  Fully
        differentiable: under gradient tracking the final gather
        scatters upstream gradients back to each sample's last real
        position, so the training loss flows through here.
        """
        out = sequence
        for block in self.blocks:
            out = block(out, causal, history, cross_mask, has_history)
        return gather_at(out, positions)
