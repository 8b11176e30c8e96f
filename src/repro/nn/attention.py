"""Multi-head scaled dot-product attention.

Used by the TSPN-RA fusion modules: masked self-attention over the
check-in prefix and cross attention onto historical graph knowledge
(paper Sec. V-A).

Inputs are always batched, ``(batch, length, dim)``: prefixes are
right-padded to a common length and the padding masked (the
MobTCast-style padded-batch formulation).  One sample is a batch of
one.  :func:`causal_mask` and :func:`key_padding_mask` build the two
masks; every op is differentiable, so gradients flow around (never
through) the masked positions.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor, masked_fill, softmax
from ..utils.rng import default_rng
from .layers import Linear
from .module import Module

NEG_INF = -1e9


def causal_mask(length: int) -> np.ndarray:
    """Boolean mask that is True at positions a query must not attend to.

    Implements the paper's "inverted triangle" mask M_mask: position u
    may attend to positions v <= u only.
    """
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def key_padding_mask(lengths: Sequence[int], max_length: int) -> np.ndarray:
    """Boolean ``(batch, max_length)``; True at right-padded key slots.

    Row ``b`` is True from ``lengths[b]`` onward, so padded keys are
    blocked for every query of sample ``b``.
    """
    positions = np.arange(max_length)
    return positions[None, :] >= np.asarray(lengths, dtype=np.int64)[:, None]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads.

    ``query`` is ``(B, L_q, dim)``; ``key``/``value`` are
    ``(B, L_k, dim)``.  A fully masked row yields a uniform
    distribution over blocked positions — callers discard those rows
    (padded queries) or select away the output (absent history).
    """

    def __init__(self, dim: int, num_heads: int = 4, rng=None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, rng=rng)
        self.w_k = Linear(dim, dim, rng=rng)
        self.w_v = Linear(dim, dim, rng=rng)
        self.w_o = Linear(dim, dim, rng=rng)

    def _split_batch(self, x: Tensor, batch: int, length: int) -> Tensor:
        # (B, L, dim) -> (B, heads, L, head_dim)
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Attention with a pre-broadcast 4-D boolean ``mask`` (True = blocked).

        ``mask`` must broadcast to ``(B, heads, L_q, L_k)`` — e.g.
        ``causal_mask(L)[None, None]`` or a key-padding mask as
        ``(B, 1, 1, L_k)``.  All mask shaping happens in the caller, so
        a captured plan links the mask straight back to its feed
        instead of baking a batch-specific broadcast.
        """
        batch, l_q = query.shape[0], query.shape[1]
        l_k = key.shape[1]
        q = self._split_batch(self.w_q(query), batch, l_q)
        k = self._split_batch(self.w_k(key), batch, l_k)
        v = self._split_batch(self.w_v(value), batch, l_k)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            scores = masked_fill(scores, mask, NEG_INF)
        weights = softmax(scores, axis=-1)
        attended = weights @ v  # (B, heads, L_q, head_dim)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, l_q, self.dim)
        return self.w_o(merged)
