"""ArcFace-style additive angular-margin losses (paper Eq. 8).

Both prediction steps use

    loss = -log( exp(s cos(theta_t + m)) /
                 (exp(s cos(theta_t + m)) + sum_{c != t} exp(s cos theta_c)) )

where theta_c is the angle between the fused output vector and
candidate c's embedding.  The margin m pushes the output toward the
target embedding while pushing other candidates away.  The loss is
computed for a whole batch at once; one sample is a batch of one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, l2_normalize, log_softmax, masked_fill

NEG_INF = -1e9


def arcface_loss_batch(
    outputs: Tensor,
    candidates: Tensor,
    target_positions: np.ndarray,
    scale: float = 16.0,
    margin: float = 0.2,
    valid: Optional[np.ndarray] = None,
) -> Tensor:
    """Eq. 8 for a whole batch at once; returns the ``(B,)`` loss vector.

    ``outputs`` is ``(B, dim)``; ``candidates`` is either a shared
    ``(C, dim)`` table (step one: every sample ranks the same leaf
    tiles) or a right-padded per-sample ``(B, C_max, dim)`` block (step
    two: candidate sets differ per sample).  ``target_positions[b]``
    indexes sample b's target row inside its candidate set and must
    point at a valid row.  ``valid`` is the boolean ``(B, C_max)``
    validity mask for the padded case; padded positions are filled
    with ``NEG_INF`` *after* scaling, so — exactly like padded
    attention keys — they contribute an exact zero to the softmax and
    receive no gradient.

    Each row's loss is that of the sample's batch of one up to
    floating-point accumulation order (BLAS kernels for different
    batch shapes group sums differently).  Eq. 8's total is
    ``beta * tile_loss + poi_loss``, weighted by the caller.
    """
    batch = outputs.shape[0]
    target_positions = np.asarray(target_positions, dtype=np.int64)
    normed_out = l2_normalize(outputs, axis=-1)
    normed_cand = l2_normalize(candidates, axis=-1)
    if candidates.ndim == 2:
        n = candidates.shape[0]
        cos = normed_out @ normed_cand.transpose()  # (B, C)
    else:
        n = candidates.shape[1]
        # batched mat-vec: (B, C_max, dim) @ (B, dim, 1) -> (B, C_max)
        cos = (normed_cand @ normed_out.reshape(batch, -1, 1)).reshape(batch, n)
    if not ((0 <= target_positions) & (target_positions < n)).all():
        raise IndexError("target_positions outside candidate set")
    cos = cos.clip(-1.0 + 1e-7, 1.0 - 1e-7)
    rows = np.arange(batch)
    target_cos = cos[rows, target_positions]  # (B,)
    sin_target = (1.0 - target_cos * target_cos).sqrt()
    margined = target_cos * float(np.cos(margin)) - sin_target * float(np.sin(margin))
    one_hot = np.zeros((batch, n))
    one_hot[rows, target_positions] = 1.0
    hot = Tensor(one_hot)
    logits = (cos * (1.0 - hot) + margined.reshape(batch, 1) * hot) * scale
    if valid is not None:
        logits = masked_fill(logits, ~np.asarray(valid, dtype=bool), NEG_INF)
    log_probs = log_softmax(logits, axis=-1)
    return -log_probs[rows, target_positions]
