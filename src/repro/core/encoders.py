"""Spatial and temporal encoders (paper Sec. IV-A, Fig. 7).

The spatial encoder Ms is the fixed sinusoidal position code of Eq. 4:
the first half of the embedding dimensions encode x, the second half
encode y.  Nearby locations get high-cosine-similarity codes (paper
Fig. 8).  It has no parameters and each POI's location is fixed, so
the model adds it as a gather from a per-POI code table.  The temporal
encoder Mt adds a learnable embedding of the half-hour-of-day slot
(48 slots).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, get_default_dtype
from ..data.checkin import HOURS_PER_DAY, SLOTS_PER_DAY
from ..nn import Embedding, Module
from ..utils.rng import default_rng


def time_slots(timestamps) -> np.ndarray:
    """Elementwise half-hour-of-day slot ids for any timestamp shape.

    The ids :class:`TemporalEncoder` looks up.  The vectorised form
    matches :func:`~repro.data.checkin.time_slot` exactly: ``t % 24``
    is non-negative, so ``astype(int64)`` (truncation) equals Python's
    ``int()`` on every element.
    """
    hours = np.asarray(timestamps, dtype=np.float64)
    slots = ((hours % HOURS_PER_DAY) * 2.0).astype(np.int64) % SLOTS_PER_DAY
    return slots


def spatial_encoding(
    locations: np.ndarray, dim: int, scale: float = 100.0, dtype=None
) -> np.ndarray:
    """Eq. 4 sinusoidal code for ``(..., 2)`` unit-square locations.

    ``scale`` stretches the unit square before encoding so the highest
    sinusoid frequency actually varies across a city block; without it
    sin(x) with x in [0, 1] is nearly linear and all codes collapse
    together (the paper feeds raw projected coordinates, which span a
    comparable numeric range).

    Any leading shape is accepted — ``(n, 2)`` per-sample sequences and
    ``(batch, length, 2)`` padded batches encode identically row by
    row; the output is ``locations.shape[:-1] + (dim,)``.

    ``dtype`` picks the output buffer dtype (default: the engine's
    default floating dtype); the sinusoids themselves are always
    evaluated in float64 and cast on assignment, so a float32 code is
    exactly the rounded float64 code.
    """
    if dim % 4 != 0:
        raise ValueError("dim must be divisible by 4")
    if dtype is None:
        dtype = get_default_dtype()
    locations = np.asarray(locations, dtype=np.float64)
    if locations.ndim == 1:
        locations = locations[None, :]
    lead = locations.shape[:-1]
    flat = locations.reshape(-1, 2)
    n = len(flat)
    out = np.zeros((n, dim), dtype=dtype)
    quarter = dim // 4
    xs = flat[:, 0] * scale
    ys = flat[:, 1] * scale
    i = np.arange(quarter)
    div = 10000.0 ** (2.0 * i / dim)  # (quarter,)
    out[:, 0:dim // 2:2] = np.sin(xs[:, None] / div)
    out[:, 1:dim // 2:2] = np.cos(xs[:, None] / div)
    out[:, dim // 2::2] = np.sin(ys[:, None] / div)
    out[:, dim // 2 + 1::2] = np.cos(ys[:, None] / div)
    return out.reshape(lead + (dim,))


class TemporalEncoder(Module):
    """Adds a learnable 48-slot time-of-day embedding: h = h_s + h_t.

    ``slot_ids`` are :func:`time_slots` of the visit timestamps, in any
    shape matching the embeddings' leading dimensions.
    """

    def __init__(self, dim: int, rng=None):
        super().__init__()
        self.slots = Embedding(SLOTS_PER_DAY, dim, rng=rng or default_rng())

    def forward(self, embeddings: Tensor, slot_ids: np.ndarray) -> Tensor:
        return embeddings + self.slots(slot_ids)
