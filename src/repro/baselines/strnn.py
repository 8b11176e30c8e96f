"""STRNN baseline [Liu et al., AAAI 2016; ref 5].

Extends a vanilla RNN with spatial and temporal *transition matrices*:
the input projection interpolates between learned endpoint matrices
according to the time gap and spatial distance of consecutive visits —
the defining mechanism of STRNN.  The paper finds this model weak on
both dataset families, which the reproduction preserves (transition
matrices generalise poorly on sparse check-ins).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..data.trajectory import PredictionSample
from ..nn import Linear, Parameter
from ..nn import init as nn_init
from ..utils.rng import default_rng
from .base import NextPOIBaseline, SequenceEmbedder


class STRNN(NextPOIBaseline):
    name = "STRNN"

    def __init__(
        self,
        num_pois: int,
        locations: np.ndarray,
        dim: int = 64,
        max_gap_hours: float = 24.0,
        rng=None,
    ):
        super().__init__(num_pois, dim, rng=rng)
        rng = rng or default_rng()
        self.locations = np.asarray(locations, dtype=np.float64)  # unit square
        self.max_gap = max_gap_hours
        self.max_dist = float(np.sqrt(2.0))
        self.embedder = SequenceEmbedder(num_pois, dim, use_time=False, rng=rng)
        self.w_h = Parameter(nn_init.xavier_uniform((dim, dim), rng))
        # endpoint matrices for temporal / spatial interpolation
        self.w_t0 = Parameter(nn_init.xavier_uniform((dim, dim), rng))
        self.w_t1 = Parameter(nn_init.xavier_uniform((dim, dim), rng))
        self.w_d0 = Parameter(nn_init.xavier_uniform((dim, dim), rng))
        self.w_d1 = Parameter(nn_init.xavier_uniform((dim, dim), rng))
        self.head = Linear(dim, num_pois, rng=rng)

    def score(self, sample: PredictionSample) -> Tensor:
        visits = sample.prefix
        embedded = self.embedder(sample)
        hidden = Tensor(np.zeros(self.dim))
        prev = None
        for index, visit in enumerate(visits):
            if prev is None:
                t_frac, d_frac = 0.0, 0.0
            else:
                gap = min(visit.timestamp - prev.timestamp, self.max_gap) / self.max_gap
                dist = float(
                    np.linalg.norm(self.locations[visit.poi_id] - self.locations[prev.poi_id])
                )
                t_frac = gap
                d_frac = min(dist / self.max_dist, 1.0)
            w_t = self.w_t0 * (1.0 - t_frac) + self.w_t1 * t_frac
            w_d = self.w_d0 * (1.0 - d_frac) + self.w_d1 * d_frac
            x = embedded[index]
            hidden = (w_t @ x + w_d @ x + self.w_h @ hidden).tanh()
            prev = visit
        return self.head(hidden)
