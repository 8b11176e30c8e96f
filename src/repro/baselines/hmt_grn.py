"""HMT-GRN baseline [Lim et al., SIGIR 2022; ref 14].

Hierarchical Multi-Task Graph Recurrent Network: a recurrent trunk is
trained with multi-task heads that predict the next *cell* at several
fixed grid granularities alongside the next POI; inference runs a
Hierarchical Beam Search — coarse cells first, finer cells within the
beam, POIs restricted to the surviving cells.  The paper observes the
beam struggles to discriminate POIs when adapted to urban scale, which
the fixed-grid hierarchy reproduces.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..autograd import Tensor, cross_entropy, no_grad
from ..data.trajectory import PredictionSample
from ..geo import BoundingBox
from ..nn import GRU, Linear
from ..utils.rng import default_rng
from ..serve.protocol import target_poi_of
from .base import BaselineResult, NextPOIBaseline, SequenceEmbedder, last_hidden_batch


class HMTGRN(NextPOIBaseline):
    name = "HMT-GRN"

    def __init__(
        self,
        num_pois: int,
        locations: np.ndarray,
        dim: int = 64,
        coarse: int = 4,
        fine: int = 16,
        beam_width: int = 4,
        rng=None,
    ):
        super().__init__(num_pois, dim, rng=rng)
        rng = rng or default_rng()
        self.locations = np.asarray(locations, dtype=np.float64)  # unit square
        self.coarse = coarse
        self.fine = fine
        self.beam_width = beam_width
        self.embedder = SequenceEmbedder(num_pois, dim, rng=rng)
        self.rnn = GRU(dim, dim, rng=rng)
        self.poi_head = Linear(dim, num_pois, rng=rng)
        self.coarse_head = Linear(dim, coarse * coarse, rng=rng)
        self.fine_head = Linear(dim, fine * fine, rng=rng)
        self.coarse_of_poi = self._cells_of(coarse)
        self.fine_of_poi = self._cells_of(fine)
        # fine cells nested inside each coarse cell
        ratio = fine // coarse
        self.fine_in_coarse = {
            c: [
                (r0 * ratio + dr) * fine + (c0 * ratio + dc)
                for dr in range(ratio)
                for dc in range(ratio)
            ]
            for c in range(coarse * coarse)
            for r0, c0 in [divmod(c, coarse)]
        }

    def _cells_of(self, n: int) -> np.ndarray:
        cols = np.minimum((self.locations[:, 0] * n).astype(int), n - 1)
        rows = np.minimum((self.locations[:, 1] * n).astype(int), n - 1)
        return rows * n + cols

    def _trunk(self, sample: PredictionSample) -> Tensor:
        sequence = self.embedder(sample)
        _, hidden = self.rnn(sequence)
        return hidden

    def score(self, sample: PredictionSample) -> Tensor:
        return self.poi_head(self._trunk(sample))

    def loss_sample(self, sample: PredictionSample) -> Tensor:
        """Multi-task loss: POI + both grid granularities."""
        hidden = self._trunk(sample)
        target = sample.target.poi_id
        loss = cross_entropy(self.poi_head(hidden).reshape(1, -1), np.array([target]))
        loss = loss + cross_entropy(
            self.coarse_head(hidden).reshape(1, -1), np.array([self.coarse_of_poi[target]])
        )
        loss = loss + cross_entropy(
            self.fine_head(hidden).reshape(1, -1), np.array([self.fine_of_poi[target]])
        )
        return loss

    def loss_batch(self, samples: Sequence[PredictionSample], *shared) -> Tensor:
        """Summed multi-task loss via one differentiable padded unroll."""
        hidden = last_hidden_batch(self.embedder, self.rnn, samples)
        targets = np.asarray([s.target.poi_id for s in samples], dtype=np.int64)
        loss = cross_entropy(self.poi_head(hidden), targets, reduction="sum")
        loss = loss + cross_entropy(
            self.coarse_head(hidden), self.coarse_of_poi[targets], reduction="sum"
        )
        return loss + cross_entropy(
            self.fine_head(hidden), self.fine_of_poi[targets], reduction="sum"
        )

    def _beam_rank(
        self,
        poi_logits: np.ndarray,
        coarse_logits: np.ndarray,
        fine_logits: np.ndarray,
    ) -> List[int]:
        """The Hierarchical Beam Search ranking for one logit triple."""
        top_coarse = np.argsort(-coarse_logits, kind="stable")[: self.beam_width]
        fine_candidates: List[int] = []
        for cell in top_coarse:
            fine_candidates.extend(self.fine_in_coarse[int(cell)])
        fine_order = sorted(fine_candidates, key=lambda f: -fine_logits[f])
        kept_fine = set(fine_order[: self.beam_width * 4])
        in_beam = np.isin(self.fine_of_poi, list(kept_fine))
        # POIs in the beam first (by logit), then the rest (by logit):
        biased = poi_logits + np.where(in_beam, 1e6, 0.0)
        return [int(i) for i in np.argsort(-biased, kind="stable")]

    def predict_batch(
        self, samples: Sequence[PredictionSample], *shared, k=None
    ) -> List[BaselineResult]:
        """Hierarchical Beam Search: coarse -> fine -> POIs.

        The inherited ``score_batch`` ranking would drop the beam bias,
        so this override runs one padded GRU pass and three batched
        head matmuls, then runs the (cheap) beam on each logit row.
        """
        if not samples:
            return []
        with no_grad():
            hidden = last_hidden_batch(self.embedder, self.rnn, samples)
            poi_logits = self.poi_head(hidden).data
            coarse_logits = self.coarse_head(hidden).data
            fine_logits = self.fine_head(hidden).data
        return [
            BaselineResult(
                ranked_pois=self._beam_rank(poi_logits[i], coarse_logits[i], fine_logits[i]),
                target_poi=target_poi_of(sample),
                num_pois=self.num_pois,
            )
            for i, sample in enumerate(samples)
        ]
