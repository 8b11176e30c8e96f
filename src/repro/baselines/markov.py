"""MC: first-order Markov chain baseline [refs 1, 2 in the paper].

Predicts the next POI from a stationary transition matrix estimated by
counting consecutive visits in the training trajectories, backing off
to global popularity for unseen source POIs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.trajectory import PredictionSample
from ..serve.protocol import PredictorBase, PredictorResult, target_poi_of


class MarkovChain(PredictorBase):
    """Count-based model; no gradients."""

    name = "MC"
    requires_gradient_training = False

    def __init__(self, num_pois: int, smoothing: float = 0.1):
        self.num_pois = num_pois
        self.smoothing = smoothing
        self.transitions = np.zeros((num_pois, num_pois), dtype=np.float64)
        self.popularity = np.zeros(num_pois, dtype=np.float64)
        self._fitted = False
        self._version = 0

    def fit(self, samples: Sequence[PredictionSample]) -> "MarkovChain":
        """Count transitions along every (prefix, target) chain."""
        for sample in samples:
            chain = sample.prefix_poi_ids + [sample.target.poi_id]
            for src, dst in zip(chain, chain[1:]):
                self.transitions[src, dst] += 1.0
            for poi in chain:
                self.popularity[poi] += 1.0
        self._fitted = True
        self._version += 1
        return self

    def scores_batch(self, last_poi_ids: Sequence[int]) -> np.ndarray:
        """Score rows for a batch of current POIs: ``(batch, num_pois)``.

        One gather over the transition matrix; unseen source POIs (an
        all-zero count row) back off to global popularity, seen ones
        get the normalised row plus smoothed popularity.
        """
        if not self._fitted:
            raise RuntimeError("MarkovChain.fit() must run before prediction")
        rows = self.transitions[np.asarray(last_poi_ids, dtype=np.int64)]
        row_sums = rows.sum(axis=1, keepdims=True)
        pop = self.popularity / max(self.popularity.sum(), 1.0)
        return np.where(
            row_sums == 0,
            pop[None, :],
            rows / np.where(row_sums == 0, 1.0, row_sums) + self.smoothing * pop[None, :],
        )

    def scores(self, sample: PredictionSample) -> np.ndarray:
        return self.scores_batch([sample.prefix[-1].poi_id])[0]

    def predict_batch(
        self, samples: Sequence[PredictionSample], *shared, k: Optional[int] = None
    ) -> List[PredictorResult]:
        """Vectorised: one row gather + one batched argsort."""
        if not samples:
            return []
        scored = self.scores_batch([s.prefix[-1].poi_id for s in samples])
        orders = np.argsort(-scored, axis=1, kind="stable")
        return [
            PredictorResult(
                ranked_pois=[int(i) for i in order],
                target_poi=target_poi_of(sample),
                num_pois=self.num_pois,
            )
            for order, sample in zip(orders, samples)
        ]

    # interface parity with Module-based baselines
    def eval(self):
        return self

    def train(self, mode: bool = True):
        return self

    def num_parameters(self) -> int:
        return 0

    def weights_version(self) -> int:
        return self._version

    # ------------------------------------------------------------------
    # persistence (the count tables ARE the weights)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            "transitions": self.transitions.copy(),
            "popularity": self.popularity.copy(),
            "fitted": np.array([1.0 if self._fitted else 0.0]),
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.transitions = np.asarray(state["transitions"], dtype=np.float64).copy()
        self.popularity = np.asarray(state["popularity"], dtype=np.float64).copy()
        self._fitted = bool(np.asarray(state["fitted"]).ravel()[0] > 0)
        self._version += 1
