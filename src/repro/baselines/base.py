"""Shared machinery for the ten baseline models (paper Sec. VI-A).

Every baseline is a faithful-in-mechanism, scaled-to-substrate
re-implementation: it keeps the architectural component the paper
credits (or blames) for the original model's behaviour, on top of the
same autograd engine TSPN-RA uses, so efficiency and effectiveness
comparisons are apples-to-apples.

All baselines conform to the serve-wide
:class:`~repro.serve.protocol.PredictorProtocol`:

* ``score(sample) -> Tensor``: logits over the full POI vocabulary;
* ``score_batch(samples) -> ndarray``: ``(batch, num_pois)`` logits —
  the default loops ``score``; sequential baselines with a batchable
  trunk override it on top of ``SequenceEmbedder.forward_batch``;
* ``loss_sample(sample)``: cross-entropy against the true next POI;
* ``loss_batch(samples)``: *summed* cross-entropy over one mini-batch,
  the trainer's one loss call — the default (inherited from
  ``PredictorBase``) sums ``loss_sample``; baselines with a batchable
  trunk (GRU, HMT-GRN) override it with one padded differentiable
  pass;
* ``predict_batch(samples, *shared)``: full ranked POI lists, the one
  inference implementation (``predict(sample)`` is a batch of one;
  shared state is empty for baselines and ignored).

Count-based models (MC) implement ``fit(samples)`` instead of
gradient training; the experiment harness dispatches on
``requires_gradient_training``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, cross_entropy, gather_last, no_grad
from ..data.trajectory import PredictionSample
from ..nn import Embedding, Module
from ..serve.protocol import PredictorBase, PredictorResult, target_poi_of
from ..utils.rng import default_rng

# The historic baseline-only result type is now the serve-wide one.
BaselineResult = PredictorResult


class NextPOIBaseline(Module, PredictorBase):
    """Base class for gradient-trained baselines."""

    name = "baseline"
    requires_gradient_training = True

    def __init__(self, num_pois: int, dim: int, rng=None):
        super().__init__()
        self.num_pois = num_pois
        self.dim = dim
        self._rng = rng or default_rng()

    # Subclasses implement score(); everything else is shared.
    def score(self, sample: PredictionSample) -> Tensor:
        raise NotImplementedError

    def score_batch(self, samples: Sequence[PredictionSample]) -> np.ndarray:
        """Logits over the full vocabulary per sample: ``(batch, num_pois)``.

        The fallback stacks per-sample ``score`` calls; baselines whose
        trunk vectorises (GRU) override this with a true batched pass.
        Overrides must reproduce the per-sample logits row for row.
        """
        return np.stack([self.score(sample).data for sample in samples])

    def loss_sample(self, sample: PredictionSample) -> Tensor:
        logits = self.score(sample)
        return cross_entropy(logits.reshape(1, -1), np.array([sample.target.poi_id]))

    def predict_batch(
        self, samples: Sequence[PredictionSample], *shared, k: Optional[int] = None
    ) -> List[PredictorResult]:
        """One ``score_batch`` pass, one row-wise stable argsort."""
        if not samples:
            return []
        with no_grad():
            logits = self.score_batch(samples)
        orders = np.argsort(-logits, axis=1, kind="stable")
        return [
            PredictorResult(
                ranked_pois=[int(i) for i in order],
                target_poi=target_poi_of(sample),
                num_pois=self.num_pois,
            )
            for order, sample in zip(orders, samples)
        ]


class SequenceEmbedder(Module):
    """POI-id + time-slot embedding shared by the sequential baselines."""

    def __init__(self, num_pois: int, dim: int, use_time: bool = True, rng=None):
        super().__init__()
        from ..data.checkin import SLOTS_PER_DAY, time_slot

        rng = rng or default_rng()
        self._slot_fn = time_slot
        self.poi_table = Embedding(num_pois, dim, rng=rng)
        self.use_time = use_time
        if use_time:
            self.time_table = Embedding(SLOTS_PER_DAY, dim, rng=rng)

    def forward(self, sample_or_visits) -> Tensor:
        visits = (
            sample_or_visits.prefix
            if isinstance(sample_or_visits, PredictionSample)
            else sample_or_visits
        )
        ids = np.array([v.poi_id for v in visits], dtype=np.int64)
        out = self.poi_table(ids)
        if self.use_time:
            slots = np.array([self._slot_fn(v.timestamp) for v in visits], dtype=np.int64)
            out = out + self.time_table(slots)
        return out

    def forward_batch(
        self, samples: Sequence[PredictionSample]
    ) -> Tuple[Tensor, np.ndarray]:
        """Right-padded batch embedding: ``((batch, L_max, dim), lengths)``.

        Padded slots embed POI/slot 0; they sit past each sample's real
        length, so batched consumers that respect ``lengths`` (RNN
        last-state gather, causal attention) never read them.
        """
        lengths = np.asarray([len(s.prefix) for s in samples], dtype=np.int64)
        l_max = int(lengths.max())
        ids = np.zeros((len(samples), l_max), dtype=np.int64)
        slots = np.zeros((len(samples), l_max), dtype=np.int64)
        for i, sample in enumerate(samples):
            ids[i, : lengths[i]] = [v.poi_id for v in sample.prefix]
            if self.use_time:
                slots[i, : lengths[i]] = [
                    self._slot_fn(v.timestamp) for v in sample.prefix
                ]
        out = self.poi_table(ids)
        if self.use_time:
            out = out + self.time_table(slots)
        return out, lengths


def last_hidden_batch(
    embedder: SequenceEmbedder, rnn, samples: Sequence[PredictionSample]
) -> Tensor:
    """Batched RNN trunk: each sample's hidden state at its real last step.

    Runs one padded batch through ``rnn`` and gathers the output at
    ``lengths - 1`` per sample — exact because the RNN is causal:
    hidden states keep evolving through padded steps for shorter
    samples, but the gathered position was computed from real inputs
    only.  The gather (:func:`repro.autograd.gather_last`) stays on
    the autograd graph, so the same trunk serves inference
    (``score_batch``/``predict_batch`` run it under ``no_grad``) and
    the batched training loss (``loss_batch``); padded steps sit past
    the gathered position and therefore receive no gradient.
    """
    sequence, lengths = embedder.forward_batch(samples)
    if lengths.min() < 1:
        # per-sample scoring fails loudly on an empty prefix; a -1
        # gather here would silently rank from pad-token hidden states
        raise ValueError("last_hidden_batch needs non-empty prefixes")
    outputs, _ = rnn(sequence)  # (B, L_max, hidden)
    return gather_last(outputs, lengths)
