"""Evaluation loop: run a model over test samples and compute metrics.

Every model conforms to :class:`repro.serve.protocol.PredictorProtocol`,
so the loop is contract-driven: compute the shared state once
(``compute_embeddings()``, ``()`` for stateless models), feed the whole
sample set through the model's vectorised ``predict_batch`` (in
fixed-size chunks so padded batches stay small), and read ranks off
the unified result type.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..autograd import no_grad
from ..data.trajectory import PredictionSample
from .metrics import DEFAULT_KS, metric_table

# Chunk size for batched evaluation: bounds the (batch, seq, dim)
# padded tensors without giving up the batched encode's amortisation.
EVAL_BATCH_SIZE = 128


def _collect(model, samples: Sequence[PredictionSample], rank_attr: str) -> List[int]:
    """Shared loop: ``rank_attr`` per sample via the batched encode.

    Runs under ``no_grad``, where dropout is the identity, so the
    model's train/eval mode neither matters nor changes.
    """
    with no_grad():
        shared = model.compute_embeddings()
        ranks: List[int] = []
        for lo in range(0, len(samples), EVAL_BATCH_SIZE):
            batch = samples[lo : lo + EVAL_BATCH_SIZE]
            ranks.extend(
                getattr(result, rank_attr)
                for result in model.predict_batch(batch, *shared)
            )
        return ranks


def collect_ranks(model, samples: Sequence[PredictionSample]) -> List[int]:
    """Target POI rank for every sample."""
    return _collect(model, samples, "poi_rank")


def collect_tile_ranks(model, samples: Sequence[PredictionSample]) -> List[int]:
    """Target *tile* rank per sample (used by the Fig. 11 analysis)."""
    return _collect(model, samples, "tile_rank")


def evaluate(
    model,
    samples: Sequence[PredictionSample],
    ks: Iterable[int] = DEFAULT_KS,
) -> Dict[str, float]:
    """Metric table (Recall@K / NDCG@K / MRR) over a sample set."""
    return metric_table(collect_ranks(model, samples), ks=ks)
