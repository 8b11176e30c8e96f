"""The unified inference contract every next-POI model implements.

Historically TSPN-RA and the ten baselines exposed two divergent
inference surfaces (``PredictionResult`` vs ``BaselineResult``) that
the evaluator papered over with ``hasattr`` probes.  This module
collapses them into one contract:

* one result type, :class:`PredictorResult` (tile fields optional for
  models without a tile-selection step);
* one protocol, :class:`PredictorProtocol` — batched ranking, ranked
  top-k, rank-of-target, plus the shared-state convention
  (``compute_embeddings``) that stateless models satisfy trivially by
  returning ``()``;
* one mixin, :class:`PredictorBase`, deriving ``predict`` and the
  convenience methods from ``predict_batch`` — every model has one
  inference implementation, and one sample is a batch of one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..data.trajectory import PredictionSample, Trajectory, Visit


def rank_of_target(
    ranking: Sequence[int], target: int, universe: Optional[int] = None
) -> int:
    """1-based rank of ``target`` in ``ranking`` (paper Eq. 1).

    When the target is absent, the rank is ``universe + 1`` — one past
    the total number of rankable items — so a miss can never count as a
    Recall@K/NDCG@K hit.  Restricted rankings (e.g. the two-step POI
    stage, which only ranks POIs inside the top-K tiles) MUST pass
    ``universe``: the historic ``len(ranking) + 1`` fallback silently
    turned a missed target into a top-K "hit" whenever the candidate
    set held fewer than K items.  Without ``universe`` the fallback is
    kept for full-vocabulary rankings, where both conventions agree.
    """
    for position, item in enumerate(ranking, start=1):
        if item == target:
            return position
    return (universe if universe is not None else len(ranking)) + 1


def target_poi_of(sample) -> int:
    """Ground-truth POI id, or ``-1`` for target-less serving samples."""
    return sample.target.poi_id if sample.target is not None else -1


@dataclass
class PredictorResult:
    """Output of one inference for any conforming model.

    ``ranked_tiles``/``target_tile`` are ``None`` for models without a
    tile-selection step (all baselines).  ``target_poi`` is ``-1`` for
    live serving requests carrying no ground truth.  ``num_pois`` is
    the size of the full POI universe: models whose ranking is
    restricted to a candidate subset (TSPN-RA's two-step path) set it
    so an absent target ranks ``num_pois + 1``, strictly beyond any K,
    instead of just past the (possibly tiny) candidate list.
    """

    ranked_pois: List[int]
    target_poi: int
    ranked_tiles: Optional[List[int]] = None
    target_tile: Optional[int] = None
    num_pois: Optional[int] = None

    @property
    def poi_rank(self) -> int:
        return rank_of_target(self.ranked_pois, self.target_poi, universe=self.num_pois)

    @property
    def tile_rank(self) -> int:
        if self.ranked_tiles is None or self.target_tile is None:
            raise ValueError("this model does not rank tiles")
        return rank_of_target(self.ranked_tiles, self.target_tile)

    def top_k(self, k: int) -> List[int]:
        return self.ranked_pois[:k]


@runtime_checkable
class PredictorProtocol(Protocol):
    """What the evaluator, harness and serving facade rely on."""

    def compute_embeddings(self) -> Tuple[Any, ...]:
        """Shared per-batch state, passed back into ``predict_batch``."""
        ...

    def weights_version(self) -> int:
        """Monotonic counter bumped on weight updates (cache token)."""
        ...

    def predict(self, sample, *shared, k: Optional[int] = None) -> PredictorResult:
        ...

    def predict_batch(
        self, samples, *shared, k: Optional[int] = None
    ) -> List[PredictorResult]:
        ...

    def top_k(self, sample, k: int, *shared) -> List[int]:
        ...

    def target_rank(self, sample, *shared) -> int:
        ...

    def set_graph_cache(self, cache) -> bool:
        ...


class PredictorBase:
    """Default implementations of the derived protocol methods.

    Subclasses implement ``predict_batch``; models with shared state override ``compute_embeddings`` (and, when
    they hold trainable weights outside :class:`repro.nn.Module`, the
    persistence hooks).
    """

    def compute_embeddings(self) -> Tuple[Any, ...]:
        return ()

    def weights_version(self) -> int:
        return 0

    def predict(self, sample, *shared, k: Optional[int] = None) -> PredictorResult:
        """One sample: a batch of one through :meth:`predict_batch`."""
        return self.predict_batch([sample], *shared, k=k)[0]

    def predict_batch(
        self, samples, *shared, k: Optional[int] = None
    ) -> List[PredictorResult]:
        """Batched inference, the model's one inference implementation.

        Padding must never reach a real row: each sample's result
        equals that of its batch of one.
        """
        raise NotImplementedError

    def loss_batch(self, samples, *shared):
        """Summed training loss for one mini-batch.

        The trainer's one loss call.  This default sums the model's
        ``loss_sample`` sequentially, so a model whose trunk does not
        vectorise still trains; models with a vectorised trunk override
        it with one padded forward pass (TSPN-RA's ``encode_batch``,
        the batched RNN trunks of the sequential baselines).  Overrides
        must return the *sum* (not mean) of the per-sample losses; the
        trainer applies the ``1/len(batch)`` scaling.
        """
        total = None
        for sample in samples:
            loss = self.loss_sample(sample, *shared)
            total = loss if total is None else total + loss
        if total is None:
            raise ValueError("loss_batch needs a non-empty batch")
        return total

    def top_k(self, sample, k: int, *shared) -> List[int]:
        return self.predict(sample, *shared).top_k(k)

    def target_rank(self, sample, *shared) -> int:
        return self.predict(sample, *shared).poi_rank

    def set_graph_cache(self, cache) -> bool:
        """Adopt an external per-user graph cache; most models have none."""
        return False

    def stream_graph_maintainer(self):
        """Incremental QR-P maintainer for stream pushes; most models
        have no graph stage, so the default opts out."""
        return None

    # ------------------------------------------------------------------
    # persistence hooks (checkpoint side-state beyond parameters)
    # ------------------------------------------------------------------
    def extra_state(self) -> Dict[str, np.ndarray]:
        return {}

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        if state:
            raise KeyError(f"unexpected extra state: {sorted(state)}")


# ----------------------------------------------------------------------
# wire format (the HTTP front-end's request/response JSON)
# ----------------------------------------------------------------------
def serve_history_key(user_id: int, history: Sequence[Trajectory]) -> Tuple:
    """Graph-cache key for a live (non-dataset) request.

    Keyed by history *content* so equal requests share one cached QR-P
    graph.  The ``"serve"`` namespace keeps these keys disjoint from
    dataset ``(user, trajectory-index)`` 2-tuples — without it a live
    request could alias a training-time cache entry and serve a stale
    graph.
    """
    digest = hash(tuple(v.poi_id for t in history for v in t.visits))
    return ("serve", user_id, digest)


def _visit_from_json(entry, position: int, num_pois: Optional[int], where: str) -> Visit:
    """One visit from either ``{"poi_id", "timestamp"}`` or a bare id.

    Bare ids get consecutive integer timestamps — convenient for hand-
    written curl payloads where only the visit order matters.
    """
    if isinstance(entry, dict):
        if "poi_id" not in entry:
            raise ValueError(f"{where}[{position}] is missing 'poi_id'")
        poi_id = entry["poi_id"]
        timestamp = entry.get("timestamp", float(position))
    else:
        poi_id, timestamp = entry, float(position)
    if isinstance(poi_id, bool) or not isinstance(poi_id, int):
        raise ValueError(f"{where}[{position}].poi_id must be an integer")
    if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
        raise ValueError(f"{where}[{position}].timestamp must be a number")
    if not abs(timestamp) <= sys.float_info.max:  # NaN, ±inf, ints past float range
        raise ValueError(f"{where}[{position}].timestamp must be finite")
    if poi_id < 0 or (num_pois is not None and poi_id >= num_pois):
        raise ValueError(
            f"{where}[{position}].poi_id {poi_id} outside the POI universe"
            + (f" [0, {num_pois})" if num_pois is not None else "")
        )
    return Visit(poi_id=int(poi_id), timestamp=float(timestamp))


def sample_from_json(payload: Dict, num_pois: Optional[int] = None) -> PredictionSample:
    """Build a :class:`PredictionSample` from a request body.

    Expected shape (``prefix`` required and non-empty, the rest
    optional)::

        {"user_id": 7,
         "prefix":  [{"poi_id": 3, "timestamp": 12.5}, 9],
         "history": [[{"poi_id": 1, "timestamp": 0.0}, 2], ...],
         "target":  {"poi_id": 4, "timestamp": 13.0}}

    Visits may be bare POI ids (timestamps default to their position).
    Validation failures raise ``ValueError`` with a field-level message
    — the front-end turns them into 400s *before* the sample can join a
    micro-batch and poison its batch-mates, and ``num_pois`` (when
    given) bounds every POI id so a bad request can never crash the
    batched encode with an out-of-range gather.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    user_id = payload.get("user_id", -1)
    if isinstance(user_id, bool) or not isinstance(user_id, int):
        raise ValueError("user_id must be an integer")
    raw_prefix = payload.get("prefix")
    if not isinstance(raw_prefix, list) or not raw_prefix:
        raise ValueError("prefix must be a non-empty list of visits")
    prefix = [
        _visit_from_json(entry, i, num_pois, "prefix") for i, entry in enumerate(raw_prefix)
    ]
    raw_history = payload.get("history", [])
    if not isinstance(raw_history, list):
        raise ValueError("history must be a list of trajectories")
    history: List[Trajectory] = []
    for t, raw_trajectory in enumerate(raw_history):
        if not isinstance(raw_trajectory, list) or not raw_trajectory:
            raise ValueError(f"history[{t}] must be a non-empty list of visits")
        visits = [
            _visit_from_json(entry, i, num_pois, f"history[{t}]")
            for i, entry in enumerate(raw_trajectory)
        ]
        history.append(Trajectory(user_id=user_id, visits=visits))
    target = None
    if payload.get("target") is not None:
        target = _visit_from_json(payload["target"], len(prefix), num_pois, "target")
    return PredictionSample(
        user_id=user_id,
        history=history,
        prefix=prefix,
        target=target,
        history_key=serve_history_key(user_id, history),
    )


def result_to_json(result: "PredictorResult", k: int = 10) -> Dict:
    """Response body for one :class:`PredictorResult`.

    Always carries the top-``k`` POIs and the universe size; rank and
    target fields appear only for requests that supplied a ground-truth
    target, tile fields only for models with a tile-selection step.
    """
    payload: Dict = {"top_pois": result.top_k(k), "num_pois": result.num_pois}
    if result.ranked_tiles is not None:
        payload["top_tiles"] = result.ranked_tiles[:k]
    if result.target_poi >= 0:
        payload["target_poi"] = result.target_poi
        payload["poi_rank"] = result.poi_rank
    return payload
