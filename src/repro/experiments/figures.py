"""Runners for the paper's empirical figures (8, 10, 11, 12).

Figures 1-7 and 9 are architecture illustrations; they have no data
series to regenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import spatial_encoding
from ..core.two_step import candidate_pois, rank_of_target
from ..data.trajectory import PredictionSample
from ..eval.metrics import recall_at_k
from .harness import (
    PreparedData,
    make_predictor,
    prepare,
    run_one,
    tspnra_config,
)
from .profile import ExperimentProfile


# ----------------------------------------------------------------------
# Figure 8 — spatial-encoding cosine similarity
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    """Similarity fields around the paper's two anchor points."""

    anchors: List[Tuple[float, float]]
    grid: np.ndarray  # (G, 2) sample coordinates
    similarities: List[np.ndarray]  # one (G,) field per anchor
    distance_similarity_corr: List[float]  # should be strongly negative

    def peak_is_anchor(self) -> bool:
        """The most similar grid point should be the one nearest the anchor."""
        for anchor, sims in zip(self.anchors, self.similarities):
            nearest = np.argmin(((self.grid - anchor) ** 2).sum(axis=1))
            if np.argmax(sims) != nearest:
                return False
        return True


def run_fig8(
    dim: int = 512,
    scale: float = 100.0,
    resolution: int = 21,
    anchors: Sequence[Tuple[float, float]] = ((0.42, 0.38), (0.88, 0.76)),
) -> Fig8Result:
    """Cosine similarity between anchor encodings and a unit-square grid.

    Reproduces paper Fig. 8: proximity in space implies high cosine
    similarity of the Eq. 4 codes.
    """
    xs = np.linspace(0.0, 1.0, resolution)
    grid = np.array([(x, y) for y in xs for x in xs])
    grid_codes = spatial_encoding(grid, dim, scale=scale)
    grid_codes /= np.linalg.norm(grid_codes, axis=1, keepdims=True)
    similarities = []
    corrs = []
    for anchor in anchors:
        code = spatial_encoding(np.array([anchor]), dim, scale=scale)[0]
        code /= np.linalg.norm(code)
        sims = grid_codes @ code
        similarities.append(sims)
        distances = np.sqrt(((grid - anchor) ** 2).sum(axis=1))
        corrs.append(float(np.corrcoef(distances, sims)[0, 1]))
    return Fig8Result(
        anchors=list(anchors),
        grid=grid,
        similarities=similarities,
        distance_similarity_corr=corrs,
    )


# ----------------------------------------------------------------------
# Figure 10 — parameter tuning
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    value: float
    metrics: Dict[str, float]


def run_fig10(
    profile: ExperimentProfile,
    dataset_name: str = "nyc",
    k_values: Sequence[int] = (2, 5, 10, 20),
    dim_values: Sequence[int] = (16, 32, 64),
    lr_values: Sequence[float] = (2e-4, 2e-3, 2e-2),
    batch_values: Sequence[int] = (1, 8, 16),
) -> Dict[str, List[SweepPoint]]:
    """Parameter sensitivity sweeps (training-time K, d_m, lr, batch size).

    The paper's findings to reproduce: K below ~10 hurts (too few
    negatives for the POI step), d_m matters little, lr has an interior
    optimum, batch size is stable.
    """
    data = prepare(dataset_name, profile)
    sweeps: Dict[str, List[SweepPoint]] = {"K": [], "dim": [], "lr": [], "batch": []}

    for k in k_values:
        config = tspnra_config(profile, data.dataset, top_k=k)
        metrics, _ = run_one("TSPN-RA", data, profile, config=config)
        sweeps["K"].append(SweepPoint(value=float(k), metrics=metrics))

    for dim in dim_values:
        config = tspnra_config(profile, data.dataset, dim=dim)
        metrics, _ = run_one("TSPN-RA", data, profile, config=config)
        sweeps["dim"].append(SweepPoint(value=float(dim), metrics=metrics))

    from dataclasses import replace

    for lr in lr_values:
        metrics, _ = run_one("TSPN-RA", data, replace(profile, lr=lr))
        sweeps["lr"].append(SweepPoint(value=float(lr), metrics=metrics))

    for batch in batch_values:
        metrics, _ = run_one("TSPN-RA", data, replace(profile, batch_size=batch))
        sweeps["batch"].append(SweepPoint(value=float(batch), metrics=metrics))
    return sweeps


# ----------------------------------------------------------------------
# Figure 11 — interaction between the two steps
# ----------------------------------------------------------------------
@dataclass
class Fig11Point:
    """One inference-time K setting."""

    k: int
    tile_accuracy: float  # fraction of targets whose tile ranks <= K
    poi_recall5: float
    mean_candidates: float  # size of the step-two candidate set
    tile_selection_rate: float  # leaves / K    (difficulty of step one)
    poi_selection_rate: float  # candidates / 5 (difficulty of step two)


def run_fig11(
    profile: ExperimentProfile,
    dataset_name: str = "nyc",
    max_power: int = 9,
) -> List[Fig11Point]:
    """Sweep inference-time K in powers of two (paper samples 1..320).

    Expected shape: tile accuracy rises monotonically with K; POI
    Recall@5 peaks at moderate K then flattens/declines; candidate count
    grows ~exponentially; the two selection-rate curves cross near the
    Recall@5 peak.
    """
    data = prepare(dataset_name, profile)
    metrics, model = run_one("TSPN-RA", data, profile)
    test = data.splits.test
    if profile.eval_samples is not None:
        test = test[: profile.eval_samples]

    num_leaves = len(model.leaf_ids)
    ks = sorted({min(2 ** p, num_leaves) for p in range(max_power + 1)})
    points: List[Fig11Point] = []
    # Cache per-sample tile rankings once (shared embeddings computed a
    # single time by the serving facade); re-rank POIs per K below.
    predictor = make_predictor(model)
    per_sample = list(zip(test, predictor.predict_batch(test, k=num_leaves)))
    for k in ks:
        tile_hits, poi_ranks, candidate_counts = [], [], []
        for sample, full in per_sample:
            tile_hits.append(full.tile_rank <= k)
            top = full.ranked_tiles[:k]
            candidates = candidate_pois(model.tile_system, top)
            candidate_counts.append(len(candidates))
            # re-rank the cached full POI list restricted to candidates;
            # a target outside them ranks past the whole POI universe,
            # not just past the (possibly tiny) candidate list
            allowed = set(candidates)
            restricted = [p for p in full.ranked_pois if p in allowed]
            poi_ranks.append(
                rank_of_target(restricted, sample.target.poi_id, universe=model.num_pois)
            )
        mean_candidates = float(np.mean(candidate_counts))
        points.append(
            Fig11Point(
                k=k,
                tile_accuracy=float(np.mean(tile_hits)),
                poi_recall5=recall_at_k(poi_ranks, 5),
                mean_candidates=mean_candidates,
                tile_selection_rate=num_leaves / k,
                poi_selection_rate=mean_candidates / 5.0,
            )
        )
    return points


def fig11_crossover(points: List[Fig11Point]) -> Optional[int]:
    """K where the two selection-rate curves cross (paper Fig. 11c)."""
    for a, b in zip(points, points[1:]):
        if (a.tile_selection_rate - a.poi_selection_rate) >= 0 >= (
            b.tile_selection_rate - b.poi_selection_rate
        ):
            return b.k
    return None


# ----------------------------------------------------------------------
# Figure 12 — coastal case study
# ----------------------------------------------------------------------
@dataclass
class CaseStudyResult:
    """Top-50 recommendation geography for one coastal sample."""

    model_name: str
    coastal_fraction: float  # of the top-50 POIs in the coastal band
    mean_distance_to_target: float  # of the top-50, in map units
    target_in_top50: bool


def _coastal_sample(data: PreparedData, band_width: float) -> Optional[PredictionSample]:
    """A test sample whose target lies in the coastal band and whose
    prefix is mostly coastal (the paper's east-coast Florida user)."""
    land_use = data.dataset.city.land_use
    pois = data.dataset.city.pois
    best, best_score = None, -1.0
    for sample in data.splits.test:
        tx, ty = pois.location_of(sample.target.poi_id)
        if not land_use.coastal_band(tx, ty, band_width):
            continue
        prefix_coastal = np.mean(
            [
                land_use.coastal_band(*pois.location_of(v.poi_id), band_width)
                for v in sample.prefix
            ]
        )
        if prefix_coastal > best_score:
            best, best_score = sample, prefix_coastal
    return best


def run_fig12(
    profile: ExperimentProfile,
    dataset_name: str = "florida",
    top_n: int = 50,
) -> Tuple[List[CaseStudyResult], Dict[str, float]]:
    """Compare top-50 POI geography for four systems (paper Fig. 12):

    (a) TSPN-RA, (b) TSPN-RA with 20% imagery noise, (c) TSPN-RA
    without tile filtering, (d) the strongest baseline LSTPM.

    Expected shape: (a) concentrates recommendations on the coast;
    (b) and (c) scatter them inland; (d) follows POI density, not the
    coastal context.
    """
    data = prepare(dataset_name, profile)
    noisy_data = prepare(dataset_name, profile, noise_fraction=0.2)
    band_width = 0.06 * data.dataset.spec.bbox.width
    sample = _coastal_sample(data, band_width)
    if sample is None:
        raise RuntimeError("no coastal test sample found; increase dataset scale")

    systems = []
    metrics_full, model_full = run_one("TSPN-RA", data, profile)
    systems.append(("TSPN-RA", model_full))
    _, model_noisy = run_one("TSPN-RA", noisy_data, profile)
    systems.append(("TSPN-RA (noisy imagery)", model_noisy))
    config_flat = tspnra_config(profile, data.dataset, use_two_step=False)
    _, model_flat = run_one("TSPN-RA", data, profile, config=config_flat)
    systems.append(("TSPN-RA (no tile filter)", model_flat))
    _, lstpm = run_one("LSTPM", data, profile)
    systems.append(("LSTPM", lstpm))

    land_use = data.dataset.city.land_use
    pois = data.dataset.city.pois
    tx, ty = pois.location_of(sample.target.poi_id)
    results: List[CaseStudyResult] = []
    for name, model in systems:
        prediction = model.predict(sample)
        top = prediction.ranked_pois[:top_n]
        coords = np.array([pois.location_of(p) for p in top]) if top else np.zeros((0, 2))
        coastal = [land_use.coastal_band(x, y, band_width) for x, y in coords]
        distance = np.sqrt(((coords - [tx, ty]) ** 2).sum(axis=1)) if len(top) else np.array([0.0])
        results.append(
            CaseStudyResult(
                model_name=name,
                coastal_fraction=float(np.mean(coastal)) if coastal else 0.0,
                mean_distance_to_target=float(distance.mean()),
                target_in_top50=sample.target.poi_id in top,
            )
        )
    return results, metrics_full
