"""Runners for the paper's result tables (I-V)."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core import TSPNRA, TSPNRAConfig
from ..core.tilesystem import GridTileSystem
from ..data import build_dataset, compute_stats
from ..data.stats import DatasetStats
from ..eval import EfficiencyReport, measure
from ..imagery import ImageryCatalog
from ..roadnet import tile_road_adjacency
from ..serve import Predictor
from ..spatial import GridIndex
from ..utils.rng import spawn
from .harness import (
    ALL_MODELS,
    PreparedData,
    build_model,
    eval_model,
    prepare,
    run_comparison,
    run_one,
    train_model,
    tspnra_config,
)
from .profile import ExperimentProfile
from .reporting import relative_drop

URBAN_DATASETS = ("tky", "nyc")
STATE_DATASETS = ("california", "florida")

ABLATION_NAMES = (
    "TSPN-RA",
    "Grid Replace Quad-tree",
    "No Two-step",
    "No Graph",
    "No Contain",
    "No Road",
    "No Imagery",
    "No S&T Encoder",
    "No POI Category",
)

EFFICIENCY_MODELS = (
    "TSPN-RA",
    "STAN",
    "HMT-GRN",
    "DeepMove",
    "LSTPM",
    "Graph-Flashback",
    "STiSAN",
)


# ----------------------------------------------------------------------
# Table I — dataset statistics
# ----------------------------------------------------------------------
def run_table1(profile: ExperimentProfile) -> List[DatasetStats]:
    """Statistics of the four synthetic presets (paper Table I analogue)."""
    stats = []
    for name in ("nyc", "tky", "california", "florida"):
        dataset = build_dataset(
            name,
            seed=profile.seed,
            scale=profile.dataset_scale,
            imagery_resolution=profile.imagery_resolution,
        )
        stats.append(compute_stats(dataset))
    return stats


# ----------------------------------------------------------------------
# Tables II and III — model comparison
# ----------------------------------------------------------------------
def run_table2(
    profile: ExperimentProfile, models: Sequence[str] = ALL_MODELS
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """TKY / NYC comparison across all models."""
    return {name: run_comparison(name, profile, models) for name in URBAN_DATASETS}


def run_table3(
    profile: ExperimentProfile, models: Sequence[str] = ALL_MODELS
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """California / Florida comparison across all models."""
    return {name: run_comparison(name, profile, models) for name in STATE_DATASETS}


# ----------------------------------------------------------------------
# Table IV — ablations
# ----------------------------------------------------------------------
def _grid_variant(data: PreparedData, profile: ExperimentProfile) -> TSPNRA:
    """TSPN-RA with the quad-tree swapped for a fixed grid.

    The grid resolution is chosen to give about as many cells as the
    quad-tree has leaves (the paper tried several granularities and
    reported the best; matching cell counts is the fair default).
    """
    dataset = data.dataset
    n = max(2, int(round(np.sqrt(len(dataset.quadtree.leaves())))))
    grid = GridIndex.build(dataset.spec.bbox, dataset.city.pois.xy, n)
    adjacency = tile_road_adjacency(grid, dataset.city.roads)
    imagery = ImageryCatalog(dataset.imagery.renderer).bind(grid)
    tile_system = GridTileSystem(grid, adjacency)
    config = tspnra_config(profile, dataset)
    pois = dataset.city.pois
    return TSPNRA(
        tile_system=tile_system,
        imagery=imagery,
        num_pois=len(pois),
        num_categories=pois.num_categories,
        categories=pois.categories,
        normalized_xy=data.locations,
        config=config,
        rng=spawn(profile.seed + 101),
    )


def ablation_variants(profile: ExperimentProfile, data: PreparedData) -> Dict[str, TSPNRAConfig]:
    """Config for each Table IV variant (grid handled separately)."""
    base = tspnra_config(profile, data.dataset)
    return {
        "TSPN-RA": base,
        "No Two-step": base.variant(use_two_step=False),
        "No Graph": base.variant(use_graph=False),
        "No Contain": base.variant(drop_edge_type="contain"),
        "No Road": base.variant(drop_edge_type="road"),
        "No Imagery": base.variant(use_imagery=False),
        "No S&T Encoder": base.variant(use_st_encoder=False),
        "No POI Category": base.variant(use_category=False),
    }


def run_table4(
    profile: ExperimentProfile,
    datasets: Sequence[str] = URBAN_DATASETS,
    columns: Sequence[str] = ("Recall@5", "NDCG@5", "MRR"),
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Ablation study; adds an ``impro@avg`` entry per variant."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset_name in datasets:
        data = prepare(dataset_name, profile)
        results: Dict[str, Dict[str, float]] = {}
        for variant, config in ablation_variants(profile, data).items():
            metrics, _ = run_one("TSPN-RA", data, profile, config=config)
            results[variant] = metrics
        grid_model = _grid_variant(data, profile)
        train_model(grid_model, data, profile)
        results["Grid Replace Quad-tree"] = eval_model(grid_model, data, profile)
        full = results["TSPN-RA"]
        for variant, metrics in results.items():
            if variant != "TSPN-RA":
                metrics["impro@avg"] = relative_drop(full, metrics, columns)
        out[dataset_name] = results
    return out


# ----------------------------------------------------------------------
# Table V — efficiency
# ----------------------------------------------------------------------
def run_table5(
    profile: ExperimentProfile,
    datasets: Sequence[str] = ("nyc", "tky"),
    models: Sequence[str] = EFFICIENCY_MODELS,
) -> Dict[str, List[EfficiencyReport]]:
    """Memory / train-time / infer-time comparison (paper Table V)."""
    out: Dict[str, List[EfficiencyReport]] = {}
    for dataset_name in datasets:
        data = prepare(dataset_name, profile)
        reports: List[EfficiencyReport] = []
        for model_name in models:
            model = build_model(model_name, data, profile)
            test = data.splits.test
            if profile.eval_samples is not None:
                test = test[: profile.eval_samples]
            report = measure(
                model_name,
                train_fn=lambda m=model: train_model(m, data, profile),
                infer_fn=lambda m=model: Predictor(m, graph_cache_size=None).predict_batch(test),
            )
            reports.append(report)
        out[dataset_name] = reports
    return out
