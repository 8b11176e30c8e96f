"""Dataset presets mirroring the paper's four evaluation datasets.

Table I of the paper:

=====================  =========  =====  ======  ========  ============
Dataset                Check-in   User   POI     Category  Coverage
=====================  =========  =====  ======  ========  ============
Foursquare (NYC)       227,428    1083   38,333  400       482.75 km2
Foursquare (TKY)       573,703    2293   61,858  385       211.98 km2
Weeplaces (California) 971,794    5250   99,733  679       423,967 km2
Weeplaces (Florida)    136,754    2064   25,287  589       139,670 km2
=====================  =========  =====  ======  ========  ============

The presets reproduce the datasets' *shapes* at laptop scale: NYC/TKY
are dense urban regions (TKY denser than NYC), California/Florida are
sparse state-scale regions with city clusters and a coastline (east
for Florida, west for California).  A ``scale`` knob grows everything
proportionally for users who want bigger runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..geo import BoundingBox
from ..imagery import (
    Blob,
    CityCenter,
    Coastline,
    ImageryCatalog,
    LandUseMap,
    TileRenderer,
)
from ..roadnet import (
    RoadNetwork,
    generate_state_network,
    generate_urban_network,
    tile_road_adjacency,
)
from ..spatial import RegionQuadTree
from .checkin import CheckinDataset
from .synth import SynthConfig, SyntheticCity, generate_city
from .trajectory import Trajectory, split_into_trajectories

PRESET_NAMES = ("nyc", "tky", "california", "florida")


@dataclass
class DatasetSpec:
    """Full recipe for one benchmark dataset."""

    name: str
    style: str  # "urban" | "state"
    bbox: BoundingBox
    n_users: int
    n_pois: int
    n_categories: int
    n_days: int
    checkins_per_day: float
    n_city_centers: int
    coastal_side: Optional[str]  # None | "east" | "west"
    quadtree_depth: int  # paper parameter D
    quadtree_omega: int  # paper parameter Omega
    top_k: int  # paper parameter K
    imagery_resolution: int = 32

    def scaled(self, scale: float) -> "DatasetSpec":
        """Grow (or shrink) the dataset proportionally."""
        return replace(
            self,
            n_users=max(4, int(self.n_users * scale)),
            n_pois=max(50, int(self.n_pois * scale)),
            n_days=max(10, int(self.n_days * min(scale, 2.0))),
        )


def _spec_presets() -> Dict[str, DatasetSpec]:
    return {
        # Urban: small coverage, high density; TKY denser than NYC
        # (paper: TKY has ~2.5x the check-ins in half the area).
        "nyc": DatasetSpec(
            name="nyc",
            style="urban",
            bbox=BoundingBox(0.0, 0.0, 22.0, 22.0),
            n_users=110,
            n_pois=620,
            n_categories=24,
            n_days=32,
            checkins_per_day=2.8,
            n_city_centers=2,
            coastal_side="east",  # Manhattan's Atlantic side
            quadtree_depth=8,
            quadtree_omega=16,  # paper: 50, scaled to the smaller POI count
            top_k=10,
        ),
        "tky": DatasetSpec(
            name="tky",
            style="urban",
            bbox=BoundingBox(0.0, 0.0, 15.0, 15.0),
            n_users=140,
            n_pois=780,
            n_categories=22,
            n_days=32,
            checkins_per_day=3.2,
            n_city_centers=3,
            coastal_side="east",  # Tokyo Bay
            quadtree_depth=8,
            quadtree_omega=20,  # paper: 100, scaled
            top_k=10,
        ),
        # State: ~1000x the coverage with clustered cities (paper Sec. VI-A).
        "california": DatasetSpec(
            name="california",
            style="state",
            bbox=BoundingBox(0.0, 0.0, 650.0, 800.0),
            n_users=110,
            n_pois=700,
            n_categories=26,
            n_days=32,
            checkins_per_day=2.6,
            n_city_centers=5,
            coastal_side="west",
            quadtree_depth=9,
            quadtree_omega=20,  # paper: 100, scaled
            top_k=8,
        ),
        "florida": DatasetSpec(
            name="florida",
            style="state",
            bbox=BoundingBox(0.0, 0.0, 500.0, 700.0),
            n_users=85,
            n_pois=520,
            n_categories=24,
            n_days=30,
            checkins_per_day=2.4,
            n_city_centers=4,
            coastal_side="east",
            quadtree_depth=8,
            quadtree_omega=16,  # paper: 50, scaled
            top_k=8,
        ),
    }


def get_spec(name: str) -> DatasetSpec:
    presets = _spec_presets()
    if name not in presets:
        raise KeyError(f"unknown dataset preset {name!r}; choose from {sorted(presets)}")
    return presets[name]


@dataclass
class Dataset:
    """A fully materialised benchmark dataset."""

    spec: DatasetSpec
    city: SyntheticCity
    checkins: CheckinDataset
    trajectories: Dict[int, List[Trajectory]]  # user -> trajectory sequence
    quadtree: RegionQuadTree
    road_adjacency: set
    imagery: ImageryCatalog
    # the exact build_dataset() arguments, recorded so checkpoints can
    # rebuild an identical dataset (None for hand-assembled datasets)
    build_args: Optional[Dict] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_pois(self) -> int:
        return len(self.city.pois)

    @property
    def num_tiles(self) -> int:
        return len(self.quadtree)

    def leaf_of_poi(self, poi_id: int) -> int:
        return self.quadtree.leaf_of_poi(poi_id)


def _build_land_use(spec: DatasetSpec, rng: np.random.Generator) -> LandUseMap:
    bbox = spec.bbox
    span = min(bbox.width, bbox.height)
    centers: List[CityCenter] = []
    if spec.coastal_side == "east":
        cx_range = (0.35, 0.7)
    elif spec.coastal_side == "west":
        cx_range = (0.3, 0.65)
    else:
        cx_range = (0.2, 0.8)
    for _ in range(spec.n_city_centers):
        cx = bbox.min_x + rng.uniform(*cx_range) * bbox.width
        cy = bbox.min_y + rng.uniform(0.15, 0.85) * bbox.height
        if spec.style == "urban":
            commercial = rng.uniform(0.08, 0.14) * span
            urban = commercial * rng.uniform(2.0, 2.6)
        else:
            commercial = rng.uniform(0.03, 0.05) * span
            urban = commercial * rng.uniform(2.0, 2.5)
        centers.append(CityCenter(cx, cy, commercial, urban))
    parks = [
        Blob(
            bbox.min_x + rng.uniform(0.1, 0.85) * bbox.width,
            bbox.min_y + rng.uniform(0.1, 0.9) * bbox.height,
            rng.uniform(0.03, 0.07) * span,
        )
        for _ in range(3)
    ]
    industrial = [
        Blob(
            bbox.min_x + rng.uniform(0.1, 0.85) * bbox.width,
            bbox.min_y + rng.uniform(0.1, 0.9) * bbox.height,
            rng.uniform(0.04, 0.08) * span,
        )
    ]
    coast = None
    if spec.coastal_side:
        base_frac = 0.82 if spec.coastal_side == "east" else 0.18
        coast = Coastline(
            base=bbox.min_x + base_frac * bbox.width,
            amplitude=0.03 * bbox.width,
            frequency=2.0 * np.pi / bbox.height,
            phase=rng.uniform(0, 2 * np.pi),
            side=spec.coastal_side,
        )
    return LandUseMap(bbox=bbox, centers=centers, parks=parks, industrial=industrial, coast=coast)


def _build_roads(spec: DatasetSpec, land_use: LandUseMap, rng: np.random.Generator) -> RoadNetwork:
    if spec.style == "urban":
        return generate_urban_network(
            spec.bbox, rng, n_rows=12, n_cols=12, centers=[(c.x, c.y) for c in land_use.centers]
        )
    return generate_state_network(
        spec.bbox, rng, city_centers=[(c.x, c.y) for c in land_use.centers]
    )


def build_dataset(
    name: str,
    seed: int = 0,
    scale: float = 1.0,
    imagery_resolution: Optional[int] = None,
    noise_fraction: float = 0.0,
) -> Dataset:
    """Materialise a preset end-to-end (land use, roads, POIs, check-ins,
    quad-tree, road adjacency, imagery catalog).

    ``noise_fraction`` corrupts the imagery (Fig. 12(b) ablation).
    """
    spec = get_spec(name).scaled(scale)
    if imagery_resolution is not None:
        spec = replace(spec, imagery_resolution=imagery_resolution)
    rng = np.random.default_rng(seed)
    land_use = _build_land_use(spec, rng)
    roads = _build_roads(spec, land_use, rng)
    config = SynthConfig(
        n_pois=spec.n_pois,
        n_users=spec.n_users,
        n_categories=spec.n_categories,
        n_days=spec.n_days,
        checkins_per_day=spec.checkins_per_day,
        state_style=(spec.style == "state"),
        seed=seed + 1,
    )
    city = generate_city(spec.bbox, land_use, roads, config)
    checkins = CheckinDataset(city.checkins)
    trajectories = {
        user: split_into_trajectories(checkins.of_user(user)) for user in checkins.users()
    }
    quadtree = RegionQuadTree.build(
        spec.bbox,
        city.pois.xy,
        max_depth=spec.quadtree_depth,
        max_pois=spec.quadtree_omega,
    )
    adjacency = tile_road_adjacency(quadtree, roads)
    renderer = TileRenderer(land_use, roads, resolution=spec.imagery_resolution, seed=seed)
    imagery = ImageryCatalog(renderer, noise_fraction=noise_fraction).bind(quadtree)
    return Dataset(
        spec=spec,
        city=city,
        checkins=checkins,
        trajectories=trajectories,
        quadtree=quadtree,
        road_adjacency=adjacency,
        imagery=imagery,
        build_args=dict(
            name=name,
            seed=seed,
            scale=scale,
            imagery_resolution=imagery_resolution,
            noise_fraction=noise_fraction,
        ),
    )
