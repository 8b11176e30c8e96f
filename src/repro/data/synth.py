"""Synthetic location-based social network generator.

Replaces the Foursquare / Weeplaces check-in datasets.  The generator
manufactures exactly the regularities the paper's model family feeds
on:

* **non-uniform POI density** — POIs are placed by rejection sampling
  against the land-use map, so commercial cores are dense and rural
  areas sparse (the imbalance that motivates the quad-tree);
* **repeat behaviour** — each user owns a favourite set around home
  and work anchors and returns to it most of the time (the signal
  recurrent/attention baselines exploit);
* **spatial coherence** — exploration picks nearby POIs with distance
  decay (the signal tile-level prediction exploits);
* **temporal rhythm** — categories have hour-of-day affinities
  (the signal the 48-slot temporal encoder exploits);
* **environmental correlation** — category semantics follow land use,
  which is what the rendered imagery depicts (the signal Me1 exploits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..geo import BoundingBox
from ..imagery import LandUse, LandUseMap
from ..roadnet import RoadNetwork
from .checkin import Checkin
from .poi import POISet

# Acceptance probability for a candidate POI per land-use class.
_URBAN_ACCEPT = {
    LandUse.WATER: 0.0,
    LandUse.PARK: 0.25,
    LandUse.COMMERCIAL: 1.0,
    LandUse.RESIDENTIAL: 0.55,
    LandUse.INDUSTRIAL: 0.3,
    LandUse.RURAL: 0.12,
}
_STATE_ACCEPT = {
    LandUse.WATER: 0.0,
    LandUse.PARK: 0.3,
    LandUse.COMMERCIAL: 1.0,
    LandUse.RESIDENTIAL: 0.6,
    LandUse.INDUSTRIAL: 0.3,
    LandUse.RURAL: 0.04,
}

# Fraction of the category space owned by each land-use class.
_CATEGORY_SHARE = [
    (LandUse.COMMERCIAL, 0.40),
    (LandUse.RESIDENTIAL, 0.25),
    (LandUse.PARK, 0.12),
    (LandUse.INDUSTRIAL, 0.10),
    (LandUse.RURAL, 0.08),
    (LandUse.WATER, 0.05),  # coastal categories: beach, marina, pier...
]

# Hour-of-day affinity peaks per land-use group (mean hour, std).
_TIME_AFFINITY = {
    LandUse.COMMERCIAL: [(12.5, 1.5), (19.0, 2.0)],
    LandUse.RESIDENTIAL: [(8.0, 1.5), (21.5, 2.0)],
    LandUse.PARK: [(10.5, 2.5), (15.5, 2.5)],
    LandUse.INDUSTRIAL: [(9.0, 2.0), (14.0, 2.5)],
    LandUse.RURAL: [(11.0, 3.0), (16.0, 3.0)],
    LandUse.WATER: [(11.0, 2.0), (16.0, 2.5)],
}


@dataclass
class SynthConfig:
    """Knobs for one synthetic dataset."""

    n_pois: int = 500
    n_users: int = 50
    n_categories: int = 24
    n_days: int = 30
    checkins_per_day: float = 3.0
    activity: float = 0.75  # probability a user is active on a day
    vacation_rate: float = 0.06  # chance of starting a >72h gap each day
    repeat_rate: float = 0.3  # favour known POIs over exploration
    anchor_explore_rate: float = 0.6  # exploration around intent anchors
    n_favorites: int = 14
    explore_radius_fraction: float = 0.12  # of bbox width
    explore_candidates: int = 60
    state_style: bool = False
    coastal_boost: float = 6.0  # acceptance multiplier in the coastal band
    # venue aliasing: each accepted location spawns 1..max_aliases
    # co-located same-category POIs.  Users pick among aliases by a
    # private affinity, which is what makes pooled first-order
    # transition counts (Markov chains) blur at scale, as on real LBSN
    # data with huge venue vocabularies.
    max_aliases: int = 3
    alias_jitter_fraction: float = 0.004  # of bbox width
    affinity_sigma: float = 1.0  # lognormal sigma of per-user POI affinity
    seed: int = 0


@dataclass
class UserProfile:
    """Latent behavioural profile driving a user's check-in stream."""

    user_id: int
    home_poi: int
    work_poi: int
    favorites: List[int]
    category_pref: np.ndarray
    activity: float
    repeat_rate: float
    # preferred hour of day per favourite (the user's routine): makes
    # the favourite choice time-conditional, so temporal models beat a
    # time-blind Markov chain on repeat visits.
    favorite_hours: Dict[int, float] = field(default_factory=dict)
    # private multiplicative affinity over every POI: decides which of
    # several co-located venue aliases this user frequents.
    poi_affinity: np.ndarray = field(default=None)


@dataclass
class SyntheticCity:
    """Everything the pipeline needs about one synthetic region."""

    bbox: BoundingBox
    land_use: LandUseMap
    roads: RoadNetwork
    pois: POISet
    checkins: List[Checkin]
    users: List[UserProfile]
    config: SynthConfig
    category_landuse: np.ndarray = field(default=None)  # land-use group per category


def _category_groups(n_categories: int) -> Tuple[np.ndarray, List[str]]:
    """Partition category ids across land-use groups; returns group per id."""
    groups = np.empty(n_categories, dtype=np.int64)
    names = []
    cursor = 0
    for land_class, share in _CATEGORY_SHARE:
        count = max(1, int(round(share * n_categories)))
        for i in range(count):
            if cursor >= n_categories:
                break
            groups[cursor] = int(land_class)
            names.append(f"{land_class.name.lower()}_{i}")
            cursor += 1
    while cursor < n_categories:  # rounding remainder -> commercial
        groups[cursor] = int(LandUse.COMMERCIAL)
        names.append(f"commercial_x{cursor}")
        cursor += 1
    return groups, names


def _place_pois(
    land_use: LandUseMap,
    config: SynthConfig,
    category_groups: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Rejection-sample POI locations; assign land-use-consistent categories."""
    accept = _STATE_ACCEPT if config.state_style else _URBAN_ACCEPT
    bbox = land_use.bbox
    band = 0.03 * bbox.width
    jitter = config.alias_jitter_fraction * bbox.width
    xs: List[float] = []
    ys: List[float] = []
    classes: List[int] = []
    attempts = 0
    max_attempts = config.n_pois * 400
    while len(xs) < config.n_pois and attempts < max_attempts:
        attempts += 1
        x = bbox.min_x + rng.random() * bbox.width
        y = bbox.min_y + rng.random() * bbox.height
        land_class = land_use.class_at(x, y)
        if land_class == LandUse.WATER:
            continue
        p = accept[land_class]
        if land_use.coastal_band(x, y, band):
            p = min(1.0, p * config.coastal_boost)
            land_class = LandUse.WATER  # coastal category group
        if rng.random() < p:
            # spawn a small cluster of co-located aliases (venues)
            aliases = int(rng.integers(1, config.max_aliases + 1))
            for _ in range(min(aliases, config.n_pois - len(xs))):
                ax, ay = bbox.clamp(x + rng.normal(0, jitter), y + rng.normal(0, jitter))
                xs.append(ax)
                ys.append(ay)
                classes.append(int(land_class))
    if len(xs) < config.n_pois:
        raise RuntimeError(
            f"could only place {len(xs)}/{config.n_pois} POIs; "
            "land-use map too hostile"
        )
    # category: uniform choice among categories of the POI's land-use group
    categories = np.empty(config.n_pois, dtype=np.int64)
    for i, land_class in enumerate(classes):
        pool = np.nonzero(category_groups == land_class)[0]
        if pool.size == 0:
            pool = np.arange(len(category_groups))
        categories[i] = int(rng.choice(pool))
    return np.column_stack([xs, ys]), categories


def _time_affinity(group: int, hour: float) -> float:
    peaks = _TIME_AFFINITY[LandUse(group)]
    value = sum(np.exp(-0.5 * ((hour - mu) / sd) ** 2) for mu, sd in peaks)
    return 0.1 + value


class _Simulator:
    """Per-dataset mobility simulator."""

    def __init__(
        self,
        pois: POISet,
        land_use: LandUseMap,
        category_groups: np.ndarray,
        config: SynthConfig,
        rng: np.random.Generator,
    ):
        self.pois = pois
        self.land_use = land_use
        self.category_groups = category_groups
        self.config = config
        self.rng = rng
        self.tree = cKDTree(pois.xy)
        # Zipf-ish global popularity
        ranks = rng.permutation(len(pois)) + 1
        self.popularity = 1.0 / ranks ** 0.8
        self.explore_radius = config.explore_radius_fraction * land_use.bbox.width

    def make_user(self, user_id: int) -> UserProfile:
        rng = self.rng
        residential = self._pois_of_group(int(LandUse.RESIDENTIAL))
        commercial = self._pois_of_group(int(LandUse.COMMERCIAL))
        home = int(rng.choice(residential if residential.size else np.arange(len(self.pois))))
        hx, hy = self.pois.location_of(home)
        # work: commercial POI, biased toward home for urban / same city for state
        if commercial.size:
            d2 = ((self.pois.xy[commercial] - [hx, hy]) ** 2).sum(axis=1)
            weights = np.exp(-d2 / (2 * (4 * self.explore_radius) ** 2)) + 1e-9
            work = int(rng.choice(commercial, p=weights / weights.sum()))
        else:
            work = home
        favorites = self._sample_favorites(home, work)
        pref = rng.dirichlet(np.full(self.pois.num_categories, 0.3))
        favorite_hours = {
            poi: float(np.clip(rng.normal(14.0, 5.5), 6.0, 23.0)) for poi in favorites
        }
        return UserProfile(
            user_id=user_id,
            home_poi=home,
            work_poi=work,
            favorites=favorites,
            category_pref=pref,
            activity=min(1.0, max(0.2, rng.normal(self.config.activity, 0.1))),
            repeat_rate=min(0.95, max(0.2, rng.normal(self.config.repeat_rate, 0.1))),
            favorite_hours=favorite_hours,
            poi_affinity=rng.lognormal(0.0, self.config.affinity_sigma, len(self.pois)),
        )

    def _pois_of_group(self, group: int) -> np.ndarray:
        mask = self.category_groups[self.pois.categories] == group
        return np.nonzero(mask)[0]

    def _sample_favorites(self, home: int, work: int) -> List[int]:
        favorites = {home, work}
        for anchor in (home, work):
            ax, ay = self.pois.location_of(anchor)
            neighbors = self.tree.query_ball_point([ax, ay], r=self.explore_radius * 2)
            neighbors = [n for n in neighbors if n not in favorites]
            if neighbors:
                take = min(len(neighbors), self.config.n_favorites // 2)
                # Square the popularity so nearby users share the same
                # popular POIs: pooled first-order transitions then have
                # high entropy, while per-user history disambiguates —
                # the regime in which deep models beat Markov chains.
                weights = self.popularity[neighbors] ** 2
                weights = weights / weights.sum()
                chosen = self.rng.choice(neighbors, size=take, replace=False, p=weights)
                favorites.update(int(c) for c in chosen)
        return sorted(favorites)

    def _anchor_of(self, user: UserProfile, hour: float) -> int:
        """Intent anchor by time of day: work mid-day, home otherwise."""
        if 10.0 <= hour <= 17.5:
            return user.work_poi
        return user.home_poi

    def next_poi(self, user: UserProfile, current: int, hour: float) -> int:
        """Draw the next POI.

        Three behavioural modes, mixing exactly the regularities the
        models under test differ on:

        * *repeat* — revisit a personal favourite (predictable from the
          user's history, not from the current POI alone);
        * *anchor exploration* — try something near the time-of-day
          intent anchor (home/work), so pooled first-order transitions
          stay diffuse while (user, time) context is informative;
        * *local exploration* — try something near the current POI
          (the sequential-transition signal).
        """
        rng = self.rng
        mode = rng.random()
        if mode < user.repeat_rate:
            candidates = np.array([p for p in user.favorites if p != current])
            if candidates.size == 0:
                candidates = np.array(user.favorites)
            # routine: strongly prefer the favourite whose usual hour
            # matches now (time-conditional repeat behaviour)
            routine = np.array(
                [
                    np.exp(-0.5 * ((hour - user.favorite_hours.get(int(p), 14.0)) / 3.0) ** 2)
                    for p in candidates
                ]
            )
            routine = routine + 0.15
            center = self._anchor_of(user, hour)
        else:
            routine = None
            if rng.random() < self.config.anchor_explore_rate:
                center = self._anchor_of(user, hour)
            else:
                center = current
            cx, cy = self.pois.location_of(center)
            _, idx = self.tree.query([cx, cy], k=min(self.config.explore_candidates, len(self.pois)))
            candidates = np.atleast_1d(idx)
            candidates = candidates[candidates != current]
            if candidates.size == 0:
                candidates = np.arange(len(self.pois))
        cats = self.pois.categories[candidates]
        groups = self.category_groups[cats]
        affinity = np.array([_time_affinity(g, hour) for g in groups])
        weights = (user.category_pref[cats] + 1e-6) * affinity * (self.popularity[candidates] + 1e-6)
        weights = weights * user.poi_affinity[candidates]  # alias choice
        if routine is not None:
            weights = weights * routine
        cx, cy = self.pois.location_of(center)
        d = np.sqrt(((self.pois.xy[candidates] - [cx, cy]) ** 2).sum(axis=1))
        weights = weights * np.exp(-d / (self.explore_radius + 1e-9))
        weights = weights / weights.sum()
        return int(rng.choice(candidates, p=weights))

    def simulate_user(self, user: UserProfile, start_day: int = 0) -> List[Checkin]:
        rng = self.rng
        records: List[Checkin] = []
        day = start_day
        while day < start_day + self.config.n_days:
            if rng.random() < self.config.vacation_rate:
                day += int(rng.integers(4, 8))  # >72h gap -> new trajectory window
                continue
            if rng.random() > user.activity:
                day += 1
                continue
            n_events = rng.poisson(self.config.checkins_per_day)
            if n_events == 0:
                day += 1
                continue
            hours = np.sort(_sample_hours(rng, n_events))
            current = user.home_poi
            for hour in hours:
                current = self.next_poi(user, current, float(hour))
                jitter = rng.uniform(0, 0.4)
                records.append(
                    Checkin(user_id=user.user_id, poi_id=current, timestamp=day * 24.0 + float(hour) + jitter)
                )
            day += 1
        return records


def _sample_hours(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw event hours from a morning/noon/evening mixture."""
    peaks = np.array([9.0, 12.5, 18.5, 21.0])
    stds = np.array([1.2, 1.0, 1.5, 1.2])
    which = rng.integers(0, len(peaks), size=n)
    hours = rng.normal(peaks[which], stds[which])
    return np.clip(hours, 0.0, 23.49)


def generate_city(
    bbox: BoundingBox,
    land_use: LandUseMap,
    roads: RoadNetwork,
    config: SynthConfig,
) -> SyntheticCity:
    """Run the full generation pipeline for one dataset."""
    rng = np.random.default_rng(config.seed)
    groups, names = _category_groups(config.n_categories)
    xy, categories = _place_pois(land_use, config, groups, rng)
    pois = POISet(xy, categories, category_names=names)
    sim = _Simulator(pois, land_use, groups, config, rng)
    users = [sim.make_user(uid) for uid in range(config.n_users)]
    checkins: List[Checkin] = []
    for user in users:
        checkins.extend(sim.simulate_user(user))
    checkins.sort(key=lambda r: (r.user_id, r.timestamp))
    return SyntheticCity(
        bbox=bbox,
        land_use=land_use,
        roads=roads,
        pois=pois,
        checkins=checkins,
        users=users,
        config=config,
        category_landuse=groups,
    )
