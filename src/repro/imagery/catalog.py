"""Imagery catalog: the tile-id -> image store D_I (paper phase 1).

Renders each quad-tree tile's bounding box once and caches the result,
standing in for the paper's folder of cropped Google-Maps tiles.
Supports the 20%-noise corruption used in the Fig. 12(b) ablation.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from ..spatial import GridIndex, RegionQuadTree
from .renderer import TileRenderer, add_noise


class ImageryCatalog:
    """Lazy cache of rendered tile images keyed by tile id."""

    def __init__(
        self,
        renderer: TileRenderer,
        noise_fraction: float = 0.0,
        noise_seed: int = 1234,
    ):
        self.renderer = renderer
        self.noise_fraction = noise_fraction
        self._noise_rng = np.random.default_rng(noise_seed)
        self._cache: Dict[int, np.ndarray] = {}
        self._bbox_of = None  # set by bind()

    def bind(self, index) -> "ImageryCatalog":
        """Attach a spatial index (quad-tree or grid) providing tile bboxes."""
        if isinstance(index, RegionQuadTree):
            self._bbox_of = lambda tile_id: index.node(tile_id).bbox
        elif isinstance(index, GridIndex):
            self._bbox_of = index.bbox_of
        else:
            raise TypeError(f"unsupported spatial index: {type(index)!r}")
        return self

    def image_for(self, tile_id: int) -> np.ndarray:
        """Rendered (and possibly corrupted) image for one tile, cached."""
        if self._bbox_of is None:
            raise RuntimeError("catalog not bound to a spatial index; call bind()")
        if tile_id not in self._cache:
            image = self.renderer.render(self._bbox_of(tile_id))
            if self.noise_fraction > 0.0:
                image = add_noise(image, self.noise_fraction, self._noise_rng)
            self._cache[tile_id] = image
        return self._cache[tile_id]

    def images_for(self, tile_ids: Iterable[int]) -> np.ndarray:
        """Stack of CHW images for a batch of tiles (CNN input layout)."""
        images = [self.image_for(t) for t in tile_ids]
        return np.stack([img.transpose(2, 0, 1) for img in images], axis=0)

    @property
    def resolution(self) -> int:
        return self.renderer.resolution

    def cache_size(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
