"""Tile embedding module Me1 (paper Sec. IV-A, Fig. 6).

Three successive stride-2 CNN layers compress each remote-sensing tile
image — the paper's memory-saving replacement for 2x2 max pooling —
then the compressed hyper-image is flattened, pushed through a
feed-forward layer to dimension d_m, and L2-normalised.

The CNN runs on a batch-innermost ``(C, H, W, N)`` stack of all tiles,
so that each convolution, forward and backward, is one gemm over the
whole tile set (see :func:`~repro.autograd.functional.conv2d`); the
``(C3, h, w, N)`` output is flattened back to ``(N, C3*h*w)`` in
``(c, h, w)`` order, so the projection's weight means what it meant
under an ``(N, C, H, W)`` layout and checkpoints keep their meaning.

The ablation variant (``use_imagery=False``, Table IV "No Imagery")
swaps the CNN for a plain learnable per-tile table.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor, conv2d, l2_normalize
from ..autograd.functional import im2col
from ..imagery import ImageryCatalog
from ..nn import Conv2d, Embedding, Linear, Module
from ..utils.rng import default_rng


class ImageTileEmbedder(Module):
    """CNN image encoder producing E_T from the imagery catalog."""

    def __init__(
        self,
        catalog: ImageryCatalog,
        num_tiles: int,
        dim: int,
        channels: Sequence[int] = (8, 16, 32),
        rng=None,
    ):
        super().__init__()
        rng = rng or default_rng()
        self.catalog = catalog
        self.num_tiles = num_tiles
        self.dim = dim
        resolution = catalog.resolution
        if resolution % 8 != 0:
            raise ValueError("imagery resolution must be divisible by 8 (three stride-2 layers)")
        c1, c2, c3 = channels
        # Paper Fig. 6: three stride-2 convolutions replace pooling.
        self.conv1 = Conv2d(3, c1, kernel_size=3, stride=2, padding=1, rng=rng)
        self.conv2 = Conv2d(c1, c2, kernel_size=3, stride=2, padding=1, rng=rng)
        self.conv3 = Conv2d(c2, c3, kernel_size=3, stride=2, padding=1, rng=rng)
        flat = c3 * (resolution // 8) ** 2
        self.project = Linear(flat, dim, rng=rng)
        # static-input fast path for all_embeddings: the full-tile
        # (3, R, R, N) image stack and its first-layer im2col columns
        # never change, so the per-training-batch re-encode of E_T skips both
        self._all_images: Optional[Tensor] = None
        self._all_cols: Optional[np.ndarray] = None

    def all_embeddings(self) -> Tensor:
        """E_T for every tile (leaves and internal nodes), ``(num_tiles, dim)``.

        The final step normalises "across the feature space" (paper
        Fig. 6): embeddings are centred over the tile set before L2
        normalisation.  Without the centring, untrained ReLU features
        live in a narrow positive cone (pairwise cosine near 1) and
        cosine ranking over tiles is ill-conditioned.
        """
        if self._all_images is None:
            images = self.catalog.images_for(list(range(self.num_tiles)))  # (N, 3, R, R)
            stack = np.ascontiguousarray(images.transpose(1, 2, 3, 0))
            self._all_images = Tensor(stack)
            self._all_cols, _, _ = im2col(
                stack, self.conv1.weight.shape[-1], self.conv1.stride, self.conv1.padding
            )
        x = conv2d(
            self._all_images, self.conv1.weight, self.conv1.bias,
            stride=self.conv1.stride, padding=self.conv1.padding, cols=self._all_cols,
        ).relu()
        x = self.conv2(x).relu()
        x = self.conv3(x).relu()  # (C3, h, w, N)
        x = x.transpose(3, 0, 1, 2).reshape(self.num_tiles, -1)
        x = self.project(x)
        if x.shape[0] > 1:
            x = x - x.mean(axis=0, keepdims=True)
        return l2_normalize(x, axis=-1)


class TableTileEmbedder(Module):
    """Learnable per-tile table: the "No Imagery" ablation stand-in."""

    def __init__(self, num_tiles: int, dim: int, rng=None):
        super().__init__()
        self.num_tiles = num_tiles
        self.table = Embedding(num_tiles, dim, rng=rng or default_rng())

    def forward(self, tile_ids: Sequence[int]) -> Tensor:
        return l2_normalize(self.table(np.asarray(tile_ids, dtype=np.int64)), axis=-1)

    def all_embeddings(self) -> Tensor:
        return self.forward(list(range(self.num_tiles)))
