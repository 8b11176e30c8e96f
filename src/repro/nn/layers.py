"""Core layers: Linear, Embedding, Conv2d, LayerNorm, Dropout, activations."""

from __future__ import annotations

import numpy as np

from ..autograd import (
    Tensor,
    conv2d,
    dropout as dropout_fn,
    get_default_dtype,
    is_grad_enabled,
)
from ..utils.rng import default_rng
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        rng = rng or default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = (
            Parameter(np.zeros(out_features, dtype=get_default_dtype())) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng=None, std: float = 0.02):
        super().__init__()
        rng = rng or default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=std))

    def forward(self, indices) -> Tensor:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"got [{idx.min()}, {idx.max()}]"
            )
        return self.weight[idx]


class Conv2d(Module):
    """2-D convolution; stride-2 variants replace pooling in Me1 (paper Sec. IV-A).

    Inputs and outputs are batch-innermost ``(C, H, W, N)`` stacks, so
    that a forward is one gemm for the whole batch (see
    :func:`~repro.autograd.functional.conv2d`).  The weight keeps the
    ``(O, C, K, K)`` shape.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        rng = rng or default_rng()
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=get_default_dtype())) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class LayerNorm(Module):
    """Layer normalisation over the last dimension (paper Sec. V-A, block 2)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=get_default_dtype()))
        self.beta = Parameter(np.zeros(dim, dtype=get_default_dtype()))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout, active only in training mode with gradients on.

    Under ``no_grad`` it is the identity whatever the train/eval flag,
    so inference never depends on the caller's mode and never draws
    from the generator.  Grad mode is thread-local, so one thread's
    inference cannot switch dropout off for another thread's training
    step.
    """

    def __init__(self, rate: float = 0.1, rng=None):
        super().__init__()
        self.rate = rate
        self._rng = rng or default_rng()

    def forward(self, x: Tensor, rows=None) -> Tensor:
        """``rows=(shape, index)``: ``x`` is some rows of a larger
        activation (see :func:`repro.autograd.dropout`)."""
        training = self.training and is_grad_enabled()
        return dropout_fn(x, self.rate, self._rng, training=training, rows=rows)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.01):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.slope)


class Flatten(Module):
    """Flatten all but the leading (batch) dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
