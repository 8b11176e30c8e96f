"""Recurrent cells and layers (GRU / LSTM).

These back the recurrent baselines: GRU, STRNN, DeepMove's recurrent
trunk, LSTPM's long/short-term LSTMs and Graph-Flashback's RNN.
Sequences are unbatched ``(length, dim)`` tensors in the training
loop; ``GRU`` and ``LSTM`` additionally unroll right-padded
``(batch, length, dim)`` batches for the vectorised inference path
(the cells slice their gate blocks along the last axis, so a step over
``(batch, dim)`` states is the same code as a step over ``(dim,)``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, stack, zeros
from ..utils.rng import default_rng
from . import init
from .module import Module, Parameter


class GRUCell(Module):
    """Single-step gated recurrent unit."""

    def __init__(self, input_dim: int, hidden_dim: int, rng=None):
        super().__init__()
        rng = rng or default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # gates: reset, update, candidate — stacked as 3 blocks.
        self.w_ih = Parameter(init.xavier_uniform((3 * hidden_dim, input_dim), rng))
        self.w_hh = Parameter(init.xavier_uniform((3 * hidden_dim, hidden_dim), rng))
        self.b_ih = Parameter(np.zeros(3 * hidden_dim))
        self.b_hh = Parameter(np.zeros(3 * hidden_dim))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        gi = x @ self.w_ih.transpose() + self.b_ih
        gh = h @ self.w_hh.transpose() + self.b_hh
        d = self.hidden_dim
        r = (gi[..., 0:d] + gh[..., 0:d]).sigmoid()
        z = (gi[..., d:2 * d] + gh[..., d:2 * d]).sigmoid()
        n = (gi[..., 2 * d:3 * d] + r * gh[..., 2 * d:3 * d]).tanh()
        return (1.0 - z) * n + z * h


class GRU(Module):
    """Unrolled GRU over a ``(length, input_dim)`` sequence."""

    def __init__(self, input_dim: int, hidden_dim: int, rng=None):
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, h0: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        if x.ndim == 3:  # (batch, length, dim): one cell step per position
            h = h0 if h0 is not None else zeros((x.shape[0], self.hidden_dim))
            outputs: List[Tensor] = []
            for t in range(x.shape[1]):
                h = self.cell(x[:, t], h)
                outputs.append(h)
            return stack(outputs, axis=1), h
        h = h0 if h0 is not None else zeros(self.hidden_dim)
        outputs = []
        for t in range(x.shape[0]):
            h = self.cell(x[t], h)
            outputs.append(h)
        return stack(outputs, axis=0), h


class LSTMCell(Module):
    """Single-step long short-term memory cell."""

    def __init__(self, input_dim: int, hidden_dim: int, rng=None):
        super().__init__()
        rng = rng or default_rng()
        self.hidden_dim = hidden_dim
        # gates: input, forget, cell, output — stacked as 4 blocks.
        self.w_ih = Parameter(init.xavier_uniform((4 * hidden_dim, input_dim), rng))
        self.w_hh = Parameter(init.xavier_uniform((4 * hidden_dim, hidden_dim), rng))
        self.b = Parameter(np.zeros(4 * hidden_dim))

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h, c = state
        gates = x @ self.w_ih.transpose() + h @ self.w_hh.transpose() + self.b
        d = self.hidden_dim
        i = gates[..., 0:d].sigmoid()
        f = gates[..., d:2 * d].sigmoid()
        g = gates[..., 2 * d:3 * d].tanh()
        o = gates[..., 3 * d:4 * d].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class LSTM(Module):
    """Unrolled LSTM over a ``(length, input_dim)`` sequence."""

    def __init__(self, input_dim: int, hidden_dim: int, rng=None):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    def forward(
        self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        if x.ndim == 3:  # (batch, length, dim)
            if state is None:
                batch = x.shape[0]
                state = (zeros((batch, self.hidden_dim)), zeros((batch, self.hidden_dim)))
            h, c = state
            outputs: List[Tensor] = []
            for t in range(x.shape[1]):
                h, c = self.cell(x[:, t], (h, c))
                outputs.append(h)
            return stack(outputs, axis=1), (h, c)
        if state is None:
            state = (zeros(self.hidden_dim), zeros(self.hidden_dim))
        h, c = state
        outputs = []
        for t in range(x.shape[0]):
            h, c = self.cell(x[t], (h, c))
            outputs.append(h)
        return stack(outputs, axis=0), (h, c)


class DilatedLSTM(Module):
    """Geo-dilated LSTM used by the LSTPM baseline.

    Processes every ``dilation``-th step with a shared cell, which is the
    mechanism LSTPM uses to skip spatially redundant check-ins.
    """

    def __init__(self, input_dim: int, hidden_dim: int, dilation: int = 2, rng=None):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim
        self.dilation = max(1, dilation)

    def forward(self, x: Tensor) -> Tensor:
        h = zeros(self.hidden_dim)
        c = zeros(self.hidden_dim)
        for t in range(0, x.shape[0], self.dilation):
            h, c = self.cell(x[t], (h, c))
        # Always include the final step so the most recent check-in counts.
        last = x.shape[0] - 1
        if last % self.dilation != 0:
            h, c = self.cell(x[last], (h, c))
        return h
