"""Learning-rate schedules.

The paper trains with lr = 2e-5 decayed by 0.95 (per epoch); that is
exactly :class:`ExponentialDecay`.
"""

from __future__ import annotations


class ExponentialDecay:
    """Multiply the optimiser lr by ``gamma`` on every ``step()``."""

    def __init__(self, optimizer, gamma: float = 0.95):
        self.optimizer = optimizer
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self._epochs = 0

    def step(self) -> None:
        self._epochs += 1
        self.optimizer.lr = self.base_lr * (self.gamma ** self._epochs)
