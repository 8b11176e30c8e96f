"""Tests for the Trainer beyond what the integration tests cover."""

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy
from repro.data.trajectory import PredictionSample, Visit
from repro.nn import Embedding, Linear, Module
from repro.serve.protocol import PredictorBase
from repro.train import TrainConfig, Trainer, TrainHistory
from repro.utils import spawn


class _ToyModel(Module, PredictorBase):
    """Predicts the next POI id from the last prefix POI (learnable table).

    Defines only ``loss_sample``; the trainer reaches it through the
    summing ``PredictorBase.loss_batch``.
    """

    requires_gradient_training = True

    def __init__(self, num_pois=6, rng=None):
        super().__init__()
        self.table = Embedding(num_pois, 8, rng=rng or spawn(0))
        self.head = Linear(8, num_pois, rng=rng or spawn(1))
        self.seen_samples = 0

    def loss_sample(self, sample):
        self.seen_samples += 1
        emb = self.table(np.array([sample.prefix[-1].poi_id]))
        logits = self.head(emb[0])
        return cross_entropy(logits.reshape(1, -1), np.array([sample.target.poi_id]))


def _samples(n=24):
    # deterministic mapping i -> (i+1) % 6 is learnable by the toy model
    return [
        PredictionSample(
            user_id=0,
            history=[],
            prefix=[Visit(i % 6, float(i))],
            target=Visit((i + 1) % 6, float(i) + 0.5),
            history_key=(0, i),
        )
        for i in range(n)
    ]


class TestTrainer:
    def test_learns_deterministic_mapping(self):
        model = _ToyModel()
        history = Trainer(model, TrainConfig(epochs=30, batch_size=4, lr=0.05)).fit(_samples())
        assert history.epoch_losses[-1] < 0.1

    def test_max_train_samples_cap(self):
        model = _ToyModel()
        Trainer(model, TrainConfig(epochs=1, batch_size=4, max_train_samples=8)).fit(_samples(24))
        assert model.seen_samples == 8

    def test_epoch_callback_invoked(self):
        calls = []
        model = _ToyModel()
        Trainer(model, TrainConfig(epochs=3, batch_size=8)).fit(
            _samples(8), epoch_callback=lambda e, loss: calls.append((e, loss))
        )
        assert [e for e, _ in calls] == [0, 1, 2]

    def test_lr_decays_per_epoch(self):
        model = _ToyModel()
        trainer = Trainer(model, TrainConfig(epochs=3, batch_size=8, lr=1e-2, lr_decay=0.5))
        trainer.fit(_samples(8))
        assert trainer.optimizer.lr == pytest.approx(1e-2 * 0.5 ** 3)

    def test_deterministic_given_seed(self):
        h1 = Trainer(_ToyModel(rng=spawn(3)), TrainConfig(epochs=2, seed=4)).fit(_samples())
        h2 = Trainer(_ToyModel(rng=spawn(3)), TrainConfig(epochs=2, seed=4)).fit(_samples())
        assert h1.epoch_losses == h2.epoch_losses

    def test_history_improved_flag(self):
        assert TrainHistory(epoch_losses=[2.0, 1.0]).improved()
        assert not TrainHistory(epoch_losses=[1.0, 2.0]).improved()
        assert not TrainHistory(epoch_losses=[1.0]).improved()
