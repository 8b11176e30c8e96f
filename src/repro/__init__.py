"""TSPN-RA reproduction: spatial & semantic next-POI prediction with
remote-sensing augmentation (ICDE 2024).

Public API tour
---------------
Research loop — build, train, evaluate:

>>> from repro.data import build_dataset, make_samples, split_samples
>>> from repro.core import TSPNRA, TSPNRAConfig
>>> from repro.train import Trainer, TrainConfig
>>> from repro.eval import evaluate
>>> dataset = build_dataset("nyc", seed=0, scale=0.3)
>>> splits = split_samples(make_samples(dataset))
>>> model = TSPNRA.from_dataset(dataset, TSPNRAConfig(dim=32))
>>> Trainer(model, TrainConfig(epochs=2)).fit(splits.train)  # doctest: +SKIP
>>> evaluate(model, splits.test)  # doctest: +SKIP

Serving loop — persist, reload, serve (``repro.serve``):

>>> from repro.serve import Predictor, save_checkpoint  # doctest: +SKIP
>>> save_checkpoint(model, "tspnra.npz", dataset=dataset)  # doctest: +SKIP
>>> predictor = Predictor.from_checkpoint("tspnra.npz")  # doctest: +SKIP
>>> predictor.predict_batch(splits.test[:32])  # doctest: +SKIP
>>> predictor.recommend(splits.test[0].prefix, k=5)  # doctest: +SKIP
>>> predictor.stats.throughput  # doctest: +SKIP

Every model — TSPN-RA and all ten baselines — conforms to
``repro.serve.PredictorProtocol``: one result type
(``PredictorResult``), shared-state inference
(``compute_embeddings()`` / ``predict_batch(samples, *shared)``, with
``predict(sample)`` a batch of one), ``top_k`` and ``target_rank``.

Sub-packages: ``autograd`` / ``nn`` / ``optim`` (the ML substrate),
``geo`` / ``spatial`` / ``roadnet`` / ``imagery`` (the urban substrate),
``data`` (check-ins), ``graphs`` (QR-P), ``core`` (the model),
``baselines``, ``train``, ``eval``, ``serve`` (checkpoints + serving
facade), ``stream`` (online ingestion + prequential evaluation),
``experiments``.
"""

__version__ = "1.1.0"

from . import (
    autograd,
    baselines,
    core,
    data,
    eval,
    experiments,
    geo,
    graphs,
    imagery,
    nn,
    optim,
    roadnet,
    serve,
    spatial,
    stream,
    train,
    utils,
)

__all__ = [
    "autograd",
    "baselines",
    "core",
    "data",
    "eval",
    "experiments",
    "geo",
    "graphs",
    "imagery",
    "nn",
    "optim",
    "roadnet",
    "serve",
    "spatial",
    "stream",
    "train",
    "utils",
]
