"""train_batched: ``Trainer.fit`` on the batched loss path, then a held-out eval.

Training continues from the serving checkpoint, at a fine-tuning
learning rate, for a fixed number of optimizer steps (batches of 8, the
paper's batch size) over training samples in a seeded order; starting
from trained weights keeps the held-out quality from swinging with the
order as much as a cold start would.  Every step runs the full path —
batched forward, ``Tensor.backward`` and ``Adam.step``.  This is the
only workload that runs backward and the optimizer, and it bypasses
serve, stream and compiled plans.

Set-up is the dataset rebuild plus model construction (with the
checkpoint's weights), the sample split and the trainer.  After set-up
the same training runs twice: in this process, then in a fresh replica
process, whose final loss and held-out ranks must match bit for bit.
The check needs the replica's fit anyway, so both fits are measured and
pooled.  A step's latency runs from ``Adam.zero_grad`` to the end of
``Adam.step``, and its percentiles pool the steps of both fits;
throughput is the samples of both fits over their seconds.  After each
fit the model ranks the held-out (validation + test) samples eagerly.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from typing import Dict, List

from repro.core.model import TSPNRA
from repro.data import make_samples, split_samples
from repro.optim.adam import Adam
from repro.serve import Predictor, load_checkpoint
from repro.train import TrainConfig, Trainer
from repro.utils.rng import set_seed, spawn

import inputs
from common import (
    DATASET,
    HERE,
    MODEL_SEED,
    ROOT,
    child_env,
    percentile,
    quality,
)
from layers import instrument, layer_metrics
from tracer import Tracer, root_span

BATCH_SIZE = 8
LEARNING_RATE = 3e-4
NOMINAL_STEPS_PER_S = 18.0  # sizes the run from --seconds
EVAL_CHUNK = 128
REPLICA_TIMEOUT_S = 150.0


class _State:
    def __init__(self, model, dataset, splits, trainer):
        self.model, self.dataset, self.splits, self.trainer = model, dataset, splits, trainer


class TrainBatched:
    name = "train_batched"

    def __init__(self, checkpoint: str, seed: int, seconds: float):
        self.checkpoint = checkpoint
        self.seed = seed
        self.seconds = seconds
        self.steps = max(1, int(round(NOMINAL_STEPS_PER_S * seconds)))

    def setup(self) -> _State:
        """Dataset rebuild, model init with weights, sample split, trainer."""
        set_seed(MODEL_SEED)  # see MODEL_SEED
        loaded = load_checkpoint(self.checkpoint, rng=spawn(MODEL_SEED))
        splits = split_samples(make_samples(loaded.dataset), seed=DATASET["seed"])
        trainer = Trainer(
            loaded.model,
            TrainConfig(epochs=1, batch_size=BATCH_SIZE, lr=LEARNING_RATE, seed=0),
        )
        return _State(loaded.model, loaded.dataset, splits, trainer)

    def teardown(self, state) -> None:
        pass

    def instrument(self, tracer) -> None:
        instrument(tracer)

    def make_inputs(self, state):
        samples, properties = inputs.train_order(
            state.splits.train, self.seed, self.steps * BATCH_SIZE
        )
        properties.update(steps=self.steps, batch_size=BATCH_SIZE, lr=LEARNING_RATE)
        return samples, properties

    # ------------------------------------------------------------------
    def measure(self, state, samples, tracer=None) -> Dict:
        """The in-process fit; untraced, also the replica's fit."""
        outcome = self.fit(state, samples, tracer)
        if tracer is None:
            outcome["replica"] = self._replica()
        return outcome

    def fit(self, state, samples, tracer=None) -> Dict:
        """One fit over ``samples`` in this process, then the held-out ranks."""
        # per-step probes: a step runs from zero_grad to the end of step
        probe = Tracer()
        step_started: List[float] = []
        step_ended: List[float] = []
        losses: List[float] = []
        probe.hook(Adam, "zero_grad", before=lambda args: step_started.append(time.perf_counter()))
        probe.hook(Adam, "step", after=lambda args, result: step_ended.append(time.perf_counter()))
        probe.hook(
            TSPNRA,
            "loss_batch",
            after=lambda args, result: losses.append(float(result.data)),
        )
        tensors = tracer.instances() if tracer is not None else 0
        try:
            started = time.perf_counter()
            with root_span(tracer, "bench.fit"):
                history = state.trainer.fit(samples)
            seconds = time.perf_counter() - started
        finally:
            probe.restore()
        tensors = (tracer.instances() if tracer is not None else 0) - tensors
        if tracer is not None:
            tracer.active = False  # the evaluation is not part of the traced fit
        try:
            ranks = self._evaluate(state)
        finally:
            if tracer is not None:
                tracer.active = True
        return {
            "samples": len(samples),
            "seconds": seconds,
            "step_seconds": [end - begin for begin, end in zip(step_started, step_ended)],
            "finite": sum(1 for loss in losses if math.isfinite(loss)),
            "final_loss": history.final_loss,
            "ranks": ranks,
            "tensors": tensors,
        }

    def replica_record(self, outcome) -> Dict:
        """What the replica process reports: its fingerprint and timings."""
        keys = ("samples", "seconds", "step_seconds", "finite")
        return dict({key: outcome[key] for key in keys}, fingerprint=self.fingerprint(outcome))

    def _replica(self) -> Dict:
        """The same training in a fresh process (``workload.py --replica``)."""
        command = [
            sys.executable,
            str(HERE / "workload.py"),
            "--workload", self.name,
            "--seed", str(self.seed),
            "--seconds", repr(self.seconds),
            "--replica",
        ]
        try:
            completed = subprocess.run(
                command,
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=REPLICA_TIMEOUT_S,
            )
            return json.loads(completed.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as error:
            return {"error": type(error).__name__}

    @staticmethod
    def _evaluate(state) -> List[int]:
        held_out = state.splits.valid + state.splits.test
        predictor = Predictor(state.model, graph_cache_size=None, compile=False)
        ranks: List[int] = []
        for lo in range(0, len(held_out), EVAL_CHUNK):
            ranks.extend(r.poi_rank for r in predictor.predict_batch(held_out[lo : lo + EVAL_CHUNK]))
        return ranks

    @staticmethod
    def _fits(outcome) -> List[Dict]:
        """The measured fits: this process's and, when it ran, the replica's."""
        replica = outcome.get("replica", {})
        return [outcome] + ([replica] if "fingerprint" in replica else [])

    def end_to_end(self, outcome) -> Dict[str, float]:
        fits = self._fits(outcome)
        steps = [s for fit in fits for s in fit["step_seconds"]]
        attempted = 2 * self.steps if "replica" in outcome else self.steps
        finite = sum(fit["finite"] for fit in fits)
        return {
            "throughput_per_s": sum(fit["samples"] for fit in fits)
            / sum(fit["seconds"] for fit in fits),
            "latency_p50_ms": 1000.0 * percentile(steps, 50.0),
            "latency_p90_ms": 1000.0 * percentile(steps, 90.0),
            **quality(outcome["ranks"]),
            "success_rate": finite / attempted,
            "attempted": attempted,
            "failed": attempted - finite,
        }

    @staticmethod
    def fingerprint(outcome) -> Dict:
        """What must repeat bit for bit in a fresh process."""
        return {
            "final_loss": repr(outcome["final_loss"]),
            "ranks": hashlib.sha1(json.dumps(outcome["ranks"]).encode()).hexdigest(),
            "steps": len(outcome["step_seconds"]),
        }

    def diagnostics(self, outcome) -> Dict:
        return {
            "final_loss": outcome["final_loss"],
            "fit_seconds": [fit["seconds"] for fit in self._fits(outcome)],
        }

    def check(self, state, samples, outcome) -> Dict:
        """Final loss and evaluation repeat exactly in a fresh process."""
        replica = outcome["replica"]
        if "error" in replica:
            return {"ok": False, "replica_error": replica["error"]}
        mine = self.fingerprint(outcome)
        finite = all(fit["finite"] == self.steps for fit in self._fits(outcome))
        return {
            "ok": replica["fingerprint"] == mine and finite,
            "fingerprint": mine,
            "replica": replica["fingerprint"],
        }

    def same_outputs(self, untraced, traced) -> bool:
        return self.fingerprint(untraced) == self.fingerprint(traced)

    def per_layer(self, state, outcome, tracer, untraced) -> Dict:
        fits = self._fits(untraced)
        base = sum(fit["seconds"] for fit in fits) / len(fits)
        counters = {"trace.overhead_pct": 100.0 * (outcome["seconds"] - base) / base}
        return layer_metrics(tracer, counters, outcome["tensors"], self.steps)
