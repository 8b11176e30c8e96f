"""Training throughput of the batched loss path — BENCH_train.

One leg through :class:`repro.train.Trainer`: one padded, fully
differentiable ``loss_batch`` forward/backward per mini-batch (batched
fusion attention, packed edge-list HGAT, vectorised ArcFace heads).
The model's caches (QR-P graphs, imagery columns) are warmed by one
untimed epoch first, so the numbers reflect steady-state epochs rather
than first-touch graph construction.  Then ``ROUNDS`` rounds of
``MEASURED_EPOCHS`` epochs each are timed one after another; the
report gives the median and quartiles of the rounds' samples/s, and
every round's value, so one noisy sub-second leg cannot stand for the
whole run.

A loss-parity check asserts that padding never reaches a real row:
``loss_batch`` over one mini-batch equals the sum of the batch's
batches of one (in eval mode — under training, dropout draws its masks
in batch-shape-dependent order).

Alongside the human-readable table the run emits
``benchmarks/results/BENCH_train.json`` — the machine-readable BENCH
trajectory point (median samples/sec as ``batched_sps``, its quartiles
and every round's samples/sec, the loss-parity residual, and the cores,
BLAS library and ``OPENBLAS_NUM_THREADS`` it was measured under).  Run
standalone with ``PYTHONPATH=src python
benchmarks/bench_train_throughput.py`` (the CI workflow does exactly
that and uploads the JSON artifact).
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import format_table, get_profile, prepare, build_model
from repro.train import TrainConfig, Trainer

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).parent / "results"
BATCH_SIZE = 8  # the paper's training batch size
TRAIN_SAMPLES = 160
MEASURED_EPOCHS = 2  # per timed round
ROUNDS = 9


def _train_config(profile, epochs):
    return TrainConfig(
        epochs=epochs,
        batch_size=BATCH_SIZE,
        lr=profile.lr,
        max_train_samples=TRAIN_SAMPLES,
        seed=0,
    )


def _measure(data, profile):
    """Samples/sec of each of ROUNDS rounds of MEASURED_EPOCHS steady-state epochs."""
    model = build_model("TSPN-RA", data, profile, seed=0)
    Trainer(model, _train_config(profile, epochs=1)).fit(
        data.splits.train
    )  # untimed warm-up epoch: builds QR-P graphs / imagery columns
    rates = []
    for _ in range(ROUNDS):
        trainer = Trainer(model, _train_config(profile, MEASURED_EPOCHS))
        start = time.perf_counter()
        trainer.fit(data.splits.train)
        rates.append(TRAIN_SAMPLES * MEASURED_EPOCHS / (time.perf_counter() - start))
    return rates


def _loss_parity(data, profile):
    """Relative |loss_batch(batch) - sum of its batches of one|.

    Computed in eval mode: training-mode dropout would draw different
    masks for different batch shapes.
    """
    model = build_model("TSPN-RA", data, profile, seed=0)
    model.eval()
    batch = data.splits.train[:BATCH_SIZE]
    shared = model.compute_embeddings()
    singles = sum(model.loss_batch([sample], *shared).item() for sample in batch)
    batched = model.loss_batch(batch, *model.compute_embeddings()).item()
    return abs(batched - singles) / abs(singles)


def _environment():
    """Cores, BLAS library and BLAS thread setting of this process."""
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "cpu_cores": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_bench(profile=None, save_report=None):
    profile = (profile or get_profile("quick")).smaller(0.5)
    data = prepare("nyc", profile, seed=0)

    parity = _loss_parity(data, profile)
    rates = _measure(data, profile)
    q1, median, q3 = statistics.quantiles(rates, n=4)
    report = {
        "batched_sps": median,
        "batched_sps_q1": q1,
        "batched_sps_q3": q3,
        "loss_parity_rel_diff": parity,
    }

    rows = [
        [f"batched samples/s (median of {ROUNDS})", f"{median:10.2f}"],
        ["  quartiles", f"{q1:.2f}-{q3:.2f}"],
        ["loss parity rel diff", f"{parity:10.2e}"],
    ]
    table = format_table(
        ["Metric", "Value"],
        rows,
        title=f"Training throughput — batched loss (NYC, batch {BATCH_SIZE})",
    )
    if save_report is not None:
        save_report("train_throughput", table)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "train_throughput.txt").write_text(table + "\n")
        print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    trajectory_point = {
        "bench": "train",
        "dataset": "nyc",
        "batch_size": BATCH_SIZE,
        "train_samples": TRAIN_SAMPLES,
        "warmup_epochs": 1,
        "measured_epochs": MEASURED_EPOCHS,
        "rounds": ROUNDS,
        **_environment(),
        **{key: round(value, 6) for key, value in report.items()},
        "round_sps": [round(rate, 6) for rate in rates],
    }
    out = RESULTS_DIR / "BENCH_train.json"
    out.write_text(json.dumps(trajectory_point, indent=2) + "\n")
    print(f"[BENCH trajectory point saved to {out}]")

    assert parity < 1e-9, report
    return report


def bench_train_throughput(profile, save_report):
    run_bench(profile=profile, save_report=save_report)


if __name__ == "__main__":
    run_bench()
