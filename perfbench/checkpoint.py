"""Train and save the serving checkpoint the perfbench workloads load.

Runs in its own process, before and outside every timed run, so the
workloads' ``setup_s`` and ``peak_rss_mb`` describe serving alone.
Usage: ``python3 perfbench/checkpoint.py OUT.npz`` (``run.py`` calls it
when the checkpoint is missing).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

from repro.experiments import get_profile, prepare, run_one
from repro.serve import save_checkpoint

from common import CHECKPOINT_RECIPE, DATASET, note


def main(out: str) -> int:
    started = time.perf_counter()
    profile = replace(
        get_profile(CHECKPOINT_RECIPE["profile"]),
        dataset_scale=DATASET["scale"],
        imagery_resolution=DATASET["imagery_resolution"],
    )
    data = prepare(DATASET["name"], profile, seed=DATASET["seed"])
    metrics, model = run_one(
        CHECKPOINT_RECIPE["model"], data, profile, seed=CHECKPOINT_RECIPE["seed"]
    )
    partial = f"{out}.partial"
    save_checkpoint(model, partial, dataset=data.dataset)
    os.replace(partial, out)  # readers never see a half-written file
    note(
        f"checkpoint {out}: trained in {time.perf_counter() - started:.1f}s, "
        f"Recall@10={metrics['Recall@10']:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
