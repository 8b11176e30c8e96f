"""Shared plumbing of the perfbench workloads: paths, environment, statistics.

Nothing here imports ``repro``: the launcher (``run.py``) uses this module
before the program's source tree is known to exist.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# build outputs (the serving checkpoint, span dumps) live under the
# checkout's ignored build directory
BUILD = ROOT / ".bench_build" / "perfbench"

#: The dataset every workload runs on: the NYC preset at scale 1.0
#: (620 POIs, 110 users, 5.4k check-ins), built from a fixed seed so the
#: program under test is the same for every ``--seed``.
DATASET = {"name": "nyc", "seed": 0, "scale": 1.0, "imagery_resolution": 32}

#: The serving checkpoint: the quick experiment profile trained on
#: ``DATASET`` in a separate, untimed process.
CHECKPOINT_RECIPE = {"dataset": DATASET, "profile": "quick", "model": "TSPN-RA", "seed": 0}

#: Seed of the model's random streams (dropout, negative sampling).  The
#: checkpoint loader gets an explicit generator, and the process-global
#: generator is reset before every model is built: the fusion stacks'
#: dropout layers are constructed without a generator and keep drawing
#: from the global one, so without the reset a training run would depend
#: on what ran earlier in the process.
MODEL_SEED = 0

#: Pinned interpreter environment of every workload process.  One BLAS
#: thread: OpenBLAS's default two threads slow both serving and the
#: train step on a two-core box and make them noisier.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOADS = ("stream_rollover", "train_batched")


def catalogue(kind: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every ``kind`` metric ``BENCHMARK.json`` declares.

    ``kind`` is ``"end_to_end"`` or ``"per_layer"``; the file is the one
    list of metric names and units, which the result reports in order.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in spec[kind]]


def checkpoint_path() -> Path:
    digest = hashlib.sha1(
        json.dumps(CHECKPOINT_RECIPE, sort_keys=True).encode()
    ).hexdigest()[:12]
    return BUILD / f"tspnra-{digest}.npz"


def child_env() -> Dict[str, str]:
    """The environment workload and helper processes run under."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def environment() -> Dict:
    """Cores, BLAS, interpreter and library versions of this process."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "cpu_cores": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return math.inf if rank > lo or ordered[lo] == math.inf else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> List[float]:
    return [percentile(values, p) for p in (25.0, 50.0, 75.0)]


def quality(ranks: Sequence[int]) -> Dict[str, float]:
    """Recall@10 and MRR from 1-based target ranks.

    Ranks come from ``PredictorResult.poi_rank``, which applies the
    paper's miss rule: a target outside the step-two candidate set ranks
    ``num_pois + 1``, beyond every cutoff.
    """
    if not ranks:
        return {"recall_at_10": 0.0, "mrr": 0.0}
    return {
        "recall_at_10": sum(1 for r in ranks if r <= 10) / len(ranks),
        "mrr": sum(1.0 / r for r in ranks) / len(ranks),
    }


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def emit(record: Dict) -> None:
    """Print one JSON object on its own line (the result protocol)."""
    print(json.dumps(record, default=str), flush=True)


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def ensure_build_dir() -> None:
    BUILD.mkdir(parents=True, exist_ok=True)


def require_source() -> Optional[str]:
    """An error message when the program's source tree is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source under {SRC.relative_to(ROOT)}/repro"
    return None
