"""Efficiency probes for the Table V comparison.

Measures wall-clock training time, inference time and peak traced
memory on a common workload.  Absolute values are CPU/numpy-specific;
the reproduction target is the *relative* ordering across models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..utils.timer import Stopwatch


@dataclass
class EfficiencyReport:
    """One Table V row."""

    model_name: str
    peak_memory_mb: float
    train_seconds: float
    infer_seconds: float

    def as_row(self) -> list:
        return [
            self.model_name,
            f"{self.peak_memory_mb:,.1f}M",
            _mmss(self.train_seconds),
            _mmss(self.infer_seconds),
        ]


def _mmss(seconds: float) -> str:
    minutes, secs = divmod(seconds, 60.0)
    return f"{int(minutes):02d}:{secs:04.1f}"


def measure(
    model_name: str,
    train_fn: Callable[[], None],
    infer_fn: Callable[[], None],
) -> EfficiencyReport:
    """Run train then inference closures under the probes."""
    with Stopwatch(trace_memory=True) as train_watch:
        train_fn()
    with Stopwatch(trace_memory=False) as infer_watch:
        infer_fn()
    return EfficiencyReport(
        model_name=model_name,
        peak_memory_mb=train_watch.result.peak_megabytes,
        train_seconds=train_watch.result.seconds,
        infer_seconds=infer_watch.result.seconds,
    )
