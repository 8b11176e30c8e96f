"""Golden-metrics regression test for the seeded quick-profile eval.

Freezes the full train+evaluate pipeline output (Recall@K / NDCG@K /
MRR with the PR 2 ``num_pois + 1`` miss-rank semantics, batched
trainer) into ``tests/golden/quick_nyc_metrics.json``.  Ranks are
integers, so the metrics are exact rationals: any rank-semantics or
trainer regression shifts them far beyond the 1e-9 gate and fails
loudly, while benign refactors reproduce them exactly.

To regenerate after an *intentional* semantics change::

    PYTHONPATH=src python tests/test_golden_metrics.py

which rewrites the fixture in place (review the metric deltas in the
diff and justify them in the PR).
"""

import json
from pathlib import Path

import pytest

from repro.eval import metric_table
from repro.experiments import get_profile, prepare, run_one
from repro.serve import Predictor
from repro.utils.rng import set_seed

GOLDEN = Path(__file__).parent / "golden" / "quick_nyc_metrics.json"

# Float32 plan replay may swap near-ties in the ranking, so its
# aggregate metrics are tolerance-gated rather than exact.  The bound
# is deliberately tight: on the seeded quick profile the observed
# deltas are < 0.005 absolute; 0.02 leaves room for legitimate
# tie-break churn without letting a real regression through.
FLOAT32_METRIC_TOLERANCE = 0.02


def _current_metrics():
    # Dropout draws from the process-wide default generator; pin it so
    # the run is reproducible regardless of which tests ran before.
    set_seed(0)
    profile = get_profile("quick")
    data = prepare("nyc", profile, seed=profile.seed)
    metrics, model = run_one("TSPN-RA", data, profile, seed=profile.seed)
    return metrics, model, data, profile


@pytest.fixture(scope="module")
def trained():
    """One seeded quick-profile train shared by every gate below."""
    return _current_metrics()


@pytest.mark.slow
def test_quick_profile_metrics_match_golden(trained):
    golden = json.loads(GOLDEN.read_text())
    metrics, _, _, profile = trained
    assert golden["preset"] == "nyc" and golden["profile"] == profile.name
    assert set(metrics) == set(golden["metrics"])
    for name, frozen in golden["metrics"].items():
        assert metrics[name] == pytest.approx(frozen, abs=1e-9), (
            f"{name} drifted from the golden fixture: "
            f"{metrics[name]!r} != {frozen!r} — if intentional, regenerate "
            f"via `PYTHONPATH=src python {Path(__file__).name}`"
        )


@pytest.mark.slow
def test_float32_compiled_plans_within_golden_tolerance(trained):
    """Float32 plan replay stays inside the documented metric envelope.

    float64 is served eagerly and therefore covered by the exact 1e-9
    gate above; the opt-in float32 plan configuration is
    allowed to swap near-ties, so its Recall@K / NDCG@K / MRR must
    land within ``FLOAT32_METRIC_TOLERANCE`` of the golden fixture.
    """
    golden = json.loads(GOLDEN.read_text())
    _, model, data, profile = trained
    test = data.splits.test
    if profile.eval_samples is not None:
        test = test[: profile.eval_samples]
    predictor = Predictor(model, compile=True, plan_dtype="float32")
    ranks = []
    for start in range(0, len(test), 16):
        ranks.extend(
            r.poi_rank for r in predictor.predict_batch(test[start : start + 16])
        )
    metrics = metric_table(ranks)
    assert predictor.plan_cache is not None and predictor.plan_cache.traces >= 1
    for name, frozen in golden["metrics"].items():
        assert metrics[name] == pytest.approx(
            frozen, abs=FLOAT32_METRIC_TOLERANCE
        ), (
            f"{name} outside the float32 envelope: "
            f"{metrics[name]!r} vs golden {frozen!r} "
            f"(tolerance {FLOAT32_METRIC_TOLERANCE})"
        )


def regenerate():
    metrics, _, _, profile = _current_metrics()
    payload = {
        "description": (
            "Seeded quick-profile TSPN-RA eval on the synthetic NYC preset, "
            "batched trainer, miss-rank semantics "
            "(absent target ranks num_pois + 1). Regenerate with "
            "tests/test_golden_metrics.py::regenerate if semantics change "
            "intentionally."
        ),
        "preset": "nyc",
        "profile": profile.name,
        "seed": profile.seed,
        "metrics": metrics,
    }
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"regenerated {GOLDEN}")
    print(json.dumps(metrics, indent=2))


if __name__ == "__main__":
    regenerate()
