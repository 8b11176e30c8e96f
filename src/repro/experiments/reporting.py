"""Plain-text table rendering for experiment outputs.

All table/figure runners return structured dicts; these helpers print
them in the layout of the corresponding paper table so paper-vs-
measured comparison is a side-by-side read.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

METRIC_COLUMNS = (
    "Recall@5",
    "Recall@10",
    "Recall@20",
    "NDCG@5",
    "NDCG@10",
    "NDCG@20",
    "MRR",
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]], title: str = "") -> str:
    """Fixed-width ASCII table."""
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "-" * len(line)
    body = [line, rule]
    for row in rows:
        body.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    out = "\n".join(body)
    if title:
        out = f"{title}\n{rule}\n{out}"
    return out


def format_results(
    results: Mapping[str, Mapping[str, float]],
    columns: Sequence[str] = METRIC_COLUMNS,
    title: str = "",
    highlight: Optional[str] = None,
) -> str:
    """Render a {model: {metric: value}} mapping like paper Tables II-IV."""
    rows = []
    for model, metrics in results.items():
        marker = "*" if highlight and model == highlight else " "
        rows.append([f"{marker}{model}"] + [f"{metrics.get(c, float('nan')):.4f}" for c in columns])
    return format_table(["Model"] + list(columns), rows, title=title)


def improvement_row(
    ours: Mapping[str, float],
    best_baseline: Mapping[str, float],
    columns: Sequence[str] = METRIC_COLUMNS,
) -> Dict[str, str]:
    """Percentage improvement of ours over the best baseline per metric."""
    out = {}
    for column in columns:
        base = best_baseline.get(column, 0.0)
        if base <= 0:
            out[column] = "n/a"
        else:
            out[column] = f"{(ours[column] - base) / base * 100.0:+.2f}%"
    return out


def best_baseline(
    results: Mapping[str, Mapping[str, float]],
    exclude: str,
    column: str = "MRR",
) -> str:
    """Name of the strongest non-excluded model by one metric."""
    candidates = {m: v for m, v in results.items() if m != exclude}
    return max(candidates, key=lambda m: candidates[m].get(column, 0.0))


def relative_drop(ours: Mapping[str, float], ablated: Mapping[str, float], columns) -> float:
    """Mean relative metric change of an ablation vs the full model (Table IV impro@avg)."""
    drops = []
    for column in columns:
        full_value = ours.get(column, 0.0)
        if full_value > 0:
            drops.append((ablated.get(column, 0.0) - full_value) / full_value)
    return 100.0 * (sum(drops) / len(drops)) if drops else 0.0
