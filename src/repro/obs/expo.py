"""Prometheus text exposition: render, parse, and diff scrapes.

:func:`render_prometheus` turns registry snapshots (the JSON-safe dicts
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` produces) into the
Prometheus text format ``GET /metrics`` serves: ``# HELP``/``# TYPE``
headers, counters with a ``_total`` suffix, histograms as cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count``.  Values carry
their instruments' labels.

:func:`parse_prometheus` is the tiny stdlib reverse map — enough to
validate a scrape in CI and to power :func:`diff_scrapes`, which turns
two scrapes into the per-interval rate/latency table behind
``repro obs-report``.  Every scrape embeds a
``repro_scrape_timestamp_seconds`` gauge precisely so the diff can
recover the interval without trusting file mtimes.
"""

from __future__ import annotations

import math
import re
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "render_prometheus",
    "parse_prometheus",
    "diff_scrapes",
    "format_report",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(raw: str) -> str:
    name = _SANITISE.sub("_", raw)
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: Mapping[str, str], extra: Optional[Mapping[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshots: Sequence[Dict], *, timestamp: Optional[float] = None) -> str:
    """Registry snapshot dicts → Prometheus text format.

    Snapshots from several registries concatenate naturally: series
    with the same name but different labels group under one HELP/TYPE
    header.  Counter names get the conventional ``_total`` suffix here,
    at the exposition edge, so in-process code keeps the bare name.
    """
    # Group by exposition name, preserving first-seen order.
    groups: Dict[str, List[Dict]] = {}
    order: List[str] = []
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for snap in snapshots:
        name = _metric_name(snap["name"])
        if snap["kind"] == "counter" and not name.endswith("_total"):
            name += "_total"
        if name not in groups:
            groups[name] = []
            order.append(name)
            kinds[name] = snap["kind"]
            helps[name] = snap.get("help", "")
        groups[name].append(snap)

    lines: List[str] = []
    for name in order:
        kind = kinds[name]
        if helps[name]:
            lines.append(f"# HELP {name} {helps[name]}")
        lines.append(f"# TYPE {name} {kind}")
        for snap in groups[name]:
            labels = snap.get("labels", {})
            if kind == "histogram":
                cumulative = 0
                bounds = list(snap["buckets"]) + [float("inf")]
                for bound, count in zip(bounds, snap["counts"]):
                    cumulative += count
                    le = _format_value(bound) if not math.isinf(bound) else "+Inf"
                    lines.append(
                        f"{name}_bucket{_label_str(labels, {'le': le})} {cumulative}"
                    )
                lines.append(f"{name}_sum{_label_str(labels)} {_format_value(snap['sum'])}")
                lines.append(f"{name}_count{_label_str(labels)} {snap['count']}")
            else:
                lines.append(f"{name}{_label_str(labels)} {_format_value(snap['value'])}")

    stamp = timestamp if timestamp is not None else time.time()
    lines.append("# TYPE repro_scrape_timestamp_seconds gauge")
    lines.append(f"repro_scrape_timestamp_seconds {_format_value(stamp)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# parsing (stdlib-only; the CI validator and obs-report both use this)
# ----------------------------------------------------------------------
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^ ]+)"
    r"(?:\s+\d+)?$"  # optional timestamp, ignored
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


_ESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape(value: str) -> str:
    """Decode label-value escapes in one left-to-right scan.

    Chained ``str.replace`` passes are order-sensitive and wrong: a raw
    backslash followed by ``n`` renders as ``\\\\n`` (escaped
    backslash, literal n), but a ``\\n``-first replace pass would eat
    the tail of that escaped backslash and decode it to backslash +
    newline.  A single scan consumes each escape exactly once —
    the precise inverse of :func:`_escape_label`.
    """
    if "\\" not in value:
        return value
    out: List[str] = []
    i, n = 0, len(value)
    while i < n:
        char = value[i]
        if char == "\\" and i + 1 < n:
            follower = value[i + 1]
            out.append(_ESCAPE_MAP.get(follower, "\\" + follower))
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    return float(raw)


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Text format → ``{(series_name, sorted_labels): value}``.

    Raises :class:`ValueError` on any malformed non-comment line, which
    is exactly what the CI smoke check wants: a scrape either parses
    completely or fails loudly.
    """
    series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    types: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE.match(stripped)
        if not match:
            raise ValueError(f"line {lineno}: unparseable sample: {stripped!r}")
        labels: List[Tuple[str, str]] = []
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = _LABEL.findall(raw_labels)
            reassembled = ",".join(f'{k}="{v}"' for k, v in consumed)
            if len(reassembled) != len(raw_labels.rstrip(",")):
                raise ValueError(f"line {lineno}: malformed labels: {raw_labels!r}")
            labels = [(k, _unescape(v)) for k, v in consumed]
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(f"line {lineno}: bad value: {match.group('value')!r}")
        series[(match.group("name"), tuple(sorted(labels)))] = value
    series.setdefault(("__types__", ()), 0.0)  # sentinel: parse reached EOF
    series.pop(("__types__", ()))
    return series


# ----------------------------------------------------------------------
# scrape diffing (repro obs-report)
# ----------------------------------------------------------------------
def diff_scrapes(before_text: str, after_text: str) -> Dict:
    """Two scrapes → rates and interval latency quantiles.

    Counters report ``delta`` and ``per_second`` over the embedded
    scrape-timestamp interval.  Histograms report interval count, mean,
    and p50/p95/p99 from the *bucket deltas* — the latency of requests
    served between the two scrapes, not since process start.  Gauges
    report before → after.

    The two scrapes need not cover identical series: a series new in
    ``after`` is flagged ``absent_before`` (its delta counts from
    zero), and series that vanished land in the ``absent`` list — both
    surface as notes in :func:`format_report` instead of a KeyError.
    A scrape missing its ``repro_scrape_timestamp_seconds`` gauge
    (hand-edited files, foreign exporters) yields ``interval_seconds
    = None`` and per-second rates of ``None`` with an actionable note,
    rather than rates computed over a bogus interval.
    """
    before = parse_prometheus(before_text)
    after = parse_prometheus(after_text)
    notes: List[str] = []
    t0 = before.get(("repro_scrape_timestamp_seconds", ()))
    t1 = after.get(("repro_scrape_timestamp_seconds", ()))
    if t0 is None or t1 is None:
        interval = None
        missing = [side for side, t in (("before", t0), ("after", t1)) if t is None]
        notes.append(
            "repro_scrape_timestamp_seconds is missing from the "
            + " and ".join(missing)
            + (" scrapes" if len(missing) > 1 else " scrape")
            + "; per-second rates omitted — scrape GET /metrics directly "
            "(the gauge is embedded in every scrape this stack renders)"
        )
    else:
        interval = max(t1 - t0, 0.0)

    def _rate(delta: float) -> Optional[float]:
        if interval is None:
            return None
        return delta / interval if interval > 0 else 0.0

    absent = [
        {"name": name, "labels": dict(labels)}
        for name, labels in sorted(set(before) - set(after))
        if name != "repro_scrape_timestamp_seconds"
    ]

    counters: List[Dict] = []
    histograms: List[Dict] = []
    gauges: List[Dict] = []
    quality: List[Dict] = []

    # Histogram series come as name_bucket/name_sum/name_count triples;
    # reassemble per (base name, labels-minus-le).
    hist_parts: Dict[Tuple[str, Tuple], Dict] = {}

    for key, after_value in sorted(after.items()):
        name, labels = key
        if name == "repro_scrape_timestamp_seconds":
            continue
        before_value = before.get(key)
        if name.endswith("_bucket"):
            base = name[: -len("_bucket")]
            label_dict = dict(labels)
            le = label_dict.pop("le", None)
            part_key = (base, tuple(sorted(label_dict.items())))
            entry = hist_parts.setdefault(part_key, {"buckets": []})
            delta = after_value - (before_value or 0.0)
            entry["buckets"].append((_parse_value(le) if le else float("inf"), delta))
        elif name.endswith("_sum") and (name[: -len("_sum")] + "_count", labels) in after:
            base = name[: -len("_sum")]
            part_key = (base, labels)
            hist_parts.setdefault(part_key, {"buckets": []})["sum"] = after_value - (
                before_value or 0.0
            )
        elif name.endswith("_count") and (name[: -len("_count")] + "_sum", labels) in after:
            base = name[: -len("_count")]
            part_key = (base, labels)
            hist_parts.setdefault(part_key, {"buckets": []})["count"] = after_value - (
                before_value or 0.0
            )
        elif name.endswith("_total"):
            delta = after_value - (before_value or 0.0)
            counters.append(
                {
                    "name": name,
                    "labels": dict(labels),
                    "delta": delta,
                    "per_second": _rate(delta),
                    "absent_before": before_value is None,
                }
            )
        else:
            row = {
                "name": name,
                "labels": dict(labels),
                "before": before_value,
                "after": after_value,
            }
            # model-quality and drift gauges get their own report
            # section; burying them in the changed-gauges noise would
            # defeat the point of scraping them
            if name.startswith(("repro_quality_", "repro_drift_")):
                quality.append(row)
            else:
                gauges.append(row)

    for (base, labels), parts in sorted(hist_parts.items()):
        count = parts.get("count", 0.0)
        buckets = sorted(parts["buckets"])
        quantiles = {
            f"p{q}": _delta_bucket_quantile(buckets, count, q) for q in (50, 95, 99)
        }
        histograms.append(
            {
                "name": base,
                "labels": dict(labels),
                "count": count,
                "per_second": _rate(count),
                "mean": (parts.get("sum", 0.0) / count) if count else 0.0,
                **quantiles,
            }
        )

    return {
        "interval_seconds": interval,
        "counters": counters,
        "histograms": histograms,
        "gauges": gauges,
        "quality": quality,
        "absent": absent,
        "notes": notes,
    }


def _delta_bucket_quantile(cumulative_deltas: Sequence[Tuple[float, float]],
                           total: float, q: float) -> float:
    """Quantile from *cumulative* bucket deltas (Prometheus-style)."""
    if total <= 0:
        return 0.0
    rank = total * q / 100.0
    previous_bound, previous_cum = 0.0, 0.0
    for bound, cum in cumulative_deltas:
        if cum >= rank:
            in_bucket = cum - previous_cum
            if math.isinf(bound):
                return previous_bound
            if in_bucket <= 0:
                return bound
            fraction = (rank - previous_cum) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cum
    return previous_bound


def format_report(diff: Dict, *, min_delta: float = 0.0) -> str:
    """The ``repro obs-report`` table, as plain text."""
    lines: List[str] = []
    interval = diff["interval_seconds"]
    if interval is None:
        lines.append("interval: unknown (scrape-timestamp gauge missing; "
                     "rates omitted)")
    else:
        lines.append(f"interval: {interval:.2f}s")
    for note in diff.get("notes", ()):
        lines.append(f"note: {note}")

    def _rate_cell(rate: Optional[float], width: int) -> str:
        return f"{'-':>{width}}" if rate is None else f"{rate:>{width}.2f}"

    new_series = False
    active_counters = [c for c in diff["counters"] if abs(c["delta"]) > min_delta]
    if active_counters:
        lines.append("")
        lines.append(f"{'counter':<52} {'delta':>10} {'rate/s':>10}")
        for c in sorted(active_counters, key=lambda c: -c["delta"]):
            label = c["name"] + _label_str(c["labels"])
            marker = ""
            if c.get("absent_before"):
                marker, new_series = " *", True
            lines.append(
                f"{label:<52} {c['delta']:>10.0f} "
                f"{_rate_cell(c['per_second'], 10)}{marker}"
            )

    active_hists = [h for h in diff["histograms"] if h["count"] > min_delta]
    if active_hists:
        lines.append("")
        header = (
            f"{'histogram (ms for *_seconds)':<44} {'count':>8} {'rate/s':>8} "
            f"{'mean':>8} {'p50':>8} {'p95':>8} {'p99':>8}"
        )
        lines.append(header)
        for h in sorted(active_hists, key=lambda h: -h["count"]):
            label = h["name"] + _label_str(h["labels"])
            # *_seconds histograms read best in milliseconds; anything
            # else (batch sizes, byte counts) stays in its own unit
            scale = 1000.0 if h["name"].endswith("_seconds") else 1.0
            lines.append(
                f"{label:<44} {h['count']:>8.0f} {_rate_cell(h['per_second'], 8)} "
                f"{h['mean'] * scale:>8.2f} {h['p50'] * scale:>8.2f} "
                f"{h['p95'] * scale:>8.2f} {h['p99'] * scale:>8.2f}"
            )

    def _gauge_table(title: str, rows: Sequence[Dict]) -> None:
        lines.append("")
        lines.append(f"{title:<52} {'before':>10} {'after':>10}")
        for g in rows:
            label = g["name"] + _label_str(g["labels"])
            before = "-" if g["before"] is None else f"{g['before']:.6g}"
            lines.append(f"{label:<52} {before:>10} {g['after']:>10.6g}")

    quality = diff.get("quality", ())
    if quality:
        _gauge_table("model quality / drift", quality)

    changed_gauges = [
        g for g in diff["gauges"]
        if g["before"] is None or g["before"] != g["after"]
    ]
    if changed_gauges:
        _gauge_table("gauge", changed_gauges)

    if new_series:
        lines.append("")
        lines.append("* series absent from the before scrape; "
                     "delta counts from zero")

    absent = diff.get("absent", ())
    if absent:
        lines.append("")
        lines.append(f"absent from the after scrape ({len(absent)} series):")
        for row in absent[:20]:
            lines.append(f"  {row['name']}{_label_str(row['labels'])}")
        if len(absent) > 20:
            lines.append(f"  ... and {len(absent) - 20} more")

    return "\n".join(lines) + "\n"
