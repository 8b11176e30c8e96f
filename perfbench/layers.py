"""Which program entry points the traced run wraps, and the per-layer metrics.

Every span name below is one layer boundary.  ``instrument`` wraps the
entry points before the workload builds its objects (the stream and
quality observers capture bound methods at registration time).  An
entry point the program no longer has stops the traced run with an
error: a moved or renamed layer must not read as a layer that got free.

Each workload reports every per-layer metric ``BENCHMARK.json`` lists:
a layer the workload bypasses reads 0, which is itself the prediction
("no change here") for an optimisation of that layer.
"""

from __future__ import annotations

import importlib
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from common import catalogue, metric
from tracer import Tracer

#: (module, attribute owner or None for a module function, attribute, span)
ENTRY_POINTS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.serve.predictor", "Predictor", "predict_batch", "serve.predict_batch"),
    ("repro.core.model", "TSPNRA", "build_encode_plan", "serve.plan_trace"),
    ("repro.autograd.plan", "Plan", "run", "autograd.plan_replay"),
    ("repro.core.model", "TSPNRA", "encode_batch", "core.encode"),
    ("repro.core.fusion", "FusionModule", "forward_batch", "core.fusion"),
    ("repro.core.hgat", "HGATEncoder", "forward_packed", "core.hgat"),
    ("repro.core.model", None, "rank_tiles_batch", "core.rank_tiles"),
    ("repro.core.model", None, "rank_pois_batch", "core.rank_pois"),
    ("repro.core.tilesystem", "QuadTreeTileSystem", "build_graph", "graphs.build_graph"),
    ("repro.core.hgat", "HGATEncoder", "build_masks", "graphs.build_masks"),
    ("repro.graphs.incremental", "QRPGraphMaintainer", "append_session", "graphs.append_session"),
    ("repro.graphs.incremental", "QRPGraphMaintainer", "evict_session", "graphs.evict_session"),
    ("repro.graphs.incremental", "QRPGraphMaintainer", "build_state", "graphs.build_state"),
    ("repro.stream.ingest", "StreamIngest", "ingest", "stream.ingest"),
    ("repro.stream.state", "UserStateStore", "snapshot", "stream.snapshot"),
    ("repro.obs.quality", "QualityMonitor", "record", "obs.quality"),
    ("repro.obs.quality", "QualityMonitor", "observe_checkin", "obs.quality"),
    ("repro.obs.drift", "DriftDetector", "update", "obs.drift"),
    ("repro.core.model", "TSPNRA", "loss_batch", "train.loss_batch"),
    ("repro.core.model", "TSPNRA", "compute_embeddings", "train.compute_embeddings"),
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward"),
    ("repro.optim.adam", "Adam", "step", "optim.step"),
    ("repro.optim.adam", "Adam", "zero_grad", "optim.zero_grad"),
]

#: span names summed into each self-time metric
SELF_TIME = {
    "serve.predict_batch_s": ("serve.predict_batch",),
    "serve.plan_trace_s": ("serve.plan_trace",),
    "graphs.qrp_build_s": ("graphs.build_graph", "graphs.build_masks"),
    "graphs.incremental_s": (
        "graphs.append_session",
        "graphs.evict_session",
        "graphs.build_state",
    ),
    "core.encode_s": ("core.encode",),
    "core.fusion_s": ("core.fusion",),
    "core.hgat_s": ("core.hgat",),
    "core.rank_s": ("core.rank_tiles", "core.rank_pois"),
    "autograd.plan_replay_s": ("autograd.plan_replay",),
    "autograd.backward_s": ("autograd.backward",),
    "optim.step_s": ("optim.step", "optim.zero_grad"),
    "train.forward_s": ("train.loss_batch", "train.compute_embeddings"),
    "stream.ingest_s": ("stream.ingest",),
    "stream.snapshot_s": ("stream.snapshot",),
    "obs.quality_s": ("obs.quality",),
    "obs.drift_s": ("obs.drift",),
}

#: The benchmark's own root spans; their self time is unaccounted time.
ROOT_PREFIX = "bench."


def _candidates_tag(args, kwargs):
    candidate_lists = args[2] if len(args) > 2 else kwargs["candidate_lists"]
    return (len(candidate_lists), sum(len(c) for c in candidate_lists))


_batch_ids = itertools.count()


def _batch_tag(args, kwargs):
    """``(batch id, batch size)`` of a ``Predictor.predict_batch`` call."""
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    return (next(_batch_ids), len(samples))


_TAGS = {"core.rank_pois": _candidates_tag, "serve.predict_batch": _batch_tag}


def instrument(tracer: Tracer) -> None:
    """Wrap every entry point, and count autograd tensors.

    A missing module, class or attribute raises.
    """
    from repro.autograd.tensor import Tensor

    for module_name, owner_name, attr, span in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        tracer.wrap(owner, attr, span, tag=_TAGS.get(span))
    tracer.count_instances(Tensor)


def layer_metrics(
    tracer: Tracer, counters: Dict[str, float], tensors: int, calls: int
) -> Dict:
    """Every per-layer metric from the spans plus workload counters.

    ``counters`` carries what the workload reads off its own objects
    (plan and graph caches, ingest counters, tracing overhead);
    ``tensors`` autograd tensors were built over ``calls`` predict
    batches or train steps.
    """
    table = tracer.by_name()

    def self_s(names: Iterable[str]) -> float:
        return sum(table[n]["self_s"] for n in names if n in table)

    values: Dict[str, float] = {name: self_s(spans) for name, spans in SELF_TIME.items()}
    rows = tracer.tags("core.rank_pois")
    values["core.candidates_mean"] = (
        sum(c for _, c in rows) / sum(n for n, _ in rows) if rows else 0.0
    )
    values["graphs.qrp_builds"] = table.get("graphs.build_graph", {}).get("calls", 0)
    values["graphs.incremental_updates"] = table.get("graphs.append_session", {}).get(
        "calls", 0
    )
    values["graphs.evictions"] = table.get("graphs.evict_session", {}).get("calls", 0)
    values["autograd.tensors_per_call"] = tensors / calls if calls else 0.0
    roots = [entry for name, entry in table.items() if name.startswith(ROOT_PREFIX)]
    wall = sum(entry["total_s"] for entry in roots)
    values["trace.wall_s"] = wall
    values["trace.unaccounted_ratio"] = (
        sum(entry["self_s"] for entry in roots) / wall if wall else 0.0
    )
    values.update(counters)
    return {
        name: metric(float(values.get(name, 0.0)), unit)
        for name, unit in catalogue("per_layer")
    }


def cache_counts(plan_cache, graph_caches) -> Dict[str, float]:
    """Cumulative plan- and graph-cache counters (absent caches read 0)."""
    plans = plan_cache.stats() if plan_cache is not None else {}
    caches = [c for c in graph_caches if c is not None]
    return {
        "plan_hits": plans.get("hits", 0),
        "plan_misses": plans.get("misses", 0),
        "plan_traces": plans.get("traces", 0),
        "plan_buffer_bytes": sum(p.get("buffer_bytes", 0) for p in plans.get("plans", ())),
        "graph_hits": sum(getattr(c, "hits", 0) for c in caches),
        "graph_misses": sum(getattr(c, "misses", 0) for c in caches),
    }


def cache_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Plan/graph cache layer metrics over the window between two counts."""
    delta = {key: after[key] - before[key] for key in after}
    plan_lookups = delta["plan_hits"] + delta["plan_misses"]
    graph_lookups = delta["graph_hits"] + delta["graph_misses"]
    return {
        "serve.plan_hit_ratio": delta["plan_hits"] / plan_lookups if plan_lookups else 0.0,
        "serve.plan_traces": delta["plan_traces"],
        # live plans at the end of the window, not a delta
        "serve.plan_buffer_mb": after["plan_buffer_bytes"] / 1e6,
        "serve.graph_cache_hit_ratio": (
            delta["graph_hits"] / graph_lookups if graph_lookups else 0.0
        ),
    }
