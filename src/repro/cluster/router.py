"""The cluster's routing layer: shard pool ownership, routing, supervision.

:class:`ClusterRouter` is the parent process's brain.  It checks the
checkpoint once, pins a copy of it at ``<persist>/checkpoint.npz`` for
every shard to load, spawns one
:class:`~repro.cluster.worker.ShardHandle` per shard over per-shard
persistence directories (``<persist>/shard-NN/``), and routes every
user-keyed operation through the consistent-hash ring.  A supervisor
thread heartbeats the pool and restarts any shard that dies or stops
answering — the restarted process recovers its durable state before
reporting ready, so a crash costs availability of one shard's users
for the recovery window and nothing else.

The router answers the single-process server's JSON request surface
(``checkin_json``/``predict_json``/``reload_json``, each a
``(status, body)`` pair), so the one
:class:`~repro.serve.server.HttpFrontend` serves either tier.
"""

from __future__ import annotations

import logging
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs import (
    MetricsRegistry,
    SlowRing,
    Trace,
    current_trace,
    maybe_trace,
    merge_summaries,
    render_prometheus,
)
from ..serve.server import ServerConfig
from ..stream.state import StoreConfig
from .ring import HashRing
from .wal import FSYNC_POLICIES
from .worker import SHARD_SERVER, SHARD_STORE, ShardError, ShardHandle, WorkerSpec

logger = logging.getLogger("repro.cluster.router")


@dataclass
class ClusterConfig:
    """Knobs of the multi-process tier.

    ``server`` and ``store`` are the single-process tier's own configs,
    shipped to every shard; the rest configure each shard's event log
    and the router's supervision.
    """

    num_shards: int = 2
    fsync: str = "rotate"
    snapshot_interval: int = 1000
    segment_max_records: int = 10000
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 5.0
    auto_restart: bool = True
    server: ServerConfig = SHARD_SERVER
    store: StoreConfig = SHARD_STORE

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}")


class ClusterRouter:
    """Owns N shard workers and routes user-keyed operations to them."""

    def __init__(self, checkpoint_path, persist_dir, config: Optional[ClusterConfig] = None):
        from ..serve.checkpoint import read_checkpoint

        self.config = config or ClusterConfig()
        self.checkpoint_path = str(checkpoint_path)
        self.persist_dir = Path(persist_dir)
        meta, _, _ = read_checkpoint(checkpoint_path)
        if "dataset" not in meta:
            raise ValueError(
                "cluster serving needs a self-contained checkpoint "
                "(saved with dataset=) so every shard can rebuild the dataset"
            )
        self.meta = meta
        # Every shard start and restart loads this copy, not the
        # caller's file: replacing that file mid-run must not leave a
        # restarted shard serving other weights than its peers.
        self.persist_dir.mkdir(parents=True, exist_ok=True)
        self.pinned_checkpoint = self.persist_dir / "checkpoint.npz"
        partial = self.persist_dir / "checkpoint.npz.partial"
        shutil.copyfile(checkpoint_path, partial)
        os.replace(partial, self.pinned_checkpoint)
        self.ring = HashRing(range(self.config.num_shards))
        self.shards: List[ShardHandle] = [
            ShardHandle(self._spec(index)) for index in range(self.config.num_shards)
        ]
        self._supervisor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        self._lock = threading.Lock()
        self.restarts_total = 0
        # Router-side observability: its own registry (shard registries
        # are scraped over the control pipe at /metrics time, never
        # mirrored here) plus a worst-N ring of sampled routed requests.
        self.registry = MetricsRegistry()
        self.slow_ring = SlowRing(self.config.server.slow_ring_size)
        self._routed = self.registry.counter(
            "router_requests", "Routed operations by op",
        )
        self._route_errors = self.registry.counter(
            "router_request_errors", "Routed operations whose reply was not ok",
        )
        self._traces_sampled = self.registry.counter(
            "router_traces_sampled", "Routed requests that carried a trace",
        )
        self._route_seconds = self.registry.histogram(
            "router_request_seconds", "Round-trip latency through the shard pipe",
        )
        self.registry.gauge(
            "cluster_shards", "Configured shard count", fn=lambda: len(self.shards),
        )
        self.registry.gauge(
            "cluster_restarts", "Shard restarts since router start",
            fn=lambda: self.restarts_total,
        )

    def _spec(self, index: int) -> WorkerSpec:
        c = self.config
        return WorkerSpec(
            shard_index=index,
            persist_dir=str(self.persist_dir / f"shard-{index:02d}"),
            checkpoint_path=str(self.pinned_checkpoint),
            fsync=c.fsync,
            snapshot_interval=c.snapshot_interval,
            segment_max_records=c.segment_max_records,
            server=c.server,
            store=c.store,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterRouter":
        if self._started:
            raise RuntimeError("cluster already started")
        # all shards boot concurrently: spawn, dataset rebuild, recovery
        # and warmup overlap instead of paying N serial cold starts
        def boot(shard: ShardHandle) -> None:
            ready = shard.start()
            logger.info(
                "shard %d up (pid %s): %s",
                shard.spec.shard_index,
                shard.pid,
                ready.get("recovery"),
            )

        try:
            with ThreadPoolExecutor(max_workers=len(self.shards)) as pool:
                list(pool.map(boot, self.shards))
        except ShardError:
            for shard in self.shards:
                if shard.alive:
                    shard.kill()
            raise
        self._supervisor = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True
        )
        self._started = True
        self._supervisor.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(self.config.heartbeat_interval_s + 5.0)
            self._supervisor = None
        for shard in self.shards:
            shard.shutdown()
        self._started = False

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval_s):
            for shard in self.shards:
                if self._stop.is_set():
                    return
                healthy = shard.alive and shard.ping(
                    timeout=self.config.heartbeat_timeout_s
                )
                if healthy or not self.config.auto_restart:
                    continue
                logger.warning(
                    "shard %d unhealthy (%s); restarting",
                    shard.spec.shard_index,
                    shard.dead_reason or "ping failed",
                )
                try:
                    self.restart_shard(shard.spec.shard_index)
                except ShardError as error:
                    logger.error(
                        "shard %d restart failed: %s", shard.spec.shard_index, error
                    )

    def restart_shard(self, index: int) -> Dict:
        """Restart one shard (supervisor path; also callable directly)."""
        shard = self.shards[index]
        with self._lock:
            if shard.alive and shard.ping(timeout=self.config.heartbeat_timeout_s):
                return {"ok": True, "already_running": True}
            if shard._process is not None and shard._process.is_alive():
                shard.kill()  # wedged, not dead: clear it before respawn
            ready = shard.restart()
            self.restarts_total += 1
            logger.info(
                "shard %d recovered: %s", index, ready.get("recovery")
            )
            return ready

    # ------------------------------------------------------------------
    # routed operations
    # ------------------------------------------------------------------
    def shard_for(self, user_id: int) -> ShardHandle:
        return self.shards[self.ring.shard_for(user_id)]

    def _route(self, shard: ShardHandle, payload: Dict) -> Dict:
        """One routed round-trip: metrics always, tracing when sampled.

        A traced request opens a ``route.<op>`` span, ships the trace
        carrier in the payload, and grafts the shard's exported spans
        back under that span (right-aligned at reply arrival — the two
        processes' monotonic clocks share no epoch, so durations and
        in-trace order travel, absolute times do not).  The trace is
        the caller's active one (the HTTP handler's); without one the
        router samples its own and offers it to its slow ring.
        """
        trace = current_trace()
        owned = trace is None
        if owned:
            trace = maybe_trace(self.config.server.trace_sample)
        timeout = self.config.server.request_timeout_s
        self._routed.inc()
        start = time.monotonic()
        try:
            if trace is None:
                reply = shard.request(payload, timeout=timeout)
            else:
                index = trace.begin(
                    f"route.{payload.get('op')}", shard=shard.spec.shard_index
                )
                reply = shard.request(
                    dict(payload, trace=trace.carrier()), timeout=timeout
                )
                spans = reply.pop("spans", None) if isinstance(reply, dict) else None
                if spans:
                    trace.graft(spans, parent=index)
                trace.finish(index)
                if owned:
                    self.offer_trace(trace)
        finally:
            self._route_seconds.observe(time.monotonic() - start)
        if not reply.get("ok"):
            self._route_errors.inc()
        return reply

    def checkin(self, payload: Dict) -> Dict:
        """Route one check-in body; the shard's reply comes back as-is.

        A malformed body (no integer ``user_id``) can't be routed and
        fails here with a 400-shaped reply; everything else — including
        the 409 out-of-order conflict — is the shard's verdict,
        propagated unchanged.
        """
        user_id = payload.get("user_id")
        if isinstance(user_id, bool) or not isinstance(user_id, int):
            return {"ok": False, "code": 400, "error": "user_id must be an integer"}
        return self._route(self.shard_for(user_id), {"op": "checkin", "event": payload})

    def predict(self, payload: Dict, recommend: bool = False) -> Dict:
        """Route one ``/predict`` (or ``/recommend``) body by ``user_id``.

        A body without an integer ``user_id`` goes to shard 0, which
        serves a stateless request (it ships its own history) or
        rejects the body exactly as the single-process tier would.
        Routing by user keeps a user's QR-P graph cache warm on one
        shard instead of smeared across all of them.
        """
        user_id = payload.get("user_id")
        routable = isinstance(user_id, int) and not isinstance(user_id, bool)
        shard = self.shard_for(user_id) if routable else self.shards[0]
        return self._route(
            shard, {"op": "predict", "payload": payload, "recommend": recommend}
        )

    def predict_user(self, user_id: int, k: int = 10) -> Dict:
        return self.predict({"user_id": user_id, "k": k})

    # ------------------------------------------------------------------
    # JSON request surface (the single-process server's, routed)
    # ------------------------------------------------------------------
    def checkin_json(self, payload: Dict) -> Tuple[int, Dict]:
        return self._answer(self.checkin, payload)

    def predict_json(self, payload: Dict, recommend: bool = False) -> Tuple[int, Dict]:
        return self._answer(self.predict, payload, recommend)

    def reload_json(self, payload: Dict) -> Tuple[int, Dict]:
        # Hot weight swap would need a coordinated cut-over across
        # shards; a half-switched cluster serving two weight versions
        # is worse than "restart to reload".
        return 501, {"error": "cluster weight reload is not supported; "
                              "restart the cluster with the new checkpoint"}

    @staticmethod
    def _answer(op, *args) -> Tuple[int, Dict]:
        """A routed op's reply as ``(status, body)``: the shard's own
        status, or 503 when the shard cannot answer."""
        try:
            reply = op(*args)
        except ShardError as error:
            return 503, {"error": str(error)}
        if reply.get("ok"):
            return 200, reply["result"]
        return reply.get("code", 500), {"error": reply.get("error", "")}

    def stream_events(
        self, events: List[Dict], predict_every: int = 0, k: int = 10
    ) -> Dict:
        """Partition a batch of event bodies by shard and fan out.

        Every shard's sub-tape goes out concurrently (one thread per
        shard blocked on its pipe, workers ingesting in parallel
        processes).  Relative order *within a user* is preserved (a
        user maps to exactly one shard and the partition is stable),
        which is the only order the store's monotonic-timestamp rule
        cares about.
        """
        by_shard: Dict[int, List[Dict]] = {}
        for payload in events:
            user_id = payload.get("user_id")
            if isinstance(user_id, bool) or not isinstance(user_id, int):
                raise ValueError("every event needs an integer user_id")
            by_shard.setdefault(self.ring.shard_for(user_id), []).append(payload)

        # One trace covers the whole fan-out: each shard's sub-tape gets
        # its own route.stream span (opened from the pool thread — Trace
        # appends are thread-safe) with the shard's spans grafted under it.
        trace = maybe_trace(self.config.server.trace_sample)

        def one_shard(index: int, batch: List[Dict]) -> Dict:
            request = {
                "op": "stream",
                "events": batch,
                "predict_every": predict_every,
                "k": k,
            }
            span_index = None
            if trace is not None:
                span_index = trace.begin("route.stream", shard=index, events=len(batch))
                request["trace"] = trace.carrier()
            reply = self.shards[index].request(
                request, timeout=max(self.config.server.request_timeout_s, 120.0)
            )
            if trace is not None:
                spans = reply.pop("spans", None) if isinstance(reply, dict) else None
                if spans:
                    trace.graft(spans, parent=span_index)
                trace.finish(span_index)
            if not reply.get("ok"):
                raise ShardError(f"shard {index} stream failed: {reply.get('error')}")
            return reply

        self._routed.inc()
        start = time.monotonic()
        try:
            with ThreadPoolExecutor(max_workers=len(by_shard) or 1) as pool:
                replies = list(
                    pool.map(lambda item: one_shard(*item), sorted(by_shard.items()))
                )
        finally:
            self._route_seconds.observe(time.monotonic() - start)
            if trace is not None:
                self.offer_trace(trace)
        acks = 0
        rejected = 0
        predictions = 0
        for reply in replies:
            acks += sum(1 for a in reply["acks"] if a.get("ok"))
            rejected += sum(1 for a in reply["acks"] if not a.get("ok"))
            predictions += len(reply["predictions"])
        return {"acks": acks, "rejected": rejected, "predictions": predictions}

    def user_versions(self) -> Dict[str, Dict]:
        """Cluster-wide ``user -> version`` map (kill-recover assertions)."""
        merged: Dict[str, Dict] = {}
        for shard in self.shards:
            reply = shard.request({"op": "versions"}, timeout=30.0)
            if reply.get("ok"):
                merged.update(reply["users"])
        return merged

    def snapshot_all(self) -> List[Optional[str]]:
        """Force a snapshot on every shard (e.g. before planned restart)."""
        out: List[Optional[str]] = []
        for shard in self.shards:
            reply = shard.request({"op": "snapshot"}, timeout=60.0)
            out.append(reply.get("snapshot") if reply.get("ok") else None)
        return out

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        shards = []
        for shard in self.shards:
            alive = shard.alive and shard.ping(timeout=self.config.heartbeat_timeout_s)
            shards.append(
                {
                    "shard": shard.spec.shard_index,
                    "status": "ok" if alive else "down",
                    "pid": shard.pid,
                    "restarts": shard.restarts,
                    "reason": shard.dead_reason,
                }
            )
        healthy = sum(1 for s in shards if s["status"] == "ok")
        return {
            "status": "ok" if healthy == len(shards) else
            ("degraded" if healthy else "down"),
            "shards": shards,
        }

    def metrics_text(self) -> str:
        """Prometheus text for the whole cluster (``GET /metrics``).

        The router's own instruments expose unlabelled; every shard's
        registry snapshot comes over the control pipe and is stamped
        with a ``shard`` label, so one scrape shows the ring side by
        side.  A shard that cannot answer contributes only
        ``repro_shard_up{shard="NN"} 0`` — a scrape never fails because
        a shard is mid-restart.
        """
        snapshots: List[Dict] = list(self.registry.snapshot())
        for shard in self.shards:
            label = f"{shard.spec.shard_index:02d}"
            up = 0.0
            try:
                reply = shard.control_metrics(timeout=self.config.heartbeat_timeout_s)
                if reply.get("ok"):
                    up = 1.0
                    for snap in reply.get("metrics", []):
                        snap["labels"] = {**snap.get("labels", {}), "shard": label}
                        snapshots.append(snap)
            except ShardError:
                pass
            snapshots.append(
                {
                    "name": "repro_shard_up",
                    "kind": "gauge",
                    "help": "1 if the shard answered the metrics scrape",
                    "labels": {"shard": label},
                    "value": up,
                }
            )
        return render_prometheus(snapshots)

    def quality_report(self) -> Dict:
        """Cluster-wide model-quality report (``GET /quality``).

        Each shard's prequential summary comes over the control pipe and
        :func:`~repro.obs.quality.merge_summaries` adds them into the
        ``cluster`` section.  A shard that cannot answer contributes a
        ``status: down`` entry; the scrape never fails because a shard
        is mid-restart.
        """
        shards: List[Dict] = []
        reports: List[Dict] = []
        for shard in self.shards:
            index = shard.spec.shard_index
            try:
                reply = shard.control_quality(
                    timeout=self.config.heartbeat_timeout_s
                )
            except ShardError as error:
                reply = {"ok": False, "error": str(error)}
            if not reply.get("ok"):
                shards.append(
                    {"shard": index, "status": "down", "error": reply.get("error")}
                )
                continue
            report = reply.get("quality", {})
            shards.append({"shard": index, "status": "ok", "quality": report})
            if report.get("enabled"):
                reports.append(report)
        if not reports:
            return {"enabled": False, "shards": shards}
        return {"enabled": True, "shards": shards, "cluster": merge_summaries(reports)}

    def slow_requests(self, n: int = 10) -> List[Dict]:
        """The router's worst sampled routed requests (``/debug/slow``)."""
        return self.slow_ring.slow(n)

    @property
    def trace_sample(self) -> float:
        """The request-tracing rate the HTTP handler samples at."""
        return self.config.server.trace_sample

    def offer_trace(self, trace: Trace) -> None:
        """Count one finished sampled request; keep it if among the slowest."""
        self._traces_sampled.inc()
        self.slow_ring.offer(trace)

    def stats(self) -> Dict:
        """Cluster-wide roll-up plus per-shard detail (``GET /stats``)."""
        per_shard = []
        totals = {
            "queue_depth": 0,
            "in_flight": 0,
            "users": 0,
            "events": 0,
            "requests_completed": 0,
        }
        for shard in self.shards:
            entry: Dict = {"shard": shard.spec.shard_index, "restarts": shard.restarts}
            try:
                reply = shard.control_stats()
            except ShardError as error:
                entry["status"] = "down"
                entry["error"] = str(error)
                per_shard.append(entry)
                continue
            stats = reply.get("stats", {})
            stream = stats.get("stream", {})  # flat store+pipeline roll-up
            entry.update(
                {
                    "status": "ok",
                    "queue_depth": stats.get("queue_depth", 0),
                    "in_flight": stats.get("in_flight", 0),
                    "users": stream.get("users", 0),
                    "events": stream.get("events", 0),
                    "requests_completed": stats.get("requests", {}).get("completed", 0),
                    "durability": stream.get("durability", {}),
                    "recovery": stats.get("recovery", {}),
                    "plans": stats.get("plans", {"enabled": False}),
                }
            )
            for key in totals:
                totals[key] += entry.get(key, 0)
            per_shard.append(entry)
        return {
            "cluster": {
                "num_shards": len(self.shards),
                "restarts_total": self.restarts_total,
                "totals": totals,
                "shards": per_shard,
            },
            "checkpoint": self.checkpoint_path,
            "model": self.meta.get("model_name"),
            "tracing": {
                "sample_rate": self.config.server.trace_sample,
                "sampled": int(self._traces_sampled.value),
                "slow_ring": len(self.slow_ring),
            },
        }
