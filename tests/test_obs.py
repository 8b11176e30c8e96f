"""repro.obs: metrics core, Prometheus exposition, request tracing.

Three tiers of coverage, matching the three hand-offs tracing has to
survive: unit (instruments, render/parse/diff, span trees), single
process end-to-end (one trace id from the HTTP handler through the
scheduler's future into the model's encode/rank spans, visible at
``/debug/slow``), and cross-process (router-sampled traces whose shard
spans come back over the pipe re-parented under the routing span).
The sampling-off legs pin the "near-free when off" contract with the
``Span`` allocation probe — not a timing assertion, an allocation one.
"""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.cluster import ClusterConfig, ClusterRouter
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    SlowRing,
    Trace,
    activate,
    current_trace,
    diff_scrapes,
    format_report,
    maybe_trace,
    merge_histogram_snapshots,
    parse_prometheus,
    render_prometheus,
    snapshot_percentile,
    span,
    span_creation_count,
)
from repro.serve import HttpFrontend, InferenceServer, ServerConfig, save_checkpoint
from repro.utils import spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ======================================================================
# metrics core
# ======================================================================
class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("events", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_stored_and_callback(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == pytest.approx(3)
        live = registry.gauge("live", fn=lambda: 42.0)
        assert live.value == 42.0
        with pytest.raises(RuntimeError):
            live.set(1)

    def test_histogram_observe_and_bounds(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 0.5):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(0.5555)
        assert snap["counts"] == [1, 1, 1, 1]  # one per bucket + overflow
        assert snap["min"] == pytest.approx(0.0005)
        assert snap["max"] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(0.1, 0.1))

    def test_percentile_degenerate_is_exact(self):
        # every observation identical: the clamp makes interpolation
        # collapse to the true value, not the bucket midpoint
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for _ in range(1000):
            h.observe(0.001)
        assert h.percentile(50) == pytest.approx(0.001)
        assert h.percentile(99) == pytest.approx(0.001)

    def test_percentiles_are_ordered(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for i in range(1, 101):
            h.observe(i / 1000.0)
        p = h.percentiles((50, 95, 99))
        assert p["p50"] <= p["p95"] <= p["p99"]
        assert 0.001 <= p["p50"] <= 0.1

    def test_merge_equals_union(self):
        registry = MetricsRegistry()
        a = registry.histogram("a")
        b = registry.histogram("b")
        both = registry.histogram("both")
        for i in range(50):
            a.observe(i / 1000.0)
            both.observe(i / 1000.0)
        for i in range(50, 100):
            b.observe(i / 1000.0)
            both.observe(i / 1000.0)
        merged = merge_histogram_snapshots([a.snapshot(), b.snapshot()])
        assert merged["count"] == both.snapshot()["count"]
        assert merged["counts"] == both.snapshot()["counts"]
        assert snapshot_percentile(merged, 95) == pytest.approx(
            both.percentile(95)
        )

    def test_registry_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        first = registry.counter("x", labels={"w": "0"})
        again = registry.counter("x", labels={"w": "0"})
        other = registry.counter("x", labels={"w": "1"})
        assert first is again
        assert first is not other
        with pytest.raises(ValueError):
            registry.gauge("x", labels={"w": "0"})

    def test_adopt_shares_instruments(self):
        private = MetricsRegistry()
        counter = private.counter("orphan")
        counter.inc(7)
        host = MetricsRegistry()
        host.adopt(private)
        assert host.counter("orphan") is counter
        assert host.counter("orphan").value == 7


# ======================================================================
# exposition
# ======================================================================
class TestExposition:
    def _sample_registry(self):
        registry = MetricsRegistry()
        registry.counter("requests", "served", labels={"worker": "0"}).inc(10)
        registry.gauge("queue_depth", "waiting").set(3)
        h = registry.histogram("latency_seconds", "per request")
        for v in (0.002, 0.004, 0.008, 0.5):
            h.observe(v)
        return registry

    def test_render_parse_round_trip(self):
        text = render_prometheus(self._sample_registry().snapshot())
        parsed = parse_prometheus(text)
        assert parsed[("requests_total", (("worker", "0"),))] == 10.0
        assert parsed[("queue_depth", ())] == 3.0
        assert parsed[("latency_seconds_count", ())] == 4.0
        assert parsed[("latency_seconds_sum", ())] == pytest.approx(0.514)
        # the scrape stamps its own wall time for obs-report intervals
        assert ("repro_scrape_timestamp_seconds", ()) in parsed

    def test_text_format_shape(self):
        """Line-level checks independent of our own parser."""
        text = render_prometheus(self._sample_registry().snapshot())
        lines = text.splitlines()
        assert "# TYPE requests_total counter" in lines
        assert "# TYPE latency_seconds histogram" in lines
        assert any(
            re.match(r'latency_seconds_bucket\{le="\+Inf"\} 4$', line)
            for line in lines
        )
        # cumulative: every bucket count <= the next one
        bucket_values = [
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("latency_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert all(" " in line for line in lines if not line.startswith("#"))

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("odd", labels={"path": 'a"b\\c'}).inc()
        text = render_prometheus(registry.snapshot())
        parsed = parse_prometheus(text)
        assert parsed[("odd_total", (("path", 'a"b\\c'),))] == 1.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus {{{")

    def test_label_escaping_hostile_values(self):
        """Escaped newline vs literal backslash-n must survive a full
        render -> parse round trip as *distinct* label values."""
        hostile = {
            "newline": "a\nb",
            "literal": "a\\nb",  # backslash + 'n', not a newline
            "quote_mix": '\\"',
            "trailing": "tail\\",
        }
        registry = MetricsRegistry()
        for key, value in hostile.items():
            registry.counter("hostile", labels={"case": key, "v": value}).inc()
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        for key, value in hostile.items():
            label = (("case", key), ("v", value))
            assert parsed[("hostile_total", label)] == 1.0, key

    def test_diff_scrapes_rates_and_quantiles(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        h = registry.histogram("latency_seconds")
        counter.inc(5)
        h.observe(0.004)
        before = render_prometheus(registry.snapshot(), timestamp=100.0)
        counter.inc(20)
        for _ in range(10):
            h.observe(0.004)
        after = render_prometheus(registry.snapshot(), timestamp=110.0)

        diff = diff_scrapes(before, after)
        assert diff["interval_seconds"] == pytest.approx(10.0)
        (row,) = [c for c in diff["counters"] if c["name"] == "requests_total"]
        assert row["delta"] == pytest.approx(20.0)
        assert row["per_second"] == pytest.approx(2.0)
        (hist,) = diff["histograms"]
        assert hist["count"] == pytest.approx(10.0)
        assert 0.002 <= hist["p50"] <= 0.005  # interval-only observations
        report = format_report(diff)
        assert "requests_total" in report
        assert "interval: 10.00s" in report

    def test_diff_scrapes_survives_mismatched_series(self):
        """A series present on only one side is a note, not a KeyError."""
        registry = MetricsRegistry()
        gone = registry.counter("gone", labels={"shard": "0"})
        gone.inc(3)
        before = render_prometheus(registry.snapshot(), timestamp=100.0)

        fresh = MetricsRegistry()  # "restart": gone vanished, new appeared
        fresh.counter("appeared").inc(7)
        after = render_prometheus(fresh.snapshot(), timestamp=160.0)

        diff = diff_scrapes(before, after)
        (row,) = [c for c in diff["counters"] if c["name"] == "appeared_total"]
        assert row["absent_before"] is True
        assert row["delta"] == 7.0  # counts from zero, not KeyError
        assert {"name": "gone_total", "labels": {"shard": "0"}} in diff["absent"]
        report = format_report(diff)
        assert "gone_total" in report
        assert "absent" in report

    def test_diff_scrapes_without_timestamp_gauge(self):
        """Foreign / hand-edited scrapes lack our timestamp gauge:
        the diff degrades to rate-less with an actionable note."""
        before = "# TYPE requests_total counter\nrequests_total 5\n"
        after = "# TYPE requests_total counter\nrequests_total 25\n"
        diff = diff_scrapes(before, after)
        assert diff["interval_seconds"] is None
        (row,) = diff["counters"]
        assert row["delta"] == 20.0
        assert row["per_second"] is None
        assert any("repro_scrape_timestamp_seconds" in n for n in diff["notes"])
        report = format_report(diff)
        assert "per-second rates omitted" in report or "missing" in report

    def test_diff_scrapes_routes_quality_series_to_their_own_section(self):
        registry = MetricsRegistry()
        recall = registry.gauge(
            "repro_quality_recall", labels={"k": "10", "stratum": "all"}
        )
        psi = registry.gauge("repro_drift_psi", labels={"dist": "poi"})
        plain = registry.gauge("queue_depth")
        recall.set(0.25)
        psi.set(0.1)
        plain.set(3)
        before = render_prometheus(registry.snapshot(), timestamp=100.0)
        recall.set(0.5)
        psi.set(0.4)
        plain.set(9)
        after = render_prometheus(registry.snapshot(), timestamp=200.0)

        diff = diff_scrapes(before, after)
        quality_names = {row["name"] for row in diff["quality"]}
        assert quality_names == {"repro_quality_recall", "repro_drift_psi"}
        assert {row["name"] for row in diff["gauges"]} == {"queue_depth"}
        report = format_report(diff)
        assert "model quality / drift" in report
        assert "repro_quality_recall" in report


# ======================================================================
# tracing core
# ======================================================================
class TestTracing:
    def test_span_nesting_and_tags(self):
        trace = Trace()
        with activate(trace):
            with span("outer"):
                with span("inner", kind="test"):
                    trace.tag_current(deep=True)
        exported = trace.export_spans()
        assert [s["name"] for s in exported] == ["outer", "inner"]
        assert exported[0]["parent"] is None
        assert exported[1]["parent"] == 0
        assert exported[1]["tags"] == {"kind": "test", "deep": True}

    def test_span_noop_without_active_trace(self):
        before = span_creation_count()
        with span("ignored"):
            assert current_trace() is None
        assert span_creation_count() == before

    def test_carrier_round_trip(self):
        parent = Trace()
        child = Trace.from_carrier(parent.carrier())
        assert child is not None
        assert child.trace_id == parent.trace_id
        assert Trace.from_carrier(None) is None
        assert Trace.from_carrier({"sampled": False}) is None

    def test_graft_reparents_and_rebases(self):
        remote = Trace()
        with activate(remote):
            with span("shard.op"):
                with span("encode"):
                    pass
        local = Trace()
        root = local.begin("route")
        local.graft(remote.export_spans(), parent=root, anchor=local.started_at)
        local.finish(root)
        exported = local.export_spans()
        names = {s["name"]: s for s in exported}
        assert names["shard.op"]["parent"] == 0  # remote root under route
        assert names["encode"]["parent"] == 1  # remote structure intact
        tree = local.as_dict()
        assert tree["spans"][0]["name"] == "route"
        assert tree["spans"][0]["children"][0]["name"] == "shard.op"

    def test_maybe_trace_rates(self):
        assert maybe_trace(0.0) is None
        assert maybe_trace(-1.0) is None
        assert isinstance(maybe_trace(1.0), Trace)

    def test_trace_bounded(self):
        trace = Trace()
        for i in range(Trace.MAX_SPANS + 10):
            trace.add_span(f"s{i}", 0.0, 1.0)
        assert len(trace.export_spans()) == Trace.MAX_SPANS

    def test_slow_ring_keeps_worst(self):
        ring = SlowRing(capacity=3)
        for ms in (5, 1, 9, 3, 7):
            trace = Trace()
            trace.add_span("work", trace.started_at, trace.started_at + ms / 1000.0)
            ring.offer(trace)
        ring.offer(None)  # unsampled requests are a no-op
        assert ring.observed == 5
        worst = ring.slow(3)
        durations = [t["duration_ms"] for t in worst]
        assert durations == sorted(durations, reverse=True)
        assert durations[0] == pytest.approx(9.0, abs=0.5)
        assert len(ring.slow(100)) == 3

    def test_trace_is_thread_safe(self):
        trace = Trace()

        def contribute(tag):
            with activate(trace):
                for i in range(20):
                    with span(f"{tag}.{i}"):
                        pass

        threads = [
            threading.Thread(target=contribute, args=(f"t{n}",)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(trace.export_spans()) == 80


# ======================================================================
# end-to-end: single process
# ======================================================================
@pytest.fixture(scope="module")
def tiny():
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    samples = make_samples(dataset, last_only=False)
    splits = split_samples(samples, seed=0)
    return dataset, splits


@pytest.fixture(scope="module")
def model(tiny):
    dataset, _ = tiny
    model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url, parse=True):
    with urllib.request.urlopen(url, timeout=30) as response:
        raw = response.read()
        return response.status, (json.loads(raw) if parse else raw.decode())


def _span_names(node, into):
    into.add(node["name"])
    for child in node.get("children", ()):
        _span_names(child, into)


class TestServeTracing:
    @pytest.fixture(scope="class")
    def traced_stack(self, model):
        config = ServerConfig(
            workers=1, max_batch_size=4, max_wait_ms=1.0, trace_sample=1.0
        )
        server = InferenceServer(model, config=config).start()
        front = HttpFrontend(server, port=0).start()
        yield server, front
        front.stop()
        server.stop(drain=True)

    def test_one_trace_spans_queue_to_ranking(self, tiny, traced_stack):
        """The acceptance trace: >= 5 distinct named stages, one id."""
        _, splits = tiny
        server, front = traced_stack
        sample = splits.test[0]
        status, _ = _post(
            f"{front.url}/predict",
            {
                "user_id": sample.user_id,
                "prefix": [v.poi_id for v in sample.prefix],
            },
        )
        assert status == 200
        status, body = _get(f"{front.url}/debug/slow")
        assert status == 200
        assert body["slow"], "a fully-sampled request must reach the ring"
        trace = body["slow"][0]
        assert re.match(r"[0-9a-f]+-[0-9a-f]+-[0-9a-f]{8}", trace["trace_id"])
        names = set()
        for root in trace["spans"]:
            _span_names(root, names)
        assert {"http.parse", "validate", "queue.wait", "infer.batch"} <= names
        assert names & {"encode", "plan.replay"}
        assert "rank.two_step" in names
        assert len(names) >= 5
        assert trace["duration_ms"] > 0

    def test_metrics_endpoint_is_valid_prometheus(self, traced_stack):
        server, front = traced_stack
        status, text = _get(f"{front.url}/metrics", parse=False)
        assert status == 200
        parsed = parse_prometheus(text)
        names = {name for name, _ in parsed}
        assert "serve_request_requests_total" in names
        assert "scheduler_batch_size_bucket" in names
        assert "serve_batch_latency_seconds_bucket" in names
        assert "plan_cache_hits_total" in names
        assert "serve_traces_sampled_total" in names

    def test_stats_reports_tracing_section(self, traced_stack):
        server, front = traced_stack
        status, body = _get(f"{front.url}/stats")
        assert status == 200
        assert body["tracing"]["sample_rate"] == 1.0
        assert body["tracing"]["sampled"] >= 1

    def test_sampling_off_allocates_no_spans(self, tiny, model):
        _, splits = tiny
        config = ServerConfig(
            workers=1, max_batch_size=4, max_wait_ms=1.0, trace_sample=0.0
        )
        server = InferenceServer(model, config=config).start()
        front = HttpFrontend(server, port=0).start()
        try:
            sample = splits.test[0]
            payload = {
                "user_id": sample.user_id,
                "prefix": [v.poi_id for v in sample.prefix],
            }
            _post(f"{front.url}/predict", payload)  # warm every lazy path
            before = span_creation_count()
            for _ in range(5):
                status, _ = _post(f"{front.url}/predict", payload)
                assert status == 200
            assert span_creation_count() == before
            assert len(server.slow_ring) == 0
        finally:
            front.stop()
            server.stop(drain=True)


# ======================================================================
# end-to-end: cluster
# ======================================================================
@pytest.fixture(scope="module")
def checkpoint(tiny, tmp_path_factory):
    dataset, _ = tiny
    model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.npz"
    return save_checkpoint(model, path, dataset=dataset)


@pytest.fixture(scope="module")
def traced_cluster(tiny, checkpoint, tmp_path_factory):
    """A 2-shard cluster sampling every routed request."""
    dataset, _ = tiny
    config = ClusterConfig(
        num_shards=2,
        snapshot_interval=50,
        heartbeat_interval_s=0.5,
        auto_restart=False,
        server=ServerConfig(
            workers=1, max_wait_ms=2.0, request_timeout_s=30.0, trace_sample=1.0
        ),
    )
    router = ClusterRouter(
        checkpoint, tmp_path_factory.mktemp("persist"), config=config
    )
    router.start()
    from repro.stream.events import events_from_checkins

    events = [
        {"user_id": e.user_id, "poi_id": e.poi_id, "timestamp": e.timestamp}
        for e in events_from_checkins(dataset.checkins)
    ][:40]
    for event in events:
        reply = router.checkin(event)
        assert reply["ok"], reply
    yield router, events
    router.stop()


@pytest.mark.slow
class TestClusterTracing:
    def test_shard_spans_reparented_under_router_span(self, traced_cluster):
        router, events = traced_cluster
        reply = router.predict_user(events[0]["user_id"], k=5)
        assert reply["ok"], reply
        assert "spans" not in reply  # grafted into the trace, not leaked
        predict_traces = [
            t
            for t in router.slow_requests(router.slow_ring.capacity)
            if any(s["name"] == "route.predict" for s in t["spans"])
        ]
        assert predict_traces
        trace = predict_traces[0]
        route = next(s for s in trace["spans"] if s["name"] == "route.predict")
        child_names = set()
        for child in route.get("children", ()):
            _span_names(child, child_names)
        # the shard's op envelope plus its serving stages, re-parented
        assert "shard.predict" in child_names
        assert "queue.wait" in child_names
        assert "infer.batch" in child_names
        assert child_names & {"encode", "plan.replay"}

    def test_checkin_trace_carries_wal_span(self, traced_cluster):
        router, events = traced_cluster
        reply = router.checkin(
            {**events[-1], "timestamp": events[-1]["timestamp"] + 9999.0}
        )
        assert reply["ok"], reply
        checkin_traces = [
            t
            for t in router.slow_requests(router.slow_ring.capacity)
            if any(s["name"] == "route.checkin" for s in t["spans"])
        ]
        assert checkin_traces
        names = set()
        for root in checkin_traces[0]["spans"]:
            _span_names(root, names)
        assert "shard.checkin" in names
        assert "wal.append" in names

    def test_cluster_metrics_aggregates_shard_labels(self, traced_cluster):
        router, _ = traced_cluster
        text = router.metrics_text()
        parsed = parse_prometheus(text)
        shard_up = {
            dict(labels)["shard"]: value
            for (name, labels), value in parsed.items()
            if name == "repro_shard_up"
        }
        assert shard_up == {"00": 1.0, "01": 1.0}
        shard_series = {
            name
            for (name, labels), _ in parsed.items()
            if dict(labels).get("shard") in ("00", "01")
        }
        assert "serve_request_requests_total" in shard_series
        assert "wal_appended" in shard_series
        assert ("router_requests_total", ()) in parsed

    def test_cluster_http_metrics_and_slow(self, traced_cluster):
        router, _ = traced_cluster
        with HttpFrontend(router, port=0) as front:
            status, text = _get(f"{front.url}/metrics", parse=False)
            assert status == 200
            assert parse_prometheus(text)
            status, body = _get(f"{front.url}/debug/slow?n=3")
            assert status == 200
            assert body["slow"]
            assert len(body["slow"]) <= 3
