"""Observability tour: traces, histograms, and scraping the stack.

The serving runtime grew production habits — micro-batching, compiled
plans, WAL durability, a shard ring — and ``repro.obs`` is how you see
any of it working: every layer feeds one :class:`MetricsRegistry`
(counters, gauges, fixed-bucket histograms) and a sampled request
carries a trace through every hand-off — HTTP thread to scheduler
queue to inference batch to the model's encode/rank stages.  Six stops:

1. instruments: observe latencies into a histogram, read exact
   percentiles back (O(buckets) memory — no latency lists);
2. a traced request: serve over real HTTP with ``trace_sample=1.0``
   and print the span tree ``GET /debug/slow`` returns — queue wait,
   batch assembly, encode, two-step ranking, stage by stage;
3. the scrape: ``GET /metrics`` as Prometheus text — every counter the
   JSON ``/stats`` surface reports, plus bucketed latency series;
4. the diff: two scrapes a few hundred requests apart turned into the
   rate/latency table ``repro obs-report`` prints;
5. the off switch: with ``trace_sample=0.0`` the span hooks allocate
   *nothing* — proven with the Span allocation probe, not a promise;
6. model quality, live: a stateful server records every served top-K,
   the user's next ``POST /checkin`` joins it as the delayed label, and
   the scrape grows prequential ``repro_quality_recall`` /
   ``repro_quality_mrr`` series by cold-start stratum — plus the
   ``GET /quality`` JSON report and the drift detector's PSI gauges.

Runs in under a minute on a laptop CPU:

    python examples/observability.py
"""

import json
import threading
import urllib.request

from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.obs import (
    MetricsRegistry,
    diff_scrapes,
    format_report,
    parse_prometheus,
    span_creation_count,
)
from repro.serve import HttpFrontend, InferenceServer, ServerConfig
from repro.utils import spawn


def post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def get_text(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


def print_span(node, depth=0):
    tags = node.get("tags", {})
    tag_text = ("  " + " ".join(f"{k}={v}" for k, v in tags.items())) if tags else ""
    print(
        f"      {'  ' * depth}{node['name']:<24} "
        f"+{node['offset_ms']:7.2f} ms  {node['duration_ms']:7.2f} ms{tag_text}"
    )
    for child in node.get("children", ()):
        print_span(child, depth + 1)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. instruments: a histogram is 17 buckets, not a latency list
    # ------------------------------------------------------------------
    print("=" * 68)
    print("1. the metrics core: fixed-bucket histograms")
    print("=" * 68)
    registry = MetricsRegistry()
    latency = registry.histogram("demo_latency_seconds", "a worked example")
    for i in range(1, 1001):
        latency.observe(0.001 + (i % 50) * 0.0004)  # 1.0 .. 20.6 ms
    p = latency.percentiles((50, 95, 99))
    print(f"   1000 observations -> count={latency.count}, "
          f"p50 {p['p50'] * 1000:.2f} ms, p95 {p['p95'] * 1000:.2f} ms, "
          f"p99 {p['p99'] * 1000:.2f} ms")
    print("   memory: O(buckets) forever, however many observations")

    # ------------------------------------------------------------------
    # 2. a traced request through the full serving stack
    # ------------------------------------------------------------------
    print()
    print("=" * 68)
    print("2. one request, every stage: GET /debug/slow")
    print("=" * 68)
    dataset = build_dataset("nyc", seed=7, scale=0.3, imagery_resolution=32)
    splits = split_samples(make_samples(dataset), seed=7)
    model = TSPNRA.from_dataset(
        dataset,
        TSPNRAConfig(dim=32, fusion_layers=1, hgat_layers=1, top_k=10),
        rng=spawn(7),
    )
    model.eval()
    config = ServerConfig(
        max_batch_size=8, max_wait_ms=2.0, trace_sample=1.0
    )
    server = InferenceServer(model, config=config).start()
    front = HttpFrontend(server, port=0).start()
    try:
        def fire(count, offset=0):
            def client(index):
                sample = splits.test[(offset + index) % len(splits.test)]
                post(front.url + "/predict", {
                    "user_id": sample.user_id,
                    "prefix": [v.poi_id for v in sample.prefix],
                    "k": 5,
                })

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(count)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        fire(16)
        slow = json.loads(get_text(front.url + "/debug/slow?n=1"))["slow"]
        trace = slow[0]
        print(f"   slowest sampled request {trace['trace_id']} "
              f"({trace['duration_ms']:.2f} ms):")
        for root in trace["spans"]:
            print_span(root)

        # --------------------------------------------------------------
        # 3. the Prometheus scrape
        # --------------------------------------------------------------
        print()
        print("=" * 68)
        print("3. GET /metrics: the same numbers, scrape-able")
        print("=" * 68)
        first_scrape = get_text(front.url + "/metrics")
        interesting = [
            line for line in first_scrape.splitlines()
            if line.startswith(("serve_request_requests_total",
                                "scheduler_queue_depth",
                                "serve_request_batch_latency_seconds_bucket"))
        ]
        for line in interesting[:8]:
            print(f"   {line}")
        print(f"   ... {len(parse_prometheus(first_scrape))} series in all")

        # --------------------------------------------------------------
        # 4. diffing two scrapes: repro obs-report
        # --------------------------------------------------------------
        print()
        print("=" * 68)
        print("4. two scrapes -> one interval report (repro obs-report)")
        print("=" * 68)
        fire(48, offset=16)
        second_scrape = get_text(front.url + "/metrics")
        report = format_report(diff_scrapes(first_scrape, second_scrape),
                               min_delta=0)
        for line in report.splitlines():
            print(f"   {line}")
    finally:
        front.stop()
        server.stop(drain=True)

    # ------------------------------------------------------------------
    # 5. sampling off: allocation-free, not just cheap
    # ------------------------------------------------------------------
    print()
    print("=" * 68)
    print("5. trace_sample=0.0 allocates no spans at all")
    print("=" * 68)
    server = InferenceServer(
        model,
        config=ServerConfig(max_batch_size=8, max_wait_ms=2.0,
                            trace_sample=0.0),
    ).start()
    front = HttpFrontend(server, port=0).start()
    try:
        sample = splits.test[0]
        payload = {"user_id": sample.user_id,
                   "prefix": [v.poi_id for v in sample.prefix]}
        post(front.url + "/predict", payload)  # warm every lazy path
        before = span_creation_count()
        for _ in range(20):
            post(front.url + "/predict", payload)
        after = span_creation_count()
        print(f"   20 requests served, Span allocations: {after - before}")
        assert after == before, "sampling-off serving must not allocate spans"
    finally:
        front.stop()
        server.stop(drain=True)
    # ------------------------------------------------------------------
    # 6. model quality: the next check-in grades the last answer
    # ------------------------------------------------------------------
    print()
    print("=" * 68)
    print("6. live prequential quality: GET /quality")
    print("=" * 68)
    from repro.stream import StoreConfig, UserStateStore

    store = UserStateStore(StoreConfig())
    server = InferenceServer(
        model,
        config=ServerConfig(max_batch_size=8, max_wait_ms=2.0,
                            quality_window=3600.0, quality_topk=10),
        dataset=dataset,
        state_store=store,
    ).start()
    front = HttpFrontend(server, port=0).start()
    try:
        seen_users = set()
        demo = []
        for sample in splits.test:
            if sample.user_id in seen_users or len(sample.prefix) < 2:
                continue
            seen_users.add(sample.user_id)
            demo.append(sample)
            if len(demo) == 24:
                break
        for sample in demo:
            # replay the prefix as live check-ins, ask for a ranked list,
            # then check the user in where they *actually* went next:
            # that last event is the delayed label and joins the served
            # prediction on the ingest path
            for visit in sample.prefix:
                post(front.url + "/checkin", {
                    "user_id": sample.user_id,
                    "poi_id": visit.poi_id,
                    "timestamp": visit.timestamp,
                })
            post(front.url + "/predict", {"user_id": sample.user_id, "k": 10})
            post(front.url + "/checkin", {
                "user_id": sample.user_id,
                "poi_id": sample.target.poi_id,
                "timestamp": sample.target.timestamp,
            })
        quality = json.loads(get_text(front.url + "/quality"))
        joins = sum(quality["joins"].values())
        assert joins > 0, "the next check-in must join the served prediction"
        overall = quality["strata"]["all"]
        print(f"   {len(demo)} predictions served, {joins} joined by the "
              "user's next check-in")
        print(f"   windowed recall@10 {overall['recall']['10']:.3f}, "
              f"mrr {overall['mrr']:.3f}  (pending {quality['pending']})")
        print("   by cold-start stratum (completed sessions before serving):")
        for stratum in ("0", "1", "2+"):
            s = quality["strata"][stratum]
            print(f"     {stratum:>2}: joins {s['window']['joins']:.0f}, "
                  f"recall@10 {s['recall']['10']:.3f}")
        drift = quality["drift"]
        print(f"   drift: {drift['events']} events sketched, frozen="
              f"{drift['frozen']}, alert={drift['alert']}")
        scrape = get_text(front.url + "/metrics")
        quality_lines = [
            line for line in scrape.splitlines()
            if line.startswith(("repro_quality_recall", "repro_quality_joins"))
        ]
        for line in quality_lines[:6]:
            print(f"   {line}")
        print(f"   ... plus drift PSI/KL gauges, all in the same scrape")
    finally:
        front.stop()
        server.stop(drain=True)

    print()
    print("   the cluster tier speaks the same protocol: the router samples,")
    print("   ships a trace carrier over the shard pipe, and grafts the")
    print("   shard's spans under its routing span; its GET /metrics merges")
    print('   every shard registry with shard="NN" labels, and GET /quality')
    print("   sums the shards' windowed joins/hits before re-dividing.")


if __name__ == "__main__":
    main()
