"""Streaming tour: ingest check-ins, predict online, replay a dataset.

The stateful slice of the API tour (serving.py covers the stateless
HTTP runtime).  Three stops:

1. ingest → predict with the in-process pieces: a sharded
   ``UserStateStore``, the ``StreamIngest`` pipeline keeping the QR-P
   graph cache coherent, and a ``Predictor`` answering history-less
   requests from stored state;
2. the same flow over HTTP: ``repro serve --stateful`` owns the user
   state, clients POST bare check-ins and ask for predictions by
   ``user_id`` only;
3. prequential replay: the whole dataset re-arrives in time order,
   every check-in is predicted before it is ingested (test-then-train,
   no label leakage), and the streaming path is raced against the
   stateless rebuild-per-request baseline.

Everything here also works from the shell::

    repro serve nyc --stateful --port 8151
    curl -s localhost:8151/checkin -d '{"user_id": 7, "poi_id": 3, "timestamp": 12.5}'
    curl -s localhost:8151/predict -d '{"user_id": 7, "k": 5}'
    repro stream-replay nyc

Runs in about a minute on a laptop CPU:

    python examples/streaming.py
"""

import json
import urllib.request

from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.serve import HttpFrontend, InferenceServer, Predictor, ServerConfig
from repro.stream import (
    CheckinEvent,
    StoreConfig,
    StreamIngest,
    UserStateStore,
    compare_replay,
    events_from_checkins,
)
from repro.train import TrainConfig, Trainer
from repro.utils import spawn


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    # 0. Train briefly (the checkpoint path works identically:
    #    `repro train nyc --save model.npz` + `repro serve --checkpoint
    #    model.npz --stateful`).
    dataset = build_dataset("nyc", seed=7, scale=0.3, imagery_resolution=32)
    splits = split_samples(make_samples(dataset), seed=7)
    model = TSPNRA.from_dataset(
        dataset, TSPNRAConfig(dim=32, fusion_layers=1, hgat_layers=1, top_k=10), rng=spawn(7)
    )
    Trainer(
        model, TrainConfig(epochs=3, batch_size=8, lr=5e-3, max_train_samples=200, seed=7)
    ).fit(splits.train)

    # 1. Ingest → predict, in process.  The store shards users across
    #    locks, splits sessions at the paper's 72h gap rule, and the
    #    ingest pipeline retires a user's cached QR-P graph exactly
    #    when a rollover changes their history.
    store = UserStateStore(StoreConfig(num_shards=8))
    predictor = Predictor(model, graph_cache_size=256)
    ingest = StreamIngest(store)
    ingest.register_predictor(predictor)

    events = events_from_checkins(dataset.checkins)
    user = events[0].user_id
    for event in (e for e in events if e.user_id == user):
        ingest.ingest(event)
    sample = store.sample_for(user)  # history-less: state lives server-side
    top = predictor.predict(sample).top_k(5)
    print(f"user {user}: {len(sample.history)} stored sessions, "
          f"open prefix {sample.prefix_poi_ids[-3:]}, next-POI top-5 {top}")

    # 1b. Incremental graph maintenance rode along for free:
    #     register_predictor attached the model's QR-P maintainer to the
    #     store, so each session rollover UPDATES the user's live graph
    #     in O(session) and pushes the fresh (graph, edges) entry into
    #     the predictor's cache — retire-then-push, no rebuild on the
    #     next predict.  Two far-future check-ins force rollovers so the
    #     counters have something to say:
    last_t = max(e.timestamp for e in events if e.user_id == user)
    for k in (1, 2):
        ingest.ingest(CheckinEvent(user_id=user, poi_id=top[0], timestamp=last_t + 100.0 * k))
    stats = ingest.stats()
    print(f"incremental graphs: {stats['graph_updates']} O(session) updates, "
          f"{stats['graph_pushes']} cache pushes, "
          f"{stats['graph_rebuilds']} full rebuilds "
          f"across {stats['sessions_rolled']} rollovers")

    # 2. The same contract over HTTP: POST /checkin per arrival, then a
    #    history-less POST /predict {"user_id": ...}.  Stateful and
    #    stateless requests share the micro-batching scheduler.
    fresh_store = UserStateStore(StoreConfig(num_shards=8))
    config = ServerConfig(max_batch_size=16, max_wait_ms=5.0)
    with InferenceServer(model, config=config, state_store=fresh_store) as server:
        with HttpFrontend(server, port=0) as front:
            print(f"\nstateful server on {front.url}")
            for event in events[:50]:
                post(front.url + "/checkin", {
                    "user_id": event.user_id,
                    "poi_id": event.poi_id,
                    "timestamp": event.timestamp,
                })
            body = post(front.url + "/predict", {"user_id": events[0].user_id, "k": 5})
            print(f"POST /predict {{user_id: {events[0].user_id}}} -> "
                  f"top-5 {body['top_pois']}")
            stats = json.loads(urllib.request.urlopen(front.url + "/stats").read())
            print(f"/stats: queue_depth={stats['queue_depth']} "
                  f"in_flight={stats['in_flight']} "
                  f"stream={{users: {stats['stream']['users']}, "
                  f"rolled: {stats['stream']['sessions_rolled']}}}")

    # 3. Prequential replay: test-then-train over the time-ordered
    #    stream, three deployments of one predictor — stateless rebuild
    #    baseline, cached streaming state, and streaming state with
    #    incremental O(session) graph updates.  Identical ranked lists,
    #    very different throughput.
    comparison = compare_replay(
        Predictor(model, graph_cache_size=512), events, max_events=400
    )
    comparison.pop("_reports")
    stream, baseline = comparison["stream"], comparison["baseline"]
    incremental = comparison["incremental"]
    print(f"\nprequential replay over {comparison['events']} events "
          f"({stream['predictions']} predictions):")
    print(f"  incremental {incremental['events_per_second']:8.1f} events/s   "
          f"({incremental['ingest']['graph_pushes']} graph pushes)")
    print(f"  streaming   {stream['events_per_second']:8.1f} events/s   "
          f"Recall@10 {stream['metrics']['Recall@10']:.4f}  "
          f"MRR {stream['metrics']['MRR']:.4f}")
    print(f"  baseline    {baseline['events_per_second']:8.1f} events/s   "
          f"(rebuild per request)")
    print(f"  speedup {comparison['speedup']:.2f}x stream / "
          f"{comparison['incremental_speedup']:.2f}x incremental, "
          f"ranked lists identical: {comparison['ranked_lists_identical']} / "
          f"{comparison['incremental_ranked_identical']}")


if __name__ == "__main__":
    main()
