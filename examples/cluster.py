"""Cluster tour: durable multi-process serving, crash and recovery.

The scale-out slice of the API tour (streaming.py covers the
single-process stateful path).  Four stops:

1. save a checkpoint and start a 2-shard cluster over it: each shard
   is a separate OS process with its own event log and snapshots under
   ``persist/shard-NN/``, its model loaded from the copy of the
   checkpoint the router pins at ``persist/checkpoint.npz``, and its
   users assigned by consistent hashing;
2. stream check-ins through the router and ask for predictions — the
   same ``/checkin`` / ``/predict`` contract as the single-process
   tier, now fanned across processes;
3. SIGKILL a shard mid-flight (a real crash: no atexit, no goodbye
   snapshot) and watch the restarted process recover its exact state —
   every acknowledged ``state_version`` — from snapshot + log fold;
4. the same thing over HTTP: ``HttpFrontend(router)`` is the very
   front end the single-process tier uses, so statuses and bodies are
   the same on both tiers; plus the cluster-wide ``/stats`` roll-up.

Everything here also works from the shell::

    repro train nyc --save model.npz
    repro serve --checkpoint model.npz --cluster 2 --persist ./state
    curl -s localhost:8151/checkin -d '{"user_id": 7, "poi_id": 3, "timestamp": 12.5}'
    curl -s localhost:8151/predict -d '{"user_id": 7, "k": 5}'
    curl -s localhost:8151/healthz

Runs in about a minute on a laptop CPU:

    python examples/cluster.py
"""

import json
import os
import signal
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterRouter
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset
from repro.serve import HttpFrontend, save_checkpoint
from repro.stream import events_from_checkins
from repro.utils import spawn


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def main() -> None:
    workdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
    root = Path(workdir.name)

    # 0. A checkpoint is the unit of deployment: config + weights +
    #    dataset recipe.  Every shard loads it the way the
    #    single-process tier does, rebuilding the (seeded,
    #    deterministic) dataset from the recipe.
    dataset = build_dataset("nyc", seed=7, scale=0.2, imagery_resolution=16)
    model = TSPNRA.from_dataset(
        dataset,
        TSPNRAConfig(dim=16, fusion_layers=1, hgat_layers=1, top_k=8),
        rng=spawn(7),
    )
    checkpoint = save_checkpoint(model, root / "model.npz", dataset=dataset)
    events = [
        {"user_id": e.user_id, "poi_id": e.poi_id, "timestamp": e.timestamp}
        for e in events_from_checkins(dataset.checkins)
    ]
    print(f"checkpoint {checkpoint.name}, {len(events)} check-ins to stream")

    # 1. Start the cluster: every shard recovers from its persistence
    #    directory before reporting ready (empty on first boot).
    config = ClusterConfig(
        num_shards=2,
        snapshot_interval=100,   # snapshot every 100 acknowledged events
        fsync="rotate",          # fsync at segment bounds; "always" per ack
        auto_restart=False,      # in production the supervisor thread
                                 # heartbeats and restarts crashed shards
                                 # itself; off here so the tour can drive
                                 # recovery by hand at stop 3
    )
    # Leaving the `with` stops the router (final snapshots) before
    # the temporary directory holding its persist tree is removed.
    with workdir, ClusterRouter(checkpoint, root / "persist", config=config) as router:
        print(f"2 shards up: pids {[s.pid for s in router.shards]}")

        # 2. Stream the first half through the consistent-hash router.
        half = len(events) // 2
        outcome = router.stream_events(events[:half], predict_every=25)
        print(f"ingested {outcome['acks']} events, "
              f"{outcome['predictions']} inline predictions")
        user = events[0]["user_id"]
        reply = router.predict_user(user, k=5)
        print(f"user {user} top-5 -> {reply['result']['top_pois']}")

        # 3. Crash a shard for real.  Acknowledged events are on disk (WAL
        #    + snapshots), so the restart folds back to the exact pre-crash
        #    state — compare the version map before and after.
        versions_before = router.user_versions()
        victim = router.shards[1]
        print(f"\nSIGKILL shard 1 (pid {victim.pid})...")
        os.kill(victim.pid, signal.SIGKILL)
        victim._process.join(5.0)
        victim._mark_dead("killed by example")
        started = time.perf_counter()
        ready = router.restart_shard(1)
        print(f"shard 1 back in {time.perf_counter() - started:.2f}s "
              f"(recovery: {ready['recovery']})")
        assert router.user_versions() == versions_before
        print("every user's state_version identical after recovery")

        # ...and the stream keeps going where it left off.
        outcome = router.stream_events(events[half:], predict_every=25)
        print(f"second half: {outcome['acks']} events, 0 lost")

        # 4. The HTTP face of the same thing: the single-process tier's
        #    front end, serving the router.  409 on out-of-order check-ins
        #    survives the router hop; /stats aggregates the shards.
        with HttpFrontend(router, port=0) as front:
            print(f"\ncluster HTTP on {front.url}")
            body = post(front.url + "/predict", {"user_id": user, "k": 3})
            print(f"POST /predict -> top-3 {body['top_pois']}")
            stats = json.loads(urllib.request.urlopen(front.url + "/stats").read())
            totals = stats["cluster"]["totals"]
            print(f"/stats cluster totals: users={totals['users']} "
                  f"events={totals['events']}")
            for shard in stats["cluster"]["shards"]:
                durability = shard["durability"]
                print(f"  shard {shard['shard']}: {shard['users']} users, "
                      f"log seq {durability['last_seq']}, "
                      f"{durability['snapshots_taken']} snapshots, "
                      f"restarts {shard['restarts']}")
            health = json.loads(urllib.request.urlopen(front.url + "/healthz").read())
            print(f"/healthz: {health['status']}")

    print("\ncluster stopped (final snapshots written)")


if __name__ == "__main__":
    main()
