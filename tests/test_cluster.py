"""Multi-process cluster serving: routing, parity, crash recovery, HTTP.

The module-scoped cluster (2 shard subprocesses over a tiny NYC
checkpoint) is compared against a single-process control
``InferenceServer`` fed the identical event tape: same acks, same
``state_version``s, same ranked lists.  The kill-and-recover tests
SIGKILL a shard mid-ingest and assert the restarted process serves
exactly the state the control never lost.

Worker processes spawn (~seconds each): everything that can share the
module cluster does, and the multi-cycle crash loop is marked slow.
"""

import json
import os
import signal
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    list_segments,
    list_snapshots,
)
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset
from repro.serve import (
    HttpFrontend,
    InferenceServer,
    ServerConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream import StoreConfig, UserStateStore
from repro.stream.events import events_from_checkins
from repro.utils import spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)


@pytest.fixture(scope="module")
def checkpoint(tiny_dataset, tmp_path_factory):
    model = TSPNRA.from_dataset(tiny_dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.npz"
    return save_checkpoint(model, path, dataset=tiny_dataset)


@pytest.fixture(scope="module")
def event_tape(tiny_dataset):
    return [
        {"user_id": e.user_id, "poi_id": e.poi_id, "timestamp": e.timestamp}
        for e in events_from_checkins(tiny_dataset.checkins)
    ]


def small_cluster_config(**overrides):
    base = dict(
        num_shards=2,
        snapshot_interval=50,
        segment_max_records=64,
        heartbeat_interval_s=0.5,
        heartbeat_timeout_s=5.0,
        auto_restart=False,  # tests drive restarts explicitly
    )
    base.update(overrides)
    return ClusterConfig(**base)


@pytest.fixture(scope="module")
def cluster(checkpoint, event_tape, tmp_path_factory):
    """A 2-shard cluster with the full event tape already ingested."""
    router = ClusterRouter(
        checkpoint,
        tmp_path_factory.mktemp("persist"),
        config=small_cluster_config(),
    )
    router.start()
    outcome = router.stream_events(event_tape, predict_every=25)
    assert outcome["rejected"] == 0
    yield router
    router.stop()


@pytest.fixture(scope="module")
def control(checkpoint, event_tape):
    """Single-process replica fed the same tape (never crashes)."""
    loaded = load_checkpoint(checkpoint)
    server = InferenceServer(
        loaded.model,
        dataset=loaded.dataset,
        state_store=UserStateStore(StoreConfig(num_shards=4)),
    )
    server.start()
    from repro.stream.events import event_from_json

    for payload in event_tape:
        server.checkin(event_from_json(payload))
    yield server
    server.stop()


@pytest.fixture(scope="module")
def frontend(cluster):
    front = HttpFrontend(cluster, port=0).start()
    yield front
    front.stop()


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


# ----------------------------------------------------------------------
# cluster vs single-process parity
# ----------------------------------------------------------------------
class TestClusterParity:
    def test_state_versions_match_control(self, cluster, control):
        versions = cluster.user_versions()
        store = control.state_store
        assert sorted(int(u) for u in versions) == store.users()
        for user in store.users():
            assert versions[str(user)]["state_version"] == store.state_version(user)
            assert (
                versions[str(user)]["history_version"]
                == store.snapshot(user).history_version
            )

    def test_ranked_lists_match_control(self, cluster, control):
        for user in control.state_store.users():
            reply = cluster.predict_user(user, k=10)
            assert reply["ok"], reply
            expected = control.predict_user(user)
            assert reply["result"]["top_pois"] == expected.ranked_pois[:10]

    def test_users_partition_across_shards(self, cluster, control):
        users = control.state_store.users()
        stats = cluster.stats()["cluster"]
        per_shard = [s["users"] for s in stats["shards"]]
        assert sum(per_shard) == len(users)
        assert all(count > 0 for count in per_shard)  # both shards used

    def test_out_of_order_checkin_is_409(self, cluster, event_tape):
        stale = dict(event_tape[0])
        stale["timestamp"] = 0.0
        reply = cluster.checkin(stale)
        assert not reply["ok"] and reply["code"] == 409

    def test_unknown_user_is_404(self, cluster):
        reply = cluster.predict_user(99999)
        assert not reply["ok"] and reply["code"] == 404

    def test_unroutable_checkin_is_400(self, cluster):
        reply = cluster.checkin({"poi_id": 1, "timestamp": 1.0})
        assert not reply["ok"] and reply["code"] == 400


# ----------------------------------------------------------------------
# durable single-process serving path
# ----------------------------------------------------------------------
class TestDurableServingPath:
    def test_checkin_rolls_interval_snapshots(self, checkpoint, event_tape, tmp_path):
        """--snapshot-interval must fire during serving, not only at
        shutdown, or the WAL grows without bound and restart replays
        the whole log."""
        from repro.cluster import DurableIngest, EventLogWriter
        from repro.stream.events import event_from_json

        # explicit rng: the loaded skeleton's init draws are overwritten
        # by the checkpoint weights, and letting them hit the process
        # default generator would shift dropout streams of later
        # training tests
        loaded = load_checkpoint(checkpoint, rng=spawn(42))
        log = EventLogWriter(tmp_path)
        ingest = DurableIngest(
            store=UserStateStore(StoreConfig(num_shards=4)),
            log=log,
            snapshot_interval=10,
        )
        server = InferenceServer(loaded.model, dataset=loaded.dataset, ingest=ingest)
        server.start()
        try:
            for payload in event_tape[:25]:
                server.checkin(event_from_json(payload))
        finally:
            server.stop()
            log.close()
        assert ingest.snapshots_taken == 2  # at events 10 and 20, mid-serving
        assert list_snapshots(tmp_path)


class TestShardHandleGenerations:
    def test_stale_mark_dead_is_ignored(self):
        """A transport failure observed on a pre-restart conn must not
        stamp the freshly restarted shard dead."""
        from repro.cluster import ShardHandle, WorkerSpec

        handle = ShardHandle(
            WorkerSpec(
                shard_index=0,
                persist_dir="unused",
                checkpoint_meta={},
                weights_manifest={},
            )
        )
        stale = handle._generation
        handle._generation += 1  # what a restart's start() does
        handle._mark_dead("OSError: broken pipe", stale)
        assert handle.dead_reason is None  # stale failure ignored
        handle._mark_dead("timeout on 'predict'", handle._generation)
        assert handle.dead_reason is not None  # current-generation applies
        handle.dead_reason = None
        handle._mark_dead("killed")  # untagged (kill/shutdown) always applies
        assert handle.dead_reason == "killed"


# ----------------------------------------------------------------------
# kill-and-recover
# ----------------------------------------------------------------------
def sigkill(shard):
    """Die like a real crash: no atexit, no final snapshot."""
    os.kill(shard.pid, signal.SIGKILL)
    shard._process.join(10.0)
    shard._mark_dead("killed by test")


class TestKillAndRecover:
    def test_sigkill_mid_ingest_recovers_exact_state(
        self, checkpoint, event_tape, tmp_path
    ):
        config = small_cluster_config(snapshot_interval=40)
        router = ClusterRouter(checkpoint, tmp_path, config=config)
        router.start()
        try:
            half = len(event_tape) // 2
            router.stream_events(event_tape[:half], predict_every=20)
            versions_before = router.user_versions()
            ranked_before = {
                user: router.predict_user(int(user), k=10)["result"]["top_pois"]
                for user in versions_before
            }

            victim = router.shards[1]
            assert victim.spec.persist_dir  # it has durable state to lose
            sigkill(victim)
            ready = router.restart_shard(1)
            assert ready["ok"]
            recovery = ready["recovery"]
            assert recovery["last_seq"] > 0

            # every user's version and ranked list survived the crash
            assert router.user_versions() == versions_before
            for user, expected in ranked_before.items():
                reply = router.predict_user(int(user), k=10)
                assert reply["ok"], reply
                assert reply["result"]["top_pois"] == expected

            # the recovered shard keeps ingesting where it left off
            outcome = router.stream_events(event_tape[half:], predict_every=20)
            assert outcome["rejected"] == 0
            assert router.healthz()["status"] == "ok"
            assert router.shards[1].restarts == 1
        finally:
            router.stop()

    def test_recovered_shard_matches_never_crashed_control(
        self, checkpoint, event_tape, tmp_path
    ):
        """Full acceptance shape: crash + restart == control that never died."""
        config = small_cluster_config(snapshot_interval=40)
        router = ClusterRouter(checkpoint, tmp_path, config=config)
        router.start()
        loaded = load_checkpoint(checkpoint)
        control = InferenceServer(
            loaded.model,
            dataset=loaded.dataset,
            state_store=UserStateStore(StoreConfig(num_shards=4)),
        )
        control.start()
        try:
            from repro.stream.events import event_from_json

            # The raw tape barely crosses the 72h gap, so extend it with
            # gap-heavy rounds: every user rolls sessions before AND
            # after the crash, exercising the incremental graphs on
            # both sides of the recovery boundary.
            last = {}
            poi = {}
            for payload in event_tape:
                last[payload["user_id"]] = payload["timestamp"]
                poi.setdefault(payload["user_id"], payload["poi_id"])
            horizon = max(last.values())
            extra_rounds = [
                [
                    {
                        "user_id": user,
                        "poi_id": poi[user],
                        "timestamp": horizon + k * 100.0 * 3600.0,
                    }
                    for user in sorted(last)
                ]
                for k in (1, 2, 3, 4)
            ]
            pre_crash = event_tape + extra_rounds[0] + extra_rounds[1]
            post_crash = extra_rounds[2] + extra_rounds[3]

            router.stream_events(pre_crash)
            # the crash must land mid-session, with incrementally
            # maintained graphs live on the victim — otherwise this
            # proves nothing about recovering open state
            before = router.shards[0].control_stats()["stats"]["stream"]
            assert before["graph_updates"] > 0, "no live incremental graphs"
            assert before["graph_rebuilds"] == 0
            assert before["open_visits"] > 0, "crash did not land mid-session"
            sigkill(router.shards[0])
            router.restart_shard(0)
            router.stream_events(post_crash)
            for payload in pre_crash + post_crash:
                control.checkin(event_from_json(payload))

            # the restarted shard resumed incremental maintenance:
            # post-recovery rollovers are O(session) updates pushed into
            # the serving caches, with at most one counted lazy rebuild
            # per user on its first post-restart roll (log replay runs
            # before the maintainer attaches, so graphs re-materialise
            # lazily rather than being rebuilt per replayed event)
            after = router.shards[0].control_stats()["stats"]["stream"]
            assert after["graph_updates"] > 0
            assert after["graph_pushes"] > 0
            assert 1 <= after["graph_rebuilds"] <= after["users"]

            versions = router.user_versions()
            for user in control.state_store.users():
                assert (
                    versions[str(user)]["state_version"]
                    == control.state_store.state_version(user)
                )
                reply = router.predict_user(user, k=10)
                assert reply["ok"], reply
                assert (
                    reply["result"]["top_pois"]
                    == control.predict_user(user).ranked_pois[:10]
                )
        finally:
            control.stop()
            router.stop()

    def test_snapshots_and_segments_on_disk(self, checkpoint, event_tape, tmp_path):
        config = small_cluster_config(snapshot_interval=20)
        router = ClusterRouter(checkpoint, tmp_path, config=config)
        router.start()
        try:
            router.stream_events(event_tape)
            names = router.snapshot_all()
            assert all(name for name in names)
            for index in range(2):
                shard_dir = tmp_path / f"shard-{index:02d}"
                assert list_snapshots(shard_dir), "snapshot missing on disk"
                assert list_segments(shard_dir) is not None
        finally:
            router.stop()

    @pytest.mark.slow
    def test_repeated_crash_cycles_with_supervisor(
        self, checkpoint, event_tape, tmp_path
    ):
        """Crash both shards across cycles; the supervisor auto-restarts."""
        import time

        config = small_cluster_config(
            snapshot_interval=30,
            auto_restart=True,
            heartbeat_interval_s=0.3,
        )
        router = ClusterRouter(checkpoint, tmp_path, config=config)
        router.start()
        try:
            third = len(event_tape) // 3
            router.stream_events(event_tape[:third])
            for cycle, index in enumerate((1, 0)):
                versions_before = router.user_versions()
                sigkill(router.shards[index])
                deadline = time.time() + 30.0
                while time.time() < deadline:
                    shard = router.shards[index]
                    if shard.alive and shard.ping(timeout=2.0):
                        break
                    time.sleep(0.2)
                else:
                    pytest.fail(f"supervisor never recovered shard {index}")
                assert router.user_versions() == versions_before
                start = (cycle + 1) * third
                outcome = router.stream_events(
                    event_tape[start : start + third]
                )
                assert outcome["rejected"] == 0
            assert router.restarts_total == 2
            assert router.healthz()["status"] == "ok"
        finally:
            router.stop()


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class TestClusterHttp:
    def test_healthz_lists_every_shard(self, frontend):
        status, body = _get(frontend.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert [s["shard"] for s in body["shards"]] == [0, 1]
        assert all(s["status"] == "ok" for s in body["shards"])

    def test_stats_has_cluster_section(self, frontend, event_tape):
        status, body = _get(frontend.url + "/stats")
        assert status == 200
        cluster = body["cluster"]
        assert cluster["num_shards"] == 2
        totals = cluster["totals"]
        assert totals["events"] >= len(event_tape)
        assert {"queue_depth", "in_flight", "users"} <= set(totals)
        for shard in cluster["shards"]:
            assert {"queue_depth", "in_flight", "users", "durability"} <= set(shard)
            assert shard["durability"]["last_seq"] > 0

    def test_checkin_conflict_propagates_as_409(self, frontend, event_tape):
        stale = dict(event_tape[0])
        stale["timestamp"] = 0.0
        status, body = _post(frontend.url + "/checkin", stale)
        assert status == 409
        assert "error" in body

    def test_checkin_validation_is_400(self, frontend):
        status, _ = _post(frontend.url + "/checkin", {"user_id": 1})
        assert status == 400
        status, _ = _post(
            frontend.url + "/checkin",
            {"user_id": 1, "poi_id": 10**9, "timestamp": 1e9},
        )
        assert status == 400

    def test_historyless_predict_roundtrip(self, frontend, cluster, control):
        user = control.state_store.users()[0]
        status, body = _post(frontend.url + "/predict", {"user_id": user, "k": 5})
        assert status == 200
        assert body["top_pois"] == control.predict_user(user).ranked_pois[:5]

    def test_unknown_user_404(self, frontend):
        status, body = _post(frontend.url + "/predict", {"user_id": 424242})
        assert status == 404

    def test_stateless_predict_with_prefix(self, frontend, tiny_dataset):
        user, trajs = next(
            (u, t) for u, t in tiny_dataset.trajectories.items() if len(t) >= 1
        )
        prefix = [
            {"poi_id": v.poi_id, "timestamp": v.timestamp}
            for v in trajs[-1].visits[:3]
        ]
        status, body = _post(
            frontend.url + "/predict", {"user_id": user, "prefix": prefix}
        )
        assert status == 200
        assert len(body["top_pois"]) <= 10

    def test_recommend_shape(self, frontend, control):
        user = control.state_store.users()[0]
        status, body = _post(frontend.url + "/recommend", {"user_id": user, "k": 3})
        assert status == 200
        assert body["user_id"] == user
        assert len(body["recommendations"]) == 3

    def test_reload_is_501(self, frontend):
        status, body = _post(frontend.url + "/reload", {"checkpoint": "x.npz"})
        assert status == 501

    def test_unknown_path_404_and_bad_json_400(self, frontend):
        status, _ = _get(frontend.url + "/nope")
        assert status == 404
        request = urllib.request.Request(
            frontend.url + "/checkin", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 400


# ----------------------------------------------------------------------
# one HTTP contract, two tiers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def control_frontend(control):
    front = HttpFrontend(control, port=0).start()
    yield front
    front.stop()


def _exchange(url, data=None):
    """One round trip: GET without ``data``, else POST the raw bytes."""
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestOneContract:
    def test_both_tiers_answer_one_request_table_alike(
        self, frontend, control_frontend, control, tiny_dataset, event_tape
    ):
        """The cluster and a single-process server fed the same tape give
        equal statuses, and equal bodies for every 200."""
        user = control.state_store.users()[0]
        trajectory = next(t for t in tiny_dataset.trajectories.values() if t)[-1]
        prefix = [
            {"poi_id": v.poi_id, "timestamp": v.timestamp}
            for v in trajectory.visits[:3]
        ]
        rows = [
            ("/predict", {"user_id": user, "k": 5}, 200),
            ("/recommend", {"user_id": user, "k": 3}, 200),
            ("/predict", {"user_id": user, "prefix": prefix, "k": 5}, 200),
            ("/recommend", {"prefix": prefix, "k": 4}, 200),
            ("/predict", {"user_id": 424242}, 404),
            ("/predict", {"user_id": user, "k": 0}, 400),
            ("/predict", {"user_id": "three"}, 400),
            ("/predict", {"user_id": user, "history": [[1]]}, 400),
            ("/checkin", dict(event_tape[0], timestamp=0.0), 409),
            ("/checkin", {"user_id": user, "timestamp": 1.0}, 400),
            ("/predict", b"{not json", 400),
            ("/nope", None, 404),
        ]
        for path, body, expected in rows:
            data = json.dumps(body).encode() if isinstance(body, dict) else body
            single = _exchange(control_frontend.url + path, data)
            clustered = _exchange(frontend.url + path, data)
            assert single[0] == clustered[0] == expected, (path, body, single, clustered)
            if expected == 200:
                assert single[1] == clustered[1], (path, body)


class TestShardStatuses:
    def test_backpressure_is_429_and_shutdown_503(self, checkpoint, tmp_path):
        """A shard maps a full queue and a closed scheduler to the
        single-process tier's statuses, not to a 500."""
        from repro.cluster import DurableIngest, EventLogWriter, WorkerSpec
        from repro.cluster.worker import _WorkerRuntime

        loaded = load_checkpoint(checkpoint, rng=spawn(42))
        log = EventLogWriter(tmp_path)
        ingest = DurableIngest(store=UserStateStore(StoreConfig(num_shards=2)), log=log)
        # never started: no worker drains the one-slot queue
        server = InferenceServer(
            loaded.model,
            config=ServerConfig(workers=1, max_queue=1),
            dataset=loaded.dataset,
            ingest=ingest,
        )
        runtime = _WorkerRuntime.__new__(_WorkerRuntime)
        runtime.spec = WorkerSpec(
            shard_index=0,
            persist_dir=str(tmp_path),
            checkpoint_meta={},
            weights_manifest={},
        )
        runtime.server = server
        runtime.ingest = ingest
        bodies = [{"prefix": [1], "k": 5}, {"user_id": 3, "k": 5}]
        try:
            checkin = {"user_id": 3, "poi_id": 1, "timestamp": 0.0}
            assert runtime.handle({"op": "checkin", "event": checkin})["ok"]
            server.submit_user(3)  # fills the queue
            for body in bodies:
                reply = runtime.handle({"op": "predict", "payload": body})
                assert (reply["ok"], reply["code"]) == (False, 429), reply
            server.stop(drain=False)
            for body in bodies:
                reply = runtime.handle({"op": "predict", "payload": body})
                assert (reply["ok"], reply["code"]) == (False, 503), reply
            reply = runtime.handle({
                "op": "stream",
                "events": [{"user_id": 3, "poi_id": 2, "timestamp": 1.0}],
                "predict_every": 1,
            })
            assert reply["acks"][0]["ok"]
            assert [p["code"] for p in reply["predictions"]] == [503]
        finally:
            log.close()


class TestServeClusterCLI:
    def test_queue_size_and_shards_reach_the_cluster_config(
        self, monkeypatch, tmp_path
    ):
        import repro.cluster
        from repro.cli import main

        seen = {}

        class StubRouter:
            def __init__(self, checkpoint_path, persist_dir, config=None):
                seen["config"] = config
                raise ValueError("stub router")

        monkeypatch.setattr(repro.cluster, "ClusterRouter", StubRouter)
        argv = [
            "serve", "--cluster", "2",
            "--checkpoint", str(tmp_path / "x.npz"),
            "--persist", str(tmp_path / "state"),
            "--queue-size", "7", "--shards", "3",
        ]
        assert main(argv) == 2
        assert seen["config"].server.max_queue == 7
        assert seen["config"].store.num_shards == 3


# ----------------------------------------------------------------------
# compiled-plan path through the cluster tier
# ----------------------------------------------------------------------
class TestCompiledClusterIdentity:
    """Shard workers inherit the compiled serving path; ranked lists are
    gated bit-identical against an eager (``compile=False``) cluster,
    including across a SIGKILL + recovery of a compiled shard."""

    @pytest.mark.slow
    def test_compiled_matches_eager_through_kill_and_recover(
        self, checkpoint, event_tape, tmp_path
    ):
        config = small_cluster_config(snapshot_interval=40)
        eager_config = small_cluster_config(
            snapshot_interval=40,
            server=ServerConfig(
                workers=1, max_wait_ms=2.0, request_timeout_s=30.0, compile=False
            ),
        )
        compiled = ClusterRouter(checkpoint, tmp_path / "compiled", config=config)
        eager = ClusterRouter(checkpoint, tmp_path / "eager", config=eager_config)
        compiled.start()
        eager.start()
        try:
            assert all(shard.spec.server.compile for shard in compiled.shards)
            assert not any(shard.spec.server.compile for shard in eager.shards)

            half = len(event_tape) // 2
            compiled.stream_events(event_tape[:half])
            eager.stream_events(event_tape[:half])

            users = sorted(int(u) for u in eager.user_versions())
            for user in users:
                got = compiled.predict_user(user, k=10)
                want = eager.predict_user(user, k=10)
                assert got["ok"] and want["ok"]
                assert got["result"]["top_pois"] == want["result"]["top_pois"]

            # crash a compiled shard mid-stream; the recovered worker
            # re-traces its plans and must still match the eager tier
            sigkill(compiled.shards[1])
            assert compiled.restart_shard(1)["ok"]
            compiled.stream_events(event_tape[half:])
            eager.stream_events(event_tape[half:])

            users = sorted(int(u) for u in eager.user_versions())
            for user in users:
                got = compiled.predict_user(user, k=10)
                want = eager.predict_user(user, k=10)
                assert got["ok"] and want["ok"]
                assert got["result"]["top_pois"] == want["result"]["top_pois"]
        finally:
            eager.stop()
            compiled.stop()
