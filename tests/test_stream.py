"""Tests for ``repro.stream``: event codec, sharded user-state store,
ingest-side cache invalidation, stateful serving, and prequential
replay identity against the offline evaluation protocol."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples
from repro.data.checkin import Checkin, CheckinDataset
from repro.data.trajectory import DEFAULT_GAP_HOURS, Visit
from repro.serve import (
    HttpFrontend,
    InferenceServer,
    Predictor,
    ServerConfig,
)
from repro.serve.protocol import serve_history_key
from repro.stream import (
    CheckinEvent,
    StoreConfig,
    StreamIngest,
    UserStateStore,
    compare_replay,
    event_from_json,
    event_to_json,
    events_from_checkins,
    offline_reference,
    prequential_replay,
    serialised_rebuild_baseline,
    stream_history_key,
)
from repro.utils import LRUCache, spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)


@pytest.fixture(scope="module")
def model(tiny_dataset):
    """Untrained TSPN-RA: identity checks don't need trained weights."""
    model = TSPNRA.from_dataset(tiny_dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


def ev(user, poi, t):
    return CheckinEvent(user_id=user, poi_id=poi, timestamp=float(t))


# ----------------------------------------------------------------------
# wire model
# ----------------------------------------------------------------------
class TestEventCodec:
    def test_round_trip(self):
        event = ev(7, 3, 12.5)
        assert event_from_json(event_to_json(event)) == event

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2, 3], "JSON object"),
            ({"poi_id": 1, "timestamp": 0.0}, "user_id"),
            ({"user_id": True, "poi_id": 1, "timestamp": 0.0}, "user_id"),
            ({"user_id": 1, "timestamp": 0.0}, "poi_id"),
            ({"user_id": 1, "poi_id": "3", "timestamp": 0.0}, "poi_id"),
            ({"user_id": 1, "poi_id": -2, "timestamp": 0.0}, "POI universe"),
            ({"user_id": 1, "poi_id": 1}, "timestamp"),
            ({"user_id": 1, "poi_id": 1, "timestamp": "now"}, "timestamp"),
            ({"user_id": 1, "poi_id": 1, "timestamp": float("nan")}, "finite"),
        ],
    )
    def test_validation_messages(self, payload, message):
        with pytest.raises(ValueError, match=message):
            event_from_json(payload)

    def test_poi_bounded_by_universe(self):
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            event_from_json({"user_id": 1, "poi_id": 10, "timestamp": 0.0}, num_pois=10)

    def test_events_from_checkins_globally_ordered(self, tiny_dataset):
        events = events_from_checkins(tiny_dataset.checkins)
        assert len(events) == len(tiny_dataset.checkins)
        times = [e.timestamp for e in events]
        assert times == sorted(times)
        # per-user relative order survives the merge
        for user in tiny_dataset.checkins.users():
            mine = [e for e in events if e.user_id == user]
            assert [e.poi_id for e in mine] == [
                c.poi_id for c in tiny_dataset.checkins.of_user(user)
            ]


# ----------------------------------------------------------------------
# state store
# ----------------------------------------------------------------------
class TestUserStateStore:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            StoreConfig(num_shards=0)
        with pytest.raises(ValueError):
            StoreConfig(max_sessions=0)
        with pytest.raises(ValueError):
            StoreConfig(max_session_visits=1)
        with pytest.raises(ValueError):
            StoreConfig(gap_hours=0.0)

    def test_state_version_monotonic_and_prefix_grows(self):
        store = UserStateStore(StoreConfig(num_shards=2))
        versions = [store.append(ev(1, p, t)).state_version for p, t in ((3, 0), (4, 1), (5, 2))]
        assert versions == [1, 2, 3]
        snapshot = store.snapshot(1)
        assert [v.poi_id for v in snapshot.prefix] == [3, 4, 5]
        assert snapshot.history == []
        assert snapshot.state_version == 3

    def test_gap_rule_matches_split_into_trajectories(self):
        """Roll at >= gap_hours exactly, like the offline Δt rule."""
        store = UserStateStore(StoreConfig(gap_hours=72.0))
        store.append(ev(1, 3, 0.0))
        just_under = store.append(ev(1, 4, 71.9999))
        assert not just_under.session_rolled
        at_boundary = store.append(ev(1, 5, 71.9999 + 72.0))
        assert at_boundary.session_rolled and not at_boundary.forced_roll
        snapshot = store.snapshot(1)
        assert [v.poi_id for v in snapshot.prefix] == [5]
        assert [t.poi_ids for t in snapshot.history] == [[3, 4]]

    def test_rollover_retires_exactly_the_old_graph_key(self):
        store = UserStateStore(StoreConfig())
        store.append(ev(1, 3, 0.0))
        old_key = store.snapshot(1).history_key
        assert old_key == stream_history_key(1, 0)
        rolled = store.append(ev(1, 4, 100.0))
        assert rolled.invalidated_key == old_key
        assert store.snapshot(1).history_key == stream_history_key(1, rolled.state_version)

    def test_history_bounded_oldest_session_falls_off(self):
        store = UserStateStore(StoreConfig(max_sessions=2))
        for i in range(4):  # 4 rollovers -> sessions 0..2 completed
            store.append(ev(1, i, i * 100.0))
        snapshot = store.snapshot(1)
        assert [t.poi_ids for t in snapshot.history] == [[1], [2]]  # [0] evicted
        assert [v.poi_id for v in snapshot.prefix] == [3]

    def test_forced_roll_bounds_open_session(self):
        store = UserStateStore(StoreConfig(max_session_visits=3))
        results = [store.append(ev(1, i, float(i))) for i in range(5)]
        forced = results[3]
        assert forced.session_rolled and forced.forced_roll
        snapshot = store.snapshot(1)
        assert [t.poi_ids for t in snapshot.history] == [[0, 1, 2]]
        assert [v.poi_id for v in snapshot.prefix] == [3, 4]

    def test_out_of_order_append_rejected(self):
        store = UserStateStore(StoreConfig())
        store.append(ev(1, 3, 10.0))
        with pytest.raises(ValueError, match="out-of-order"):
            store.append(ev(1, 4, 9.0))
        # equal timestamps are fine (the sorted invariant is non-strict)
        assert store.append(ev(1, 4, 10.0)).session_length == 2

    def test_snapshot_is_immune_to_later_appends(self):
        store = UserStateStore(StoreConfig())
        store.append(ev(1, 3, 0.0))
        snapshot = store.snapshot(1)
        store.append(ev(1, 4, 1.0))
        store.append(ev(1, 5, 200.0))  # rolls the session
        assert [v.poi_id for v in snapshot.prefix] == [3]
        assert snapshot.history == []

    def test_unknown_user(self):
        store = UserStateStore(StoreConfig())
        with pytest.raises(KeyError):
            store.snapshot(42)
        with pytest.raises(KeyError):
            store.sample_for(42)
        assert store.get_snapshot(42) is None
        assert store.state_version(42) == 0

    def test_sample_for_carries_stream_key_and_target(self):
        store = UserStateStore(StoreConfig())
        store.append(ev(7, 3, 0.0))
        store.append(ev(7, 4, 1.0))
        sample = store.sample_for(7, target=Visit(poi_id=9, timestamp=2.0))
        assert sample.history_key == ("stream", 7, 0)
        assert sample.prefix_poi_ids == [3, 4]
        assert sample.target.poi_id == 9

    def test_users_spread_across_shards(self):
        store = UserStateStore(StoreConfig(num_shards=4))
        for user in range(16):
            store.append(ev(user, 0, 0.0))
        assert len(store) == 16
        assert store.users() == list(range(16))
        occupied = sum(1 for shard in store._shards if shard.users)
        assert occupied == 4  # 16 consecutive ids land on all 4 stripes

    def test_stats_roll_up(self):
        store = UserStateStore(StoreConfig(num_shards=2))
        store.append(ev(1, 3, 0.0))
        store.append(ev(1, 4, 100.0))
        store.append(ev(2, 5, 0.0))
        stats = store.stats()
        assert stats["users"] == 2
        assert stats["events"] == 3
        assert stats["sessions_rolled"] == 1
        assert stats["open_visits"] == 2
        assert stats["sessions_held"] == 1

    def test_incremental_occupancy_matches_recount(self):
        """stats() occupancy is maintained on append (O(shards), never
        walking the user maps); it must stay equal to a brute-force
        recount through rollovers, forced rolls and deque evictions."""
        rng = np.random.default_rng(7)
        store = UserStateStore(
            StoreConfig(num_shards=2, max_sessions=3, max_session_visits=4)
        )
        clocks = {}
        for _ in range(400):
            user = int(rng.integers(0, 6))
            step = float(rng.choice([1.0, 200.0]))  # continue or gap-roll
            clocks[user] = clocks.get(user, 0.0) + step
            store.append(ev(user, int(rng.integers(0, 30)), clocks[user]))
        stats = store.stats()
        open_visits = held = 0
        for user in store.users():
            snapshot = store.snapshot(user)
            open_visits += len(snapshot.prefix)
            held += len(snapshot.history)
        assert stats["open_visits"] == open_visits
        assert stats["sessions_held"] == held

    def test_state_version_probe(self):
        store = UserStateStore(StoreConfig())
        assert store.state_version(1) == 0
        store.append(ev(1, 3, 0.0))
        store.append(ev(1, 4, 1.0))
        assert store.state_version(1) == 2


class TestConcurrentStore:
    def test_parallel_ingest_matches_sequential(self):
        """Per-user event order is the only ordering the store needs:
        interleaving users arbitrarily across threads must converge to
        the same state as a sequential ingest."""
        rng = np.random.default_rng(0)
        per_user = {
            user: [ev(user, int(rng.integers(0, 50)), float(t) * 30.0) for t in range(40)]
            for user in range(12)
        }

        sequential = UserStateStore(StoreConfig(num_shards=4))
        for user in sorted(per_user):
            for event in per_user[user]:
                sequential.append(event)

        parallel = UserStateStore(StoreConfig(num_shards=4))
        errors = []

        def worker(users):
            try:
                for user in users:
                    for event in per_user[user]:
                        parallel.append(event)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=([u] ,)) for u in per_user
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert parallel.stats() == sequential.stats()
        for user in per_user:
            a, b = parallel.snapshot(user), sequential.snapshot(user)
            assert [t.poi_ids for t in a.history] == [t.poi_ids for t in b.history]
            assert [v.poi_id for v in a.prefix] == [v.poi_id for v in b.prefix]
            assert a.state_version == b.state_version
            assert a.history_key == b.history_key

    def test_concurrent_snapshot_during_ingest(self):
        store = UserStateStore(StoreConfig(num_shards=2))
        store.append(ev(1, 0, 0.0))
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                snapshot = store.snapshot(1)
                try:
                    # a torn snapshot would break these invariants
                    assert snapshot.prefix, "open session never empty"
                    times = [v.timestamp for v in snapshot.prefix]
                    assert times == sorted(times)
                except AssertionError as error:  # pragma: no cover
                    errors.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for i in range(1, 400):
            store.append(ev(1, i % 50, i * 10.0))
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors


# ----------------------------------------------------------------------
# ingest pipeline
# ----------------------------------------------------------------------
class TestStreamIngest:
    def test_invalidation_exactly_once_per_history_bump(self):
        store = UserStateStore(StoreConfig())
        caches = [LRUCache(8), LRUCache(8)]
        ingest = StreamIngest(store, caches=caches + [None])  # None ignored
        ingest.ingest(ev(1, 3, 0.0))
        stale_key = store.snapshot(1).history_key
        for cache in caches:
            cache.put(stale_key, "graph")
        result = ingest.ingest(ev(1, 4, 100.0))  # rolls -> retires stale_key
        assert result.session_rolled
        assert all(stale_key not in cache for cache in caches)
        assert ingest.invalidations == 2  # one per cache, once per bump
        # a non-rolling append must not touch the caches
        fresh_key = store.snapshot(1).history_key
        for cache in caches:
            cache.put(fresh_key, "graph")
        ingest.ingest(ev(1, 5, 101.0))
        assert all(fresh_key in cache for cache in caches)
        assert ingest.invalidations == 2

    def test_deque_eviction_invalidates_every_cache_exactly_once(self):
        # max_sessions=1: every rollover both retires the old history key
        # AND evicts the oldest session from the deque.  The eviction must
        # not produce a second retirement — one bump, one pop per cache.
        store = UserStateStore(StoreConfig(max_sessions=1))
        caches = [LRUCache(8), LRUCache(8), LRUCache(8)]
        ingest = StreamIngest(store, caches=caches)
        ingest.ingest(ev(1, 3, 0.0))
        ingest.ingest(ev(1, 4, 100.0))  # rolls; deque now full
        for bump in range(1, 4):
            stale_key = store.snapshot(1).history_key
            for cache in caches:
                cache.put(stale_key, "graph")
            result = ingest.ingest(ev(1, 5 + bump, 100.0 * (bump + 1)))
            assert result.session_rolled  # every roll past here evicts
            assert all(stale_key not in cache for cache in caches)
            assert ingest.invalidations == bump * len(caches)
        stats = ingest.stats()
        assert stats["sessions_held"] == 1  # the deque bound really fired
        assert stats["cache_invalidations"] == 3 * len(caches)

    def test_counters_and_stats(self):
        ingest = StreamIngest()
        ingest.ingest_many([ev(1, 3, 0.0), ev(1, 4, 1.0), ev(1, 5, 200.0)])
        stats = ingest.stats()
        assert stats["ingested"] == 3
        assert stats["rollovers"] == 1
        assert stats["users"] == 1

    def test_register_predictor_picks_up_graph_cache(self, model):
        predictor = Predictor(model, graph_cache_size=16)
        ingest = StreamIngest()
        ingest.register_predictor(predictor)
        ingest.ingest(ev(1, 3, 0.0))
        predictor.graph_cache.put(stream_history_key(1, 0), "stale")
        ingest.ingest(ev(1, 4, 100.0))
        assert stream_history_key(1, 0) not in predictor.graph_cache
        assert ingest.invalidations == 1


# ----------------------------------------------------------------------
# stateful serving
# ----------------------------------------------------------------------
def _events_of_user(dataset, user):
    return [
        CheckinEvent.from_checkin(record) for record in dataset.checkins.of_user(user)
    ]


class TestStatefulServing:
    def test_stateless_server_refuses_stateful_calls(self, model):
        server = InferenceServer(model, config=ServerConfig())
        with pytest.raises(RuntimeError, match="stateless"):
            server.checkin(ev(1, 3, 0.0))
        with pytest.raises(RuntimeError, match="stateless"):
            server.submit_user(1)
        assert not server.stateful

    def test_stateful_predict_matches_stateless_shipped_history(self, tiny_dataset, model):
        """The acceptance identity: a stored user's history-less predict
        equals a stateless request shipping the identical history."""
        user = max(
            tiny_dataset.trajectories,
            key=lambda u: len(tiny_dataset.trajectories[u]),
        )
        events = _events_of_user(tiny_dataset, user)[:24]
        store = UserStateStore(StoreConfig(num_shards=4))
        config = ServerConfig(max_batch_size=4, max_wait_ms=1.0)
        with InferenceServer(model, config=config, state_store=store) as server:
            for event in events:
                server.checkin(event)
            stateful = server.predict_user(user, timeout=30.0)

            snapshot = store.snapshot(user)
            stateless_sample = snapshot.sample()
            # rebuild the wire-equivalent stateless request: same
            # history content, but the content-digest cache key
            stateless_sample.history_key = serve_history_key(user, snapshot.history)
            stateless = server.predict(stateless_sample, timeout=30.0)
        assert stateful.ranked_pois == stateless.ranked_pois
        assert stateful.ranked_tiles == stateless.ranked_tiles

    def test_concurrent_checkins_and_predicts(self, tiny_dataset, model):
        """Ingest and predict racing across users must neither deadlock
        nor produce invalid results."""
        users = tiny_dataset.checkins.users()[:6]
        store = UserStateStore(StoreConfig(num_shards=4))
        config = ServerConfig(max_batch_size=8, max_wait_ms=2.0)
        num_pois = len(tiny_dataset.city.pois)
        errors = []
        with InferenceServer(model, config=config, state_store=store) as server:
            for user in users:  # seed one visit so predicts never 404
                server.checkin(_events_of_user(tiny_dataset, user)[0])

            def client(user):
                try:
                    for event in _events_of_user(tiny_dataset, user)[1:12]:
                        server.checkin(event)
                        result = server.predict_user(user, timeout=30.0)
                        assert len(result.ranked_pois) > 0
                        assert all(0 <= p < num_pois for p in result.top_k(5))
                except Exception as error:  # pragma: no cover - failure path
                    errors.append((user, error))

            threads = [threading.Thread(target=client, args=(u,)) for u in users]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        stats = store.stats()
        assert stats["users"] == len(users)

    def test_stats_expose_backpressure_gauges(self, model):
        store = UserStateStore(StoreConfig(num_shards=2))
        with InferenceServer(
            model, config=ServerConfig(), state_store=store
        ) as server:
            server.checkin(ev(1, 3, 0.0))
            stats = server.stats()
        assert stats["queue_depth"] == 0
        assert stats["in_flight"] == 0
        assert stats["stream"]["users"] == 1
        assert stats["stream"]["registered_caches"] == 1


class TestStatefulHttp:
    @pytest.fixture()
    def front(self, model):
        store = UserStateStore(StoreConfig(num_shards=2))
        server = InferenceServer(
            model,
            config=ServerConfig(max_batch_size=4, max_wait_ms=1.0),
            state_store=store,
        ).start()
        frontend = HttpFrontend(server, port=0).start()
        yield frontend
        frontend.stop()
        server.stop(drain=True)

    @staticmethod
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

    def test_checkin_then_historyless_predict(self, front):
        url = front.url
        status, body = self._post(url + "/checkin", {"user_id": 3, "poi_id": 5, "timestamp": 1.0})
        assert (status, body["state_version"], body["session_rolled"]) == (200, 1, False)
        status, body = self._post(url + "/checkin", {"user_id": 3, "poi_id": 6, "timestamp": 2.0})
        assert status == 200 and body["session_length"] == 2
        status, body = self._post(url + "/predict", {"user_id": 3, "k": 5})
        assert status == 200
        assert len(body["top_pois"]) == 5
        assert "poi_rank" not in body  # no ground truth shipped
        status, body = self._post(url + "/recommend", {"user_id": 3, "k": 3})
        assert status == 200 and len(body["recommendations"]) == 3

    def test_http_error_matrix(self, front):
        url = front.url
        # seed user 3 so the broken-stateless-request cases below would
        # really serve stored state (200) if routing regressed
        assert self._post(url + "/checkin", {"user_id": 3, "poi_id": 1, "timestamp": 0.0})[0] == 200
        cases = [
            ("/checkin", {"user_id": 3, "poi_id": -1, "timestamp": 0.0}, 400),
            ("/checkin", {"poi_id": 1, "timestamp": 0.0}, 400),
            ("/predict", {"user_id": 12345}, 404),  # never checked in
            ("/predict", {"user_id": "three"}, 400),
            ("/predict", {}, 400),  # neither prefix nor valid user_id
            # a broken *stateless* request (ships trajectory data but no
            # prefix) must keep its 400, not silently serve stored state
            ("/predict", {"user_id": 3, "history": [[1]]}, 400),
            ("/predict", {"user_id": 3, "target": {"poi_id": 1, "timestamp": 9.0}}, 400),
            # /recommend must classify the as-shipped body the same way
            # /predict does, even though it drops targets before serving
            ("/recommend", {"user_id": 3, "target": {"poi_id": 1, "timestamp": 9.0}}, 400),
            ("/recommend", {"user_id": 3, "history": [[1]]}, 400),
        ]
        for path, payload, expected in cases:
            status, body = self._post(url + path, payload)
            assert status == expected, (path, payload, body)
        # out-of-order arrival conflicts with ingested state -> 409
        assert self._post(url + "/checkin", {"user_id": 9, "poi_id": 1, "timestamp": 5.0})[0] == 200
        status, body = self._post(url + "/checkin", {"user_id": 9, "poi_id": 1, "timestamp": 4.0})
        assert status == 409 and "out-of-order" in body["error"]

    def test_checkin_rolls_session_and_reports_it(self, front):
        url = front.url
        self._post(url + "/checkin", {"user_id": 5, "poi_id": 1, "timestamp": 0.0})
        status, body = self._post(
            url + "/checkin",
            {"user_id": 5, "poi_id": 2, "timestamp": DEFAULT_GAP_HOURS + 1.0},
        )
        assert status == 200
        assert body["session_rolled"] and body["num_sessions"] == 1
        stats = json.loads(urllib.request.urlopen(front.url + "/stats", timeout=10).read())
        assert stats["stream"]["sessions_rolled"] == 1

    def test_stateless_server_historyless_predict_400(self, model):
        server = InferenceServer(model, config=ServerConfig()).start()
        try:
            with HttpFrontend(server, port=0) as front:
                status, body = self._post(front.url + "/predict", {"user_id": 3})
                assert status == 400 and "--stateful" in body["error"]
                status, body = self._post(
                    front.url + "/checkin", {"user_id": 3, "poi_id": 1, "timestamp": 0.0}
                )
                assert status == 400 and "--stateful" in body["error"]
        finally:
            server.stop(drain=True)


# ----------------------------------------------------------------------
# prequential replay
# ----------------------------------------------------------------------
class TestPrequentialReplay:
    @pytest.fixture(scope="class")
    def replay_setup(self, tiny_dataset, model):
        predictor = Predictor(model, graph_cache_size=256)
        events = events_from_checkins(tiny_dataset.checkins)[:300]
        return predictor, events

    def test_replay_matches_offline_evaluation(self, tiny_dataset, model, replay_setup):
        """Acceptance identity: replayed predictions equal the offline
        protocol's results over identical prefixes."""
        predictor, events = replay_setup
        report = prequential_replay(
            predictor,
            events,
            store_config=StoreConfig(max_sessions=10_000, max_session_visits=10_000),
            keep_results=True,
        )
        assert report.predictions > 20

        by_key = {
            (s.user_id, len(s.history), len(s.prefix)): s
            for s in make_samples(tiny_dataset)
        }
        matched = {key: by_key[key] for key in (r.key for r in report.records)}
        assert len(matched) == report.predictions  # every replay step exists offline
        reference = offline_reference(predictor, list(matched.values()))
        for record in report.records:
            offline = reference[record.key]
            assert record.result.ranked_pois == offline.ranked_pois, record.key
            assert record.rank == offline.poi_rank, record.key

    def test_batched_flush_equals_serial_flush(self, replay_setup):
        predictor, events = replay_setup
        serial = prequential_replay(predictor, events, batch_size=1)
        batched = prequential_replay(predictor, events, batch_size=32)
        assert serial.ranks == batched.ranks
        assert serial.metrics == batched.metrics

    def test_baseline_agrees_with_stream(self, replay_setup):
        predictor, events = replay_setup
        comparison = compare_replay(predictor, events[:150], batch_size=16)
        assert comparison["ranked_lists_identical"]
        assert comparison["stream"]["predictions"] == comparison["baseline"]["predictions"]
        assert comparison["stream"]["metrics"] == comparison["baseline"]["metrics"]

    def test_leg_seconds_are_round_medians(self, replay_setup, monkeypatch):
        """Leg seconds are medians over the rounds, like the speedups.

        Each leg's passes are given scripted times with a slow first
        (cold) round, so a leg dict read from round 0 would contradict
        the paired-median speedups next to it.
        """
        from repro.stream import replay as replay_module

        predictor, events = replay_setup
        scripted = {
            "baseline": iter([30.0, 10.0, 20.0]),
            "stream": iter([9.0, 2.0, 3.0]),
            "incremental": iter([6.0, 1.0, 2.0]),
        }

        def timed(run, leg_of):
            def scripted_run(*args, **kwargs):
                report = run(*args, **kwargs)
                report.seconds = next(scripted[leg_of(kwargs)])
                return report

            return scripted_run

        monkeypatch.setattr(
            replay_module,
            "serialised_rebuild_baseline",
            timed(replay_module.serialised_rebuild_baseline, lambda kwargs: "baseline"),
        )
        monkeypatch.setattr(
            replay_module,
            "prequential_replay",
            timed(
                replay_module.prequential_replay,
                lambda kwargs: "incremental" if kwargs["incremental"] else "stream",
            ),
        )
        comparison = compare_replay(predictor, events[:60], batch_size=16, rounds=3)
        stream = comparison["stream"]
        assert stream["round_seconds"] == [9.0, 2.0, 3.0]
        assert stream["seconds"] == 3.0
        assert stream["events_per_second"] == round(60 / 3.0, 2)
        assert comparison["baseline"]["seconds"] == 20.0
        assert comparison["incremental"]["seconds"] == 2.0
        # paired per-round ratios 30/9, 10/2, 20/3: the median is 5
        assert comparison["speedup"] == 5.0
        assert all(next(times, None) is None for times in scripted.values())

    def test_no_label_leakage_prediction_precedes_ingest(self, model):
        """A replayed prediction must not see its own event: with a
        2-event stream the single prediction's history/prefix is the
        state before event 2."""
        predictor = Predictor(model, graph_cache_size=16)
        report = prequential_replay(
            predictor,
            [ev(1, 3, 0.0), ev(1, 4, 1.0)],
            keep_results=True,
        )
        assert report.predictions == 1
        record = report.records[0]
        assert (record.history_len, record.prefix_len) == (0, 1)
        assert record.target_poi == 4

    def test_session_openers_are_not_predicted(self, model):
        predictor = Predictor(model, graph_cache_size=16)
        report = prequential_replay(
            predictor,
            [ev(1, 3, 0.0), ev(1, 4, 500.0), ev(1, 5, 501.0)],
        )
        # event 2 opens a new session (gap) -> only event 3 is a test
        assert report.predictions == 1

    def test_rejects_bad_batch_size(self, model):
        with pytest.raises(ValueError):
            prequential_replay(Predictor(model, graph_cache_size=None), [], batch_size=0)

    def test_baseline_rejects_out_of_order(self, model):
        predictor = Predictor(model, graph_cache_size=None)
        with pytest.raises(ValueError, match="out-of-order"):
            serialised_rebuild_baseline(predictor, [ev(1, 3, 5.0), ev(1, 4, 1.0)])


# ----------------------------------------------------------------------
# sorted-invariant regression (satellite)
# ----------------------------------------------------------------------
class TestCheckinSortedInvariant:
    def test_of_user_sorts_out_of_order_input(self):
        shuffled = [
            Checkin(user_id=1, poi_id=3, timestamp=50.0),
            Checkin(user_id=1, poi_id=1, timestamp=10.0),
            Checkin(user_id=2, poi_id=9, timestamp=1.0),
            Checkin(user_id=1, poi_id=2, timestamp=30.0),
        ]
        dataset = CheckinDataset(shuffled)
        assert [c.poi_id for c in dataset.of_user(1)] == [1, 2, 3]
        times = [c.timestamp for c in dataset.of_user(1)]
        assert times == sorted(times)

    def test_stream_store_accepts_any_of_user_output(self):
        """The store's ordered-append requirement is satisfied by
        construction for every CheckinDataset, however unsorted the
        raw input was."""
        rng = np.random.default_rng(3)
        records = [
            Checkin(user_id=int(u), poi_id=int(p), timestamp=float(t))
            for u, p, t in zip(
                rng.integers(0, 5, 200), rng.integers(0, 40, 200), rng.uniform(0, 500, 200)
            )
        ]
        dataset = CheckinDataset(records)
        store = UserStateStore(StoreConfig(num_shards=2))
        for user in dataset.users():
            for record in dataset.of_user(user):
                store.append(CheckinEvent.from_checkin(record))  # must not raise
        assert store.stats()["events"] == 200
