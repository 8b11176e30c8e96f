"""Durability layer of repro.cluster: WAL, snapshots, recovery.

Everything here is in-process (no subprocesses): the event log's
torn-write contract, snapshot round-trips, the recovery fold's
exactness against a never-persisted control store, and the
DurableIngest ack-is-commit ordering.
"""

import json
import logging
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DurableIngest,
    EventLogWriter,
    SnapshotError,
    WalCorruptionError,
    list_segments,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    read_log,
    recover_store,
    save_snapshot,
)
from repro.stream.events import CheckinEvent, event_from_json
from repro.stream.state import StoreConfig, UserStateStore

STORE_CFG = StoreConfig(
    num_shards=4, max_sessions=8, max_session_visits=16, gap_hours=24.0
)


def ev(user, poi, t):
    return CheckinEvent(user_id=user, poi_id=poi, timestamp=float(t))


def drifting_events(count=60, users=5):
    """A deterministic event tape with occasional session-gap jumps."""
    events, t = [], 0.0
    for i in range(count):
        t += 0.5 if i % 3 else 30.0  # every third step crosses the gap
        events.append(ev(i % users, (i * 3) % 11, t))
    return events


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_append_read_round_trip(self, tmp_path):
        events = drifting_events(24)
        with EventLogWriter(tmp_path, segment_max_records=5) as log:
            seqs = [log.append(e) for e in events]
        assert seqs == list(range(1, 25))
        result = read_log(tmp_path)
        assert [e for _, e in result.records] == events
        assert [s for s, _ in result.records] == seqs
        assert result.last_seq == 24
        assert result.torn_skipped == 0
        assert len(list_segments(tmp_path)) == 5  # 24 records, 5 per segment

    def test_min_seq_filters_replayed_prefix(self, tmp_path):
        events = drifting_events(10)
        with EventLogWriter(tmp_path) as log:
            for e in events:
                log.append(e)
        result = read_log(tmp_path, min_seq=7)
        assert [s for s, _ in result.records] == [8, 9, 10]

    def test_next_seq_spans_restarts(self, tmp_path):
        with EventLogWriter(tmp_path) as log:
            for e in drifting_events(5):
                log.append(e)
        # a restarted writer resumes the dense numbering in a NEW segment
        with EventLogWriter(tmp_path, next_seq=6) as log:
            log.append(ev(9, 1, 1e6))
        result = read_log(tmp_path)
        assert [s for s, _ in result.records] == [1, 2, 3, 4, 5, 6]
        assert len(list_segments(tmp_path)) == 2

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            EventLogWriter(tmp_path, fsync="sometimes")

    def test_fsync_always_syncs_every_append(self, tmp_path):
        log = EventLogWriter(tmp_path, fsync="always")
        for e in drifting_events(4):
            log.append(e)
        assert log.fsyncs == 4
        log.close()
        assert log.fsyncs == 5  # close rotates, which also syncs

    def test_fsync_never_never_syncs(self, tmp_path):
        with EventLogWriter(tmp_path, fsync="never") as log:
            for e in drifting_events(4):
                log.append(e)
        assert log.fsyncs == 0

    def test_torn_final_record_skipped_with_warning(self, tmp_path, caplog):
        with EventLogWriter(tmp_path) as log:
            for e in drifting_events(3):
                log.append(e)
        segment = list_segments(tmp_path)[-1]
        with open(segment, "ab") as fh:
            fh.write(b'{"seq": 4, "user_id": 1, "poi')  # crashed mid-write
        with caplog.at_level(logging.WARNING, logger="repro.cluster.wal"):
            result = read_log(tmp_path)
        assert result.torn_skipped == 1
        assert result.last_seq == 3  # the torn record was never acknowledged
        assert any("torn" in record.message for record in caplog.records)

    def test_torn_final_line_with_newline_also_skipped(self, tmp_path):
        with EventLogWriter(tmp_path) as log:
            for e in drifting_events(3):
                log.append(e)
        segment = list_segments(tmp_path)[-1]
        with open(segment, "ab") as fh:
            fh.write(b'{"seq": 4, "user_id"\n')  # terminator made it, body didn't
        result = read_log(tmp_path)
        assert result.torn_skipped == 1 and result.last_seq == 3

    def test_mid_file_corruption_raises(self, tmp_path):
        with EventLogWriter(tmp_path) as log:
            for e in drifting_events(6):
                log.append(e)
        segment = list_segments(tmp_path)[0]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:3] + b"XXXX" + raw[7:])
        with pytest.raises(WalCorruptionError, match="malformed record"):
            read_log(tmp_path)

    def test_unterminated_non_final_segment_raises(self, tmp_path):
        with EventLogWriter(tmp_path, segment_max_records=3) as log:
            for e in drifting_events(6):
                log.append(e)
        first, _ = list_segments(tmp_path)
        with open(first, "ab") as fh:
            fh.write(b'{"seq": 99')  # a torn tail buried mid-log = corruption
        with pytest.raises(WalCorruptionError, match="unterminated"):
            read_log(tmp_path)

    def test_non_monotonic_seq_raises(self, tmp_path):
        with EventLogWriter(tmp_path) as log:
            log.append(ev(1, 1, 1.0))
            log.append(ev(1, 2, 2.0))
        segment = list_segments(tmp_path)[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(lines[1] + lines[0])  # swap the two records
        with pytest.raises(WalCorruptionError, match="non-monotonic"):
            read_log(tmp_path)

    def test_prune_spares_open_segment_and_uncovered_records(self, tmp_path):
        log = EventLogWriter(tmp_path, segment_max_records=3)
        for e in drifting_events(10):
            log.append(e)
        assert len(list_segments(tmp_path)) == 4  # 3+3+3 closed + 1 open
        removed = log.prune(upto_seq=7)
        # segments [1-3] and [4-6] are covered; [7-9] reaches seq 9 > 7
        assert len(removed) == 2
        result = read_log(tmp_path, min_seq=7)
        assert [s for s, _ in result.records] == [8, 9, 10]
        log.close()

    def test_rotate_drops_empty_segment(self, tmp_path):
        log = EventLogWriter(tmp_path)
        log.append(ev(1, 1, 1.0))
        log.rotate()
        log.rotate()  # nothing written since: no file should appear
        log.close()
        assert len(list_segments(tmp_path)) == 1

    def test_concurrent_appends_stay_dense_and_replayable(self, tmp_path):
        """ThreadingHTTPServer shape: many threads share one writer."""
        log = EventLogWriter(tmp_path, segment_max_records=16)
        per_thread = 50

        def appender(user):
            for i in range(per_thread):
                log.append(ev(user, i % 11, float(i)))

        threads = [
            threading.Thread(target=appender, args=(user,)) for user in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        # interleaved writes would produce duplicate/non-monotonic seqs
        # or torn lines that read_log rejects as corruption
        result = read_log(tmp_path)
        assert [s for s, _ in result.records] == list(range(1, 4 * per_thread + 1))
        assert result.torn_skipped == 0

    @pytest.mark.parametrize("line", [b"null", b"123", b'"x"', b"[1]"])
    def test_record_that_is_not_an_object(self, tmp_path, line):
        """Valid JSON but not an object: corruption mid-log, torn at the tail."""
        with EventLogWriter(tmp_path) as log:
            for e in drifting_events(3):
                log.append(e)
        segment = list_segments(tmp_path)[0]
        records = segment.read_bytes().split(b"\n")  # 3 records, then b""
        segment.write_bytes(b"\n".join([records[0], line, records[2], b""]))
        with pytest.raises(WalCorruptionError, match="not a JSON object"):
            read_log(tmp_path)
        segment.write_bytes(b"\n".join([records[0], records[1], line, b""]))
        result = read_log(tmp_path)
        assert result.torn_skipped == 1 and result.last_seq == 2


# ``hypothesis`` properties of the torn-tail contract, on single-segment
# logs of 1-8 events (``hypothesis`` rejects function-scoped fixtures, so
# each example writes into its own temporary directory).
wal_events = st.builds(
    CheckinEvent,
    user_id=st.integers(),
    poi_id=st.integers(min_value=0),
    timestamp=st.floats(allow_nan=False, allow_infinity=False),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
# record-shaped objects with arbitrary field values, so the typed field
# checks are exercised as well as the shape check
record_shaped = st.fixed_dictionaries(
    {"seq": json_values, "user_id": json_values, "poi_id": json_values, "timestamp": json_values}
)


def _is_valid_record(line: bytes) -> bool:
    try:
        payload = json.loads(line)
        if not isinstance(payload, dict):
            return False
        seq = payload.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            return False
        event_from_json({k: v for k, v in payload.items() if k != "seq"})
    except ValueError:
        return False
    return True


not_records = st.one_of(
    st.binary(max_size=64).map(lambda raw: raw.replace(b"\n", b"")),
    st.one_of(json_values, record_shaped).map(lambda value: json.dumps(value).encode()),
).filter(lambda line: not _is_valid_record(line))


def _write_log(directory, events):
    with EventLogWriter(directory) as log:
        for e in events:
            log.append(e)
    (segment,) = list_segments(directory)
    return segment


@settings(max_examples=80, deadline=None)
@given(events=st.lists(wal_events, min_size=1, max_size=8), data=st.data())
def test_cut_final_record_is_skipped_as_torn(events, data):
    """Cutting the final record anywhere before its newline, keeping at
    least one byte, loses exactly that record."""
    with tempfile.TemporaryDirectory() as directory:
        segment = _write_log(directory, events)
        raw = segment.read_bytes()
        start = raw.rstrip(b"\n").rfind(b"\n") + 1  # the final record's first byte
        keep = data.draw(st.integers(1, len(raw) - 1 - start))
        segment.write_bytes(raw[: start + keep])
        result = read_log(directory)
    assert result.torn_skipped == 1
    assert [e for _, e in result.records] == events[:-1]


@settings(max_examples=100, deadline=None)
@given(
    events=st.lists(wal_events, min_size=2, max_size=8),
    replacement=not_records,
    data=st.data(),
)
def test_damaged_earlier_record_raises(events, replacement, data):
    """Any line but the last replaced by arbitrary bytes or by a JSON
    value that is not a valid record: a typed corruption error."""
    with tempfile.TemporaryDirectory() as directory:
        segment = _write_log(directory, events)
        lines = segment.read_bytes().split(b"\n")
        lines[data.draw(st.integers(0, len(events) - 2))] = replacement
        segment.write_bytes(b"\n".join(lines))
        with pytest.raises(WalCorruptionError):
            read_log(directory)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def filled_store(events=None):
    store = UserStateStore(STORE_CFG)
    for event in events or drifting_events(57):
        store.append(event)
    return store


class TestSnapshots:
    def test_round_trip_exact(self, tmp_path):
        store = filled_store()
        path = save_snapshot(store, tmp_path, last_seq=57)
        assert path.name == "snapshot-000000000057.npz"
        loaded = load_snapshot(path)
        assert loaded.last_seq == 57
        assert len(loaded.store) == len(store)
        for user in store.users():
            a, b = loaded.store.snapshot(user), store.snapshot(user)
            assert a.state_version == b.state_version
            assert a.history_version == b.history_version
            assert [t.visits for t in a.history] == [t.visits for t in b.history]
            assert a.prefix == b.prefix
            assert a.last_timestamp == b.last_timestamp
        assert loaded.store.stats() == store.stats()

    def test_round_trip_preserves_append_behaviour(self, tmp_path):
        """The restored store keeps folding identically to the original."""
        events = drifting_events(57)
        store = filled_store(events[:40])
        loaded = load_snapshot(save_snapshot(store, tmp_path, 40))
        for event in events[40:]:
            assert loaded.store.append(event) == store.append(event)

    def test_config_knob_mismatch_raises(self, tmp_path):
        path = save_snapshot(filled_store(), tmp_path, 57)
        mismatched = StoreConfig(
            num_shards=4, max_sessions=8, max_session_visits=16, gap_hours=72.0
        )
        with pytest.raises(SnapshotError, match="gap_hours"):
            load_snapshot(path, config=mismatched)

    def test_lock_striping_may_differ(self, tmp_path):
        # num_shards is concurrency layout, not semantics
        path = save_snapshot(filled_store(), tmp_path, 57)
        relaid = load_snapshot(
            path,
            config=StoreConfig(
                num_shards=1, max_sessions=8, max_session_visits=16, gap_hours=24.0
            ),
        )
        assert len(relaid.store) == 5

    def test_empty_store_round_trips(self, tmp_path):
        loaded = load_snapshot(save_snapshot(UserStateStore(STORE_CFG), tmp_path, 0))
        assert len(loaded.store) == 0 and loaded.last_seq == 0

    def test_prune_keeps_newest_two(self, tmp_path):
        store = filled_store()
        for seq in (10, 20, 30):
            save_snapshot(store, tmp_path, seq)
        (tmp_path / "snapshot-000000000040.npz.tmp").write_bytes(b"torn")
        prune_snapshots(tmp_path, keep=2)
        assert [p.name for p in list_snapshots(tmp_path)] == [
            "snapshot-000000000020.npz",
            "snapshot-000000000030.npz",
        ]
        assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# recovery + DurableIngest
# ----------------------------------------------------------------------
class TestRecovery:
    def test_recovered_store_matches_never_crashed_control(self, tmp_path):
        events = drifting_events(57)
        control = filled_store(events)
        log = EventLogWriter(tmp_path, segment_max_records=7)
        durable = DurableIngest(
            store=UserStateStore(STORE_CFG), log=log, snapshot_interval=10
        )
        for event in events:
            durable.ingest(event)
            durable.maybe_snapshot()
        log.close()

        recovered = recover_store(tmp_path, config=STORE_CFG)
        assert recovered.last_seq == 57
        assert recovered.snapshot_seq > 0  # a snapshot actually participated
        assert recovered.replayed == 57 - recovered.snapshot_seq
        for user in control.users():
            a = recovered.store.snapshot(user)
            b = control.snapshot(user)
            assert a.state_version == b.state_version
            assert [t.visits for t in a.history] == [t.visits for t in b.history]
            assert a.prefix == b.prefix
        assert recovered.store.stats() == control.stats()

    def test_recovery_without_snapshot_is_pure_fold(self, tmp_path):
        with EventLogWriter(tmp_path) as log:
            durable = DurableIngest(
                store=UserStateStore(STORE_CFG), log=log, snapshot_interval=10**9
            )
            for event in drifting_events(20):
                durable.ingest(event)
        recovered = recover_store(tmp_path, config=STORE_CFG)
        assert recovered.snapshot_seq == 0 and recovered.replayed == 20

    def test_recovery_skips_torn_tail(self, tmp_path):
        with EventLogWriter(tmp_path) as log:
            durable = DurableIngest(
                store=UserStateStore(STORE_CFG), log=log, snapshot_interval=10**9
            )
            for event in drifting_events(10):
                durable.ingest(event)
        segment = list_segments(tmp_path)[-1]
        with open(segment, "ab") as fh:
            fh.write(b'{"seq": 11, "user')
        recovered = recover_store(tmp_path, config=STORE_CFG)
        assert recovered.torn_skipped == 1 and recovered.last_seq == 10

    def test_rejected_event_never_reaches_the_log(self, tmp_path):
        log = EventLogWriter(tmp_path)
        durable = DurableIngest(store=UserStateStore(STORE_CFG), log=log)
        durable.ingest(ev(1, 1, 10.0))
        with pytest.raises(ValueError):
            durable.ingest(ev(1, 2, 5.0))  # out of order: rejected, not logged
        durable.ingest(ev(1, 3, 11.0))
        log.close()
        result = read_log(tmp_path)
        assert [e.poi_id for _, e in result.records] == [1, 3]
        # recovery replays exactly the acknowledged set -> no replay error
        recovered = recover_store(tmp_path, config=STORE_CFG)
        assert recovered.store.state_version(1) == 2

    def test_maybe_snapshot_interval_and_pruning(self, tmp_path):
        log = EventLogWriter(tmp_path, segment_max_records=4)
        durable = DurableIngest(
            store=UserStateStore(STORE_CFG), log=log, snapshot_interval=10
        )
        taken = []
        for event in drifting_events(25):
            durable.ingest(event)
            taken.append(durable.maybe_snapshot() is not None)
        assert sum(taken) == 2  # at events 10 and 20
        assert durable.snapshots_taken == 2
        # segments fully covered by the latest snapshot were pruned
        assert all(
            int(p.name[4:16]) > 16 for p in list_segments(tmp_path)
        )  # seq 20 snapshot covers segments [1-4]..[17-20]; [17-20] is open-adjacent
        stats = durable.stats()["durability"]
        assert stats["last_seq"] == 25
        assert stats["snapshots_taken"] == 2
        assert stats["since_snapshot"] == 5
        # the WAL health gauges behind /metrics
        assert stats["segments"] == len(list_segments(tmp_path))
        assert stats["bytes_appended"] > 0
        assert 0 < stats["bytes_since_snapshot"] < stats["bytes_appended"]
        assert 0.0 <= stats["snapshot_age_seconds"] < 60.0
        log.close()

    def test_wal_gauges_exposed_through_registry(self, tmp_path):
        """The durability gauges scrape straight from the registry."""
        from repro.obs import parse_prometheus, render_prometheus

        log = EventLogWriter(tmp_path, fsync="never", segment_max_records=4)
        durable = DurableIngest(
            store=UserStateStore(STORE_CFG), log=log, snapshot_interval=10
        )
        for event in drifting_events(12):
            durable.ingest(event)
            durable.maybe_snapshot()
        parsed = parse_prometheus(render_prometheus(durable.registry.snapshot()))
        assert parsed[("wal_last_seq", ())] == 12.0
        assert parsed[("wal_snapshots_taken", ())] == 1.0
        assert parsed[("wal_segments", ())] == float(len(list_segments(tmp_path)))
        assert parsed[("wal_appended", ())] == 12.0
        assert parsed[("wal_bytes_since_snapshot", ())] > 0.0
        assert 0.0 <= parsed[("wal_snapshot_age_seconds", ())] < 60.0
        # the fsync policy travels as a label, not a magic number
        assert parsed[("wal_info", (("fsync", "never"),))] == 1.0
        # before any snapshot the age gauge reads -1 (sentinel, not 0)
        fresh_dir = tmp_path / "fresh"
        fresh = DurableIngest(
            store=UserStateStore(STORE_CFG), log=EventLogWriter(fresh_dir)
        )
        fresh_parsed = parse_prometheus(
            render_prometheus(fresh.registry.snapshot())
        )
        assert fresh_parsed[("wal_snapshot_age_seconds", ())] == -1.0
        fresh.log.close()
        log.close()

    def test_threaded_ingest_recovers_exactly(self, tmp_path):
        """Concurrent ingest threads (one user each) must leave a log
        whose replay reproduces every acknowledged state_version."""
        log = EventLogWriter(tmp_path, segment_max_records=32)
        durable = DurableIngest(
            store=UserStateStore(STORE_CFG), log=log, snapshot_interval=25
        )
        per_user = 40

        def ingester(user):
            t = 0.0
            for i in range(per_user):
                t += 0.5 if i % 3 else 30.0
                durable.ingest(ev(user, (i * 3) % 11, t))
                durable.maybe_snapshot()  # any thread may roll it now

        threads = [
            threading.Thread(target=ingester, args=(user,)) for user in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()

        recovered = recover_store(tmp_path, config=STORE_CFG)
        assert recovered.last_seq == 4 * per_user
        for user in durable.store.users():
            assert recovered.store.state_version(user) == (
                durable.store.state_version(user)
            )

    @pytest.mark.parametrize(
        "leftover",
        [b"", b'{"seq": 6, "user'],
        ids=["empty", "torn-first-record"],
    )
    def test_recovery_clears_dead_trailing_segment(self, tmp_path, leftover):
        """A crash can leave wal-<last_seq+1> holding no valid record;
        recovery must remove it or the next writer's exclusive create
        collides and every restart of the serving process fails."""
        with EventLogWriter(tmp_path) as log:
            for event in drifting_events(5):
                log.append(event)
        (tmp_path / "wal-000000000006.log").write_bytes(leftover)

        recovered = recover_store(tmp_path, config=STORE_CFG)
        assert recovered.last_seq == 5
        # the seed recovery hands the writer must not collide on disk
        with EventLogWriter(tmp_path, next_seq=recovered.last_seq + 1) as log:
            log.append(ev(9, 1, 1e6))
        result = read_log(tmp_path)
        assert [s for s, _ in result.records] == [1, 2, 3, 4, 5, 6]

    def test_force_snapshot(self, tmp_path):
        with EventLogWriter(tmp_path) as log:
            durable = DurableIngest(store=UserStateStore(STORE_CFG), log=log)
            durable.ingest(ev(1, 1, 1.0))
            assert durable.maybe_snapshot() is None  # interval not reached
            path = durable.maybe_snapshot(force=True)
            assert path is not None and path.exists()
