"""Durable single-process serving: interval snapshots, crash recovery, shutdown.

``repro serve --persist DIR`` logs every acknowledged check-in to DIR
and rolls snapshots while it serves.  The kill-and-recover tests
SIGKILL such a process mid-ingest, start it again over DIR, and assert
that it serves the ranked lists it served before the crash and carries
each user's ``state_version`` on, and that it serves exactly what a
never-crashed in-process control serves: the same top-10 lists and the
same ``state_version``s.  A second Ctrl-C during shutdown does not
abort the final snapshot.
"""

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cluster import DurableIngest, EventLogWriter, list_snapshots
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset
from repro.serve import InferenceServer, ServerConfig, load_checkpoint, save_checkpoint
from repro.stream import StoreConfig, UserStateStore
from repro.stream.events import event_from_json, events_from_checkins
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


class ServeProcess:
    """``python -m repro serve --checkpoint C --persist D --port 0 ...``
    in a subprocess, its output read on a thread; a context manager
    that kills the process on exit if it still runs."""

    def __init__(self, checkpoint, persist, *extra):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONUNBUFFERED="1",
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--checkpoint", str(checkpoint),
             "--persist", str(persist), "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        self.output = []
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.url = re.search(
            r"serving on (\S+)", self.wait_for("serving on", 120)
        ).group(1)

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # end of output

    def wait_for(self, text, timeout):
        """Read output lines until one contains ``text``; return it."""
        deadline = time.monotonic() + timeout
        while True:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            assert line is not None, f"exited before {text!r}: {''.join(self.output)}"
            self.output.append(line)
            if text in line:
                return line

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(5.0)
        self.proc.stdout.close()


class Client:
    """JSON round trips over one keep-alive HTTP connection."""

    def __init__(self, url):
        host, port = url.removeprefix("http://").split(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)

    def exchange(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        self.conn.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.conn.close()


# ----------------------------------------------------------------------
# durable single-process serving path
# ----------------------------------------------------------------------
class TestDurableServingPath:
    def test_checkin_rolls_interval_snapshots(self, checkpoint, event_tape, tmp_path):
        """--snapshot-interval must fire during serving, not only at
        shutdown, or the WAL grows without bound and restart replays
        the whole log."""
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

    def test_backpressure_is_429_and_shutdown_503(self, checkpoint, tmp_path):
        """The JSON surface maps a full queue and a closed scheduler to
        429 and 503, for stateless and history-less bodies alike, not
        to a 500."""
        loaded = load_checkpoint(checkpoint, rng=spawn(42))
        log = EventLogWriter(tmp_path)
        ingest = DurableIngest(store=UserStateStore(StoreConfig(num_shards=2)), log=log)
        # never started: nothing drains the one-slot queue
        server = InferenceServer(
            loaded.model,
            config=ServerConfig(max_queue=1),
            dataset=loaded.dataset,
            ingest=ingest,
        )
        bodies = [{"prefix": [1], "k": 5}, {"user_id": 3, "k": 5}]
        try:
            checkin = {"user_id": 3, "poi_id": 1, "timestamp": 0.0}
            assert server.checkin_json(checkin)[0] == 200
            server.submit_user(3)  # fills the queue
            for body in bodies:
                status, reply = server.predict_json(body)
                assert status == 429, reply
            server.stop(drain=False)
            for body in bodies:
                status, reply = server.predict_json(body)
                assert status == 503, reply
        finally:
            log.close()


# ----------------------------------------------------------------------
# kill-and-recover
# ----------------------------------------------------------------------
def _gap_heavy_tape(event_tape):
    """``(pre_crash, post_crash)``: the tape plus four rounds in which
    every user rolls a session.

    The raw tape barely crosses the 72h gap, so two rounds land before
    the crash and two after: every user rolls sessions on both sides of
    the recovery boundary, exercising the incremental graphs, and the
    last pre-crash round leaves every user a session open.
    """
    last, poi = {}, {}
    for payload in event_tape:
        last[payload["user_id"]] = payload["timestamp"]
        poi.setdefault(payload["user_id"], payload["poi_id"])
    horizon = max(last.values())
    rounds = [
        [
            {"user_id": user, "poi_id": poi[user],
             "timestamp": horizon + k * 100.0 * 3600.0}
            for user in sorted(last)
        ]
        for k in (1, 2, 3, 4)
    ]
    return event_tape + rounds[0] + rounds[1], rounds[2] + rounds[3]


def _recovery_counts(serving):
    """``(users, snapshot_seq, replayed)`` from the recovery line."""
    recovered = re.search(
        r"recovered (\d+) users .*\(snapshot seq (\d+) \+ (\d+) replayed\)",
        "".join(serving.output),
    )
    assert recovered, serving.output
    return tuple(int(group) for group in recovered.groups())


class TestKillAndRecover:
    def test_sigkill_mid_ingest_recovers_exact_state(
        self, checkpoint, event_tape, tmp_path
    ):
        """SIGKILL ``repro serve --persist`` halfway through the tape and
        start it again over the same directory: every user's ranked list
        is the one served before the crash, each user's
        ``state_version`` carries on from its last pre-crash ack, and the
        restarted process takes the rest of the tape."""
        half = len(event_tape) // 2
        persist = tmp_path / "state"
        flags = ("--snapshot-interval", "40")
        versions = {}

        def checkin_all(client, payloads):
            for payload in payloads:
                status, body = client.exchange("POST", "/checkin", payload)
                assert status == 200, body
                user = payload["user_id"]
                assert body["state_version"] == versions.get(user, 0) + 1
                versions[user] = body["state_version"]

        def ranked(client):
            lists = {}
            for user in sorted(versions):
                status, body = client.exchange(
                    "POST", "/predict", {"user_id": user, "k": 10}
                )
                assert status == 200, body
                lists[user] = body["top_pois"]
            return lists

        with ServeProcess(checkpoint, persist, *flags) as first:
            with Client(first.url) as client:
                checkin_all(client, event_tape[:half])
                ranked_before = ranked(client)
            first.proc.send_signal(signal.SIGKILL)  # no final snapshot
            first.proc.wait(30)

        with ServeProcess(checkpoint, persist, *flags) as second:
            users, snapshot_seq, replayed = _recovery_counts(second)
            assert users == len(versions)
            assert snapshot_seq > 0 and replayed > 0
            with Client(second.url) as client:
                assert ranked(client) == ranked_before
                checkin_all(client, event_tape[half:])
                status, health = client.exchange("GET", "/healthz")
                assert status == 200 and health["status"] == "ok", health

    def test_recovered_shard_matches_never_crashed_control(
        self, checkpoint, event_tape, tmp_path
    ):
        """Full acceptance shape: SIGKILL ``repro serve --persist``
        mid-session, start it again over the same directory, and it
        serves exactly what a never-crashed in-process control serves,
        through the rest of a gap-heavy tape."""
        pre_crash, post_crash = _gap_heavy_tape(event_tape)
        persist = tmp_path / "state"
        flags = ("--snapshot-interval", "40")
        loaded = load_checkpoint(checkpoint, rng=spawn(42))
        control = InferenceServer(
            loaded.model, dataset=loaded.dataset, state_store=UserStateStore(StoreConfig())
        ).start()
        try:
            for payload in pre_crash:
                control.checkin(event_from_json(payload))
            users = control.state_store.users()

            def assert_serves_like_control(client):
                for user in users:
                    status, body = client.exchange(
                        "POST", "/predict", {"user_id": user, "k": 10}
                    )
                    assert status == 200, body
                    assert body["top_pois"] == control.predict_user(user).ranked_pois[:10]

            with ServeProcess(checkpoint, persist, *flags) as first:
                with Client(first.url) as client:
                    for payload in pre_crash:
                        status, body = client.exchange("POST", "/checkin", payload)
                        assert status == 200, body
                    _, stats = client.exchange("GET", "/stats")
                # the crash must land mid-session, with incrementally
                # maintained graphs live, or it proves nothing about
                # recovering open state
                before = stats["stream"]
                assert before["graph_updates"] > 0, "no live incremental graphs"
                assert before["graph_rebuilds"] == 0
                assert before["open_visits"] > 0, "crash did not land mid-session"
                first.proc.send_signal(signal.SIGKILL)  # no final snapshot
                first.proc.wait(30)

            with ServeProcess(checkpoint, persist, *flags) as second:
                # recovery read a snapshot and folded a non-empty log
                # tail past it
                _, snapshot_seq, replayed = _recovery_counts(second)
                assert snapshot_seq > 0 and replayed > 0
                with Client(second.url) as client:
                    assert_serves_like_control(client)
                    for payload in post_crash:
                        status, body = client.exchange("POST", "/checkin", payload)
                        assert status == 200, body
                        expected = control.checkin(event_from_json(payload))
                        assert body["state_version"] == expected.state_version
                    _, stats = client.exchange("GET", "/stats")
                    # incremental maintenance resumed: post-recovery
                    # rollovers push updated graphs into the serving
                    # cache, after at most one lazy rebuild per user
                    # (log replay runs before the maintainer attaches)
                    after = stats["stream"]
                    assert after["graph_pushes"] > 0
                    assert 1 <= after["graph_rebuilds"] <= after["users"]
                    assert_serves_like_control(client)
        finally:
            control.stop()


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------
class TestServeShutdown:
    def test_second_sigint_does_not_abort_shutdown(self, checkpoint, tmp_path):
        """A second Ctrl-C during ``repro serve --persist``'s graceful
        shutdown does not abort it: the process exits 0 with its final
        snapshot written."""
        persist = tmp_path / "state"
        with ServeProcess(checkpoint, persist) as serving:
            # an answer means serve_forever runs, inside its try block
            urllib.request.urlopen(serving.url + "/healthz", timeout=30).close()
            serving.proc.send_signal(signal.SIGINT)
            serving.wait_for("shutting down", 30)
            serving.proc.send_signal(signal.SIGINT)
            assert serving.proc.wait(timeout=30) == 0, "".join(serving.output)
        assert list(persist.glob("snapshot-*.npz"))
