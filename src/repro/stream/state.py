"""Sharded, lock-striped per-user state for the online check-in stream.

The serving runtime of PRs 1–4 is stateless: every request ships the
user's full check-in history over the wire.  :class:`UserStateStore`
makes the server the owner of that state instead:

* users hash onto ``num_shards`` independent shards, each guarded by
  its own lock, so concurrent ingest and predict traffic for different
  users never contends on one global lock;
* each user holds a bounded deque of *completed* sessions (the QR-P
  history) plus the open, in-progress session (the prediction prefix);
* session boundaries follow the paper's Δt gap rule — an arrival
  ``>= gap_hours`` after the previous one closes the open session —
  exactly matching :func:`~repro.data.trajectory.split_into_trajectories`,
  so a replayed stream reconstructs the offline trajectories;
* every append bumps the user's monotonically increasing
  ``state_version``; ``history_version`` (the ``state_version`` of the
  last append that *changed the completed-session history*) keys the
  per-user QR-P graph cache, the same way shared embeddings ride
  ``weights_version`` — a graph cached under the old key can never be
  served after the history moves.

Appends must be time-ordered per user (the same invariant
:class:`~repro.data.checkin.CheckinDataset` enforces on construction);
an out-of-order arrival raises ``ValueError`` instead of silently
corrupting the session split.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..data.trajectory import (
    DEFAULT_GAP_HOURS,
    PredictionSample,
    Trajectory,
    Visit,
)
from ..graphs import StaleEvictionError
from .events import CheckinEvent


def stream_history_key(user_id: int, history_version: int) -> Tuple:
    """QR-P graph-cache key for a stored user's history.

    Namespaced ``("stream", ...)`` so stored-state keys are disjoint
    from both dataset ``(user, trajectory-index)`` keys and the
    stateless serving ``("serve", user, digest)`` keys.  The key moves
    with ``history_version``, so a session rollover both *retires* the
    old entry (the ingest pipeline drops it) and guarantees the next
    predict builds a fresh graph even if the drop were missed.
    """
    return ("stream", user_id, history_version)


@dataclass(frozen=True)
class StoreConfig:
    """Sharding and bounding knobs of the user-state store.

    ``max_sessions`` bounds how many completed sessions feed QR-P graph
    construction (the oldest falls off); ``max_session_visits`` force-
    rolls a pathological never-gapping session so the prediction prefix
    — and the padded batch encode behind it — stays bounded.
    """

    num_shards: int = 16
    max_sessions: int = 64
    max_session_visits: int = 512
    gap_hours: float = DEFAULT_GAP_HOURS

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_session_visits < 2:
            raise ValueError("max_session_visits must be >= 2")
        if self.gap_hours <= 0:
            raise ValueError("gap_hours must be positive")


@dataclass
class AppendResult:
    """What one :meth:`UserStateStore.append` did.

    ``invalidated_key`` is the graph-cache key made stale by this
    append (set exactly when the completed-session history changed);
    the ingest pipeline drops it from the serving caches.  When a graph
    maintainer is attached, ``history_key``/``graph_entry`` carry the
    *replacement*: the key the moved history now lives under and the
    incrementally updated ``(qrp, edges)`` cache value, which the
    ingest pipeline pushes into compatible worker caches so the next
    predict for this user is a cache hit instead of a rebuild.
    """

    user_id: int
    state_version: int
    session_rolled: bool
    forced_roll: bool
    session_length: int  # open-session length after the append
    num_sessions: int  # completed sessions now in history
    invalidated_key: Optional[Tuple] = None
    history_key: Optional[Tuple] = None  # set when the history moved
    graph_entry: Optional[Tuple] = None  # fresh (qrp, edges) for history_key

    def as_dict(self) -> Dict:
        return {
            "user_id": self.user_id,
            "state_version": self.state_version,
            "session_rolled": self.session_rolled,
            "forced_roll": self.forced_roll,
            "session_length": self.session_length,
            "num_sessions": self.num_sessions,
        }


@dataclass
class UserSnapshot:
    """One consistent read of a user's state.

    ``history``/``prefix`` are safe to use lock-free after the snapshot:
    completed :class:`Trajectory` objects are never mutated once rolled,
    and ``prefix`` is a copy of the open session.  This is what makes
    snapshot-then-batch prequential replay sound — a sample built from
    a snapshot cannot observe any later ingest.
    """

    user_id: int
    history: List[Trajectory]
    prefix: List[Visit]
    state_version: int
    history_version: int
    last_timestamp: float
    gap_hours: float = DEFAULT_GAP_HOURS
    max_session_visits: int = 512
    #: The live incrementally maintained ``(qrp, edges)`` for
    #: ``history`` when a graph maintainer is attached and the user's
    #: graph has been materialised; versioned by ``history_version``
    #: (the graph is a pure function of the completed sessions, which
    #: only move when ``history_version`` does).  Safe to read
    #: lock-free: graph states are replaced copy-on-write, never
    #: mutated in place.
    graph: Optional[Tuple] = None

    @property
    def history_key(self) -> Tuple:
        return stream_history_key(self.user_id, self.history_version)

    def continues_session(self, event: CheckinEvent) -> bool:
        """Would ``event`` extend the open session (vs start a new one)?

        Mirrors the store's append rule: a gap ``>= gap_hours`` or a
        full open session rolls.  Replay uses this to decide whether an
        arrival has an offline prediction-sample counterpart (the first
        visit of a session is never a prediction target).
        """
        if not self.prefix:
            return False
        if event.timestamp - self.last_timestamp >= self.gap_hours:
            return False
        return len(self.prefix) < self.max_session_visits

    def sample(self, target: Optional[Visit] = None) -> PredictionSample:
        """The snapshot as a prediction sample (history-less serving)."""
        return PredictionSample(
            user_id=self.user_id,
            history=self.history,
            prefix=self.prefix,
            target=target,
            history_key=self.history_key,
        )


def _graph_entry(gstate) -> Tuple:
    """A live graph state as a serving-cache value.

    Matches what the model's cache-miss path (``TSPNRA._qrp_for``)
    builds: ``(qrp, edges)``, with edges accompanying non-empty graphs
    only — so a pushed entry is indistinguishable from a rebuilt one.
    """
    return (gstate.qrp, gstate.edges if not gstate.qrp.is_empty else {})


class _UserState:
    """Mutable per-user record; all access under the owning shard lock."""

    __slots__ = (
        "user_id",
        "sessions",
        "open_visits",
        "last_timestamp",
        "state_version",
        "history_version",
        "graph",
    )

    def __init__(self, user_id: int, max_sessions: int):
        self.user_id = user_id
        self.sessions: Deque[Trajectory] = deque(maxlen=max_sessions)
        self.open_visits: List[Visit] = []
        self.last_timestamp = float("-inf")
        self.state_version = 0
        self.history_version = 0
        # live QRPGraphState when a maintainer is attached; None until
        # materialised (lazily for users predating the attach or
        # restored from a snapshot — the graph is derivable from
        # ``sessions``, so persistence never has to carry it)
        self.graph = None


@dataclass
class _Shard:
    """One lock stripe: a user map plus its counters.

    Occupancy (``open_visits``/``held_sessions``) is maintained
    incrementally on append so :meth:`UserStateStore.stats` is
    O(shards), never O(users) — a /stats poll must not stall ingest by
    walking a large shard under its lock.
    """

    lock: threading.Lock = field(default_factory=threading.Lock)
    users: Dict[int, _UserState] = field(default_factory=dict)
    events: int = 0
    rollovers: int = 0
    forced_rolls: int = 0
    open_visits: int = 0
    held_sessions: int = 0
    graph_updates: int = 0  # incremental session appends
    graph_evictions: int = 0  # incremental deque evictions
    graph_rebuilds: int = 0  # counted full builds (restore / fallback)


class UserStateStore:
    """N-shard, lock-striped map of user id -> trajectory state.

    Thread-safety contract: :meth:`append` and :meth:`snapshot` for the
    *same* user serialise on the user's shard lock; different shards
    proceed fully in parallel.  Appends for one user must arrive
    time-ordered (enforced), matching the offline sorted invariant.
    """

    def __init__(self, config: Optional[StoreConfig] = None):
        self.config = config or StoreConfig()
        self._shards = [_Shard() for _ in range(self.config.num_shards)]
        self._graphs = None  # QRPGraphMaintainer once attached
        self._graphs_lock = threading.Lock()

    def _shard_of(self, user_id: int) -> _Shard:
        return self._shards[hash(user_id) % len(self._shards)]

    # ------------------------------------------------------------------
    # incremental graph maintenance
    # ------------------------------------------------------------------
    def attach_graph_maintainer(self, maintainer) -> bool:
        """Adopt one incremental QR-P maintainer for the whole store.

        Returns True when ``maintainer`` is (now) the store's
        maintainer — workers sharing one tile system pass the same
        memoised instance, so every registration after the first is a
        no-op success.  A *different* maintainer (e.g. a second model
        over another tile system sharing the store) returns False: the
        store keeps maintaining graphs for the first one, and the
        mismatched worker simply gets no pushed entries — its cache
        misses rebuild per key, exactly as before this feature.
        """
        if maintainer is None:
            return False
        with self._graphs_lock:
            if self._graphs is None:
                self._graphs = maintainer
            return self._graphs is maintainer

    @property
    def graph_maintainer(self):
        return self._graphs

    def _advance_graph(self, shard: _Shard, state: _UserState, closed, evicted):
        """Apply one rollover's delta to the user's live graph.

        Called under the shard lock, after ``closed`` has been appended
        to (and ``evicted`` dropped from) the session deque.  Returns
        the fresh ``(qrp, edges)`` cache entry.  Anything the
        incremental path refuses (:class:`StaleEvictionError`) falls
        back to an explicit full build from the authoritative deque —
        counted in ``graph_rebuilds``, so fallback storms surface in
        ``/stats`` instead of hiding as silent O(history) work.
        """
        maintainer = self._graphs
        gstate = state.graph
        try:
            if gstate is None or gstate.maintainer is not maintainer:
                # lazy materialisation: user predates the attach or was
                # restored from a snapshot (graphs are derived, never
                # persisted); the canonical build over the held deque
                # is identical to what the deltas would have produced
                gstate = maintainer.build_state(state.sessions)
                shard.graph_rebuilds += 1
            else:
                if evicted is not None:
                    maintainer.evict_session(gstate, evicted)
                    shard.graph_evictions += 1
                maintainer.append_session(gstate, closed)
                shard.graph_updates += 1
        except StaleEvictionError:
            gstate = maintainer.build_state(state.sessions)
            shard.graph_rebuilds += 1
        state.graph = gstate
        return _graph_entry(gstate)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, event: CheckinEvent) -> AppendResult:
        """Ingest one check-in; returns what changed.

        Rolls the open session when the event arrives ``>= gap_hours``
        after the previous one (the paper's Δt rule) or when the open
        session is full (``forced_roll``).  Either way the triggering
        event seeds the new open session, so a known user always has a
        non-empty prediction prefix.
        """
        shard = self._shard_of(event.user_id)
        config = self.config
        with shard.lock:
            state = shard.users.get(event.user_id)
            if state is None:
                state = _UserState(event.user_id, config.max_sessions)
                if self._graphs is not None:
                    # brand-new users track incrementally from session
                    # zero; only attach-time pre-existing / restored
                    # users pay one lazy materialisation build
                    state.graph = self._graphs.new_state()
                shard.users[event.user_id] = state
            elif event.timestamp < state.last_timestamp:
                raise ValueError(
                    f"out-of-order check-in for user {event.user_id}: "
                    f"{event.timestamp} arrives after {state.last_timestamp}; "
                    "per-user events must be time-ordered"
                )
            rolled = forced = False
            if state.open_visits:
                if event.timestamp - state.last_timestamp >= config.gap_hours:
                    rolled = True
                elif len(state.open_visits) >= config.max_session_visits:
                    rolled = forced = True
            state.state_version += 1
            invalidated = new_key = graph_entry = None
            if rolled:
                # deque maxlen evicts the oldest completed session for
                # us; both the append and the eviction change history,
                # and one history_version bump covers both
                evicted = (
                    state.sessions[0]
                    if len(state.sessions) == config.max_sessions
                    else None
                )
                if evicted is None:
                    shard.held_sessions += 1  # else the eviction nets out
                shard.open_visits -= len(state.open_visits)
                closed = Trajectory(user_id=state.user_id, visits=state.open_visits)
                state.sessions.append(closed)
                state.open_visits = []
                invalidated = stream_history_key(state.user_id, state.history_version)
                state.history_version = state.state_version
                new_key = stream_history_key(state.user_id, state.history_version)
                if self._graphs is not None:
                    graph_entry = self._advance_graph(shard, state, closed, evicted)
            state.open_visits.append(Visit(poi_id=event.poi_id, timestamp=event.timestamp))
            state.last_timestamp = event.timestamp
            shard.events += 1
            shard.open_visits += 1
            if rolled:
                shard.rollovers += 1
            if forced:
                shard.forced_rolls += 1
            return AppendResult(
                user_id=event.user_id,
                state_version=state.state_version,
                session_rolled=rolled,
                forced_roll=forced,
                session_length=len(state.open_visits),
                num_sessions=len(state.sessions),
                invalidated_key=invalidated,
                history_key=new_key,
                graph_entry=graph_entry,
            )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def snapshot(self, user_id: int) -> UserSnapshot:
        """Consistent copy of one user's state; ``KeyError`` if unknown."""
        shard = self._shard_of(user_id)
        with shard.lock:
            state = shard.users.get(user_id)
            if state is None:
                raise KeyError(f"no state for user {user_id}")
            return UserSnapshot(
                user_id=user_id,
                history=list(state.sessions),
                prefix=list(state.open_visits),
                state_version=state.state_version,
                history_version=state.history_version,
                last_timestamp=state.last_timestamp,
                gap_hours=self.config.gap_hours,
                max_session_visits=self.config.max_session_visits,
                graph=None if state.graph is None else _graph_entry(state.graph),
            )

    def get_snapshot(self, user_id: int) -> Optional[UserSnapshot]:
        """:meth:`snapshot`, but ``None`` for unknown users."""
        try:
            return self.snapshot(user_id)
        except KeyError:
            return None

    def sample_for(self, user_id: int, target: Optional[Visit] = None) -> PredictionSample:
        """The user's stored state as a prediction sample.

        This is the history-less serving path: ``POST /predict
        {"user_id": ...}`` resolves through here before batching.
        Raises ``KeyError`` for users the store has never seen.
        """
        return self.snapshot(user_id).sample(target=target)

    def state_version(self, user_id: int) -> int:
        """Current version token (0 for unknown users).

        Reads the counter directly under the shard lock — no state
        copies — so it is cheap enough for optimistic cache probes.
        """
        shard = self._shard_of(user_id)
        with shard.lock:
            state = shard.users.get(user_id)
            return 0 if state is None else state.state_version

    # ------------------------------------------------------------------
    # persistence hooks (repro.cluster snapshots)
    # ------------------------------------------------------------------
    def export_users(self) -> List[Dict]:
        """Plain-data dump of every user's state, sorted by user id.

        The snapshot writer's input: each entry carries the completed
        sessions, the open prefix, and the exact version counters, so a
        :meth:`restore_user` round trip is lossless — replaying the
        event-log tail on the restored store reproduces the same
        ``state_version`` sequence the original store would have seen.
        Per-shard consistency comes from the shard locks; callers that
        need a *store-wide* consistent cut (the durable worker) must
        quiesce appends first, which the worker's single-threaded data
        loop gives for free.
        """
        out: List[Dict] = []
        for shard in self._shards:
            with shard.lock:
                for state in shard.users.values():
                    out.append(
                        {
                            "user_id": state.user_id,
                            "sessions": [
                                [(v.poi_id, v.timestamp) for v in t.visits]
                                for t in state.sessions
                            ],
                            "open": [(v.poi_id, v.timestamp) for v in state.open_visits],
                            "state_version": state.state_version,
                            "history_version": state.history_version,
                            "last_timestamp": state.last_timestamp,
                        }
                    )
        out.sort(key=lambda entry: entry["user_id"])
        return out

    def restore_user(
        self,
        user_id: int,
        sessions: List[List[Tuple[int, float]]],
        open_visits: List[Tuple[int, float]],
        state_version: int,
        history_version: int,
        last_timestamp: float,
    ) -> None:
        """Re-insert one exported user (snapshot recovery).

        Counters and occupancy gauges are restored exactly, so a
        recovered store is indistinguishable from one that ingested the
        same events live.  Raises ``ValueError`` if the user already has
        state — recovery must run before any live traffic.
        """
        shard = self._shard_of(user_id)
        with shard.lock:
            if user_id in shard.users:
                raise ValueError(f"cannot restore user {user_id}: state already present")
            state = _UserState(user_id, self.config.max_sessions)
            for visits in sessions:
                state.sessions.append(
                    Trajectory(
                        user_id=user_id,
                        visits=[Visit(poi_id=int(p), timestamp=float(t)) for p, t in visits],
                    )
                )
            state.open_visits = [
                Visit(poi_id=int(p), timestamp=float(t)) for p, t in open_visits
            ]
            state.state_version = int(state_version)
            state.history_version = int(history_version)
            state.last_timestamp = float(last_timestamp)
            shard.users[user_id] = state
            shard.open_visits += len(state.open_visits)
            shard.held_sessions += len(state.sessions)

    def restore_counters(
        self,
        events: int = 0,
        rollovers: int = 0,
        forced_rolls: int = 0,
        graph_updates: int = 0,
        graph_evictions: int = 0,
        graph_rebuilds: int = 0,
    ) -> None:
        """Carry lifetime counters across a snapshot/recovery cycle.

        The totals land on shard 0 — :meth:`stats` only ever reports
        the sum, and per-shard attribution of pre-crash events is not
        reconstructible (nor needed) after a restore.
        """
        shard = self._shards[0]
        with shard.lock:
            shard.events += events
            shard.rollovers += rollovers
            shard.forced_rolls += forced_rolls
            shard.graph_updates += graph_updates
            shard.graph_evictions += graph_evictions
            shard.graph_rebuilds += graph_rebuilds

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard.users) for shard in self._shards)

    def users(self) -> List[int]:
        seen: List[int] = []
        for shard in self._shards:
            with shard.lock:
                seen.extend(shard.users)
        return sorted(seen)

    def strata_counts(self) -> Dict[str, int]:
        """Cold-start occupancy: users with 0 / 1 / 2+ completed sessions.

        The population denominator behind the quality monitor's
        per-stratum accuracy cuts (``GET /quality``).  O(users) — a
        report-path walk, deliberately kept out of :meth:`stats` so the
        hot /stats poll stays O(shards).
        """
        counts = {"0": 0, "1": 0, "2+": 0}
        for shard in self._shards:
            with shard.lock:
                for state in shard.users.values():
                    sessions = len(state.sessions)
                    counts["0" if sessions == 0 else "1" if sessions == 1 else "2+"] += 1
        return counts

    def stats(self) -> Dict:
        """JSON-ready roll-up across shards (surfaces in ``/stats``).

        O(shards): occupancy is maintained incrementally on append, so
        polling /stats never walks the user maps under their locks.
        """
        users = events = rollovers = forced = open_visits = held = 0
        graph_updates = graph_evictions = graph_rebuilds = 0
        for shard in self._shards:
            with shard.lock:
                users += len(shard.users)
                events += shard.events
                rollovers += shard.rollovers
                forced += shard.forced_rolls
                open_visits += shard.open_visits
                held += shard.held_sessions
                graph_updates += shard.graph_updates
                graph_evictions += shard.graph_evictions
                graph_rebuilds += shard.graph_rebuilds
        return {
            "shards": len(self._shards),
            "users": users,
            "events": events,
            "sessions_rolled": rollovers,
            "forced_rolls": forced,
            "sessions_held": held,
            "open_visits": open_visits,
            "graph_updates": graph_updates,
            "graph_evictions": graph_evictions,
            "graph_rebuilds": graph_rebuilds,
        }
