"""Seeded input generators of the perfbench workloads.

Each generator is a pure function of the dataset, ``--seed`` and the
workload size, so the same seed always yields the same inputs; the
program under test receives only what these functions return.  Every
generator also summarises the input properties its layers depend on
(working sets against the program's cache sizes, shape spread, rollover
share), which the workloads print next to their metrics.

Both workloads start from the users' real POI sequences.  The stream
tape re-times them into short sessions — a session holds 2 or more
visits (4 on average) a few hours apart, and sessions are separated by
gaps longer than the 72 h session rule — so that sessions roll often
and histories are many and varied.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.trajectory import DEFAULT_GAP_HOURS
from repro.stream.events import CheckinEvent

from common import quartiles

# distinct stream tags keep the generators' random streams apart
_TAPE, _TRAIN = 2, 3

#: Mean session length of the re-timed sequences; one event in four
#: opens a new session.
MEAN_SESSION = 4
#: Training prefixes keep their most recent visits only, so the padded
#: batch length — and with it the step's cost — does not swing with the
#: few very long prefixes a batch happens to draw.
MAX_TRAIN_PREFIX = 24

Session = List[Tuple[int, float]]  # (poi_id, timestamp in hours)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def user_sequences(dataset) -> Dict[int, List[int]]:
    """Each user's chronological POI ids, across all their trajectories."""
    return {
        user: [visit.poi_id for trajectory in trajectories for visit in trajectory.visits]
        for user, trajectories in sorted(dataset.trajectories.items())
    }


def _session_lengths(n: int, rng: np.random.Generator) -> List[int]:
    lengths: List[int] = []
    while n > 0:
        length = min(n, 1 + int(rng.geometric(1.0 / (MEAN_SESSION - 1))))
        lengths.append(length)
        n -= length
    return lengths


def retime(
    pois: Sequence[int], rng: np.random.Generator, start: float, extra_gap: float
) -> List[Session]:
    """Split ``pois`` into short sessions with fresh timestamps.

    Session lengths are 1 plus a geometric draw (at least 2 visits, mean
    ``MEAN_SESSION``; the last session takes what is left).  Visits
    inside a session are 0.25–4 h apart; consecutive sessions are
    ``DEFAULT_GAP_HOURS`` plus 0.5 h plus an exponential of mean
    ``extra_gap`` apart, so each session boundary rolls under the 72 h
    rule.
    """
    sessions: List[Session] = []
    t = start
    i = 0
    for length in _session_lengths(len(pois), rng):
        session: Session = []
        for j in range(length):
            if j:
                t += float(rng.uniform(0.25, 4.0))
            session.append((int(pois[i + j]), t))
        sessions.append(session)
        i += length
        t += DEFAULT_GAP_HOURS + 0.5 + float(rng.exponential(extra_gap))
    return sessions


# ----------------------------------------------------------------------
# stream_rollover: re-timed check-in tape
# ----------------------------------------------------------------------
def rollover_tape(
    dataset, seed: int, cycles: int, max_sessions: int
) -> Tuple[List[CheckinEvent], Dict]:
    """Every user's POI sequence, ``cycles`` times over, as one time-ordered tape.

    Each user's sequence keeps its POI order but is re-timed into short
    sessions (about one event in four rolls a session).  Per-user gap
    lengths stretch every user's sessions over the same horizon, so the
    tape interleaves users throughout and heavy users — who own more
    sessions — pass the store's ``max_sessions`` cap and evict.
    """
    rng = _rng(seed, _TAPE)
    sequences = user_sequences(dataset)
    per_user: Dict[int, List[Session]] = {}
    horizon = cycles * 60 * (DEFAULT_GAP_HOURS + 24.0)
    for user in sorted(sequences):
        pois = sequences[user] * cycles
        expected_sessions = max(1.0, len(pois) / MEAN_SESSION)
        extra_gap = max(1.0, horizon / expected_sessions - DEFAULT_GAP_HOURS - 8.0)
        per_user[user] = retime(pois, rng, float(rng.uniform(0, 96)), extra_gap)
    events = sorted(
        (
            CheckinEvent(user_id=user, poi_id=poi, timestamp=t)
            for user, sessions in per_user.items()
            for session in sessions
            for poi, t in session
        ),
        key=lambda e: (e.timestamp, e.user_id),
    )
    prefix_lens: List[int] = []
    history_sizes: List[int] = []
    for sessions in per_user.values():
        for j, session in enumerate(sessions):
            for p in range(1, len(session)):
                prefix_lens.append(p)
                history_sizes.append(min(j, max_sessions))
    total_sessions = sum(len(s) for s in per_user.values())
    properties = {
        "events": len(events),
        "cycles": cycles,
        "users": len(per_user),
        "sessions": total_sessions,
        "rollover_share": (total_sessions - len(per_user)) / len(events),
        "predictions": len(prefix_lens),
        "max_sessions": max_sessions,
        "users_over_session_cap": sum(
            1 for s in per_user.values() if len(s) > max_sessions
        ),
        "prefix_len_quartiles": quartiles(prefix_lens),
        "history_sessions_quartiles": quartiles(history_sizes),
    }
    return events, properties


# ----------------------------------------------------------------------
# train_batched: training order
# ----------------------------------------------------------------------
def train_order(samples: Sequence, seed: int, count: int) -> Tuple[List, Dict]:
    """``count`` training samples in a seeded order (cycling if needed).

    Prefixes longer than ``MAX_TRAIN_PREFIX`` keep their latest visits.
    """
    rng = _rng(seed, _TRAIN)
    order: List[int] = []
    while len(order) < count:
        order.extend(int(i) for i in rng.permutation(len(samples)))
    picked = [
        replace(samples[i], prefix=samples[i].prefix[-MAX_TRAIN_PREFIX:])
        for i in order[:count]
    ]
    properties = {
        "samples": len(picked),
        "distinct_samples": len(set(order[:count])),
        "distinct_histories": len({s.history_key for s in picked}),
        "prefix_len_quartiles": quartiles([len(s.prefix) for s in picked]),
        "history_sessions_quartiles": quartiles([len(s.history) for s in picked]),
    }
    return picked, properties
