"""Round-trip and rejection properties of the two JSON wire codecs.

``event_to_json`` / ``event_from_json`` carry one streamed check-in
(``POST /checkin`` and the durable event log); ``sample_from_json`` turns a
``POST /predict`` or ``/recommend`` body into a prediction sample.
Bodies are parsed with :func:`json.loads`, which accepts ``NaN`` and
``±Infinity``, so both codecs must reject a non-finite timestamp with a
``ValueError`` (a 400) instead of ranking the request for the wrong
half hour.  An integer timestamp too large for a float counts as
non-finite too: it would otherwise escape as an ``OverflowError``.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.trajectory import Visit
from repro.serve.protocol import sample_from_json
from repro.stream.events import CheckinEvent, event_from_json, event_to_json

NUM_POIS = 50

finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2**1024),
    st.integers(max_value=-(2**1024)),
)
visits = st.builds(Visit, poi_id=st.integers(0, NUM_POIS - 1), timestamp=finite)
trajectories = st.lists(visits, min_size=1, max_size=6)
histories = st.lists(trajectories, max_size=3)


def _wire(payload):
    """What a client's ``json.dumps`` body becomes after ``json.loads``."""
    return json.loads(json.dumps(payload))


def _visit_json(visit):
    return {"poi_id": visit.poi_id, "timestamp": visit.timestamp}


def _sample_payload(user_id, prefix, history, target):
    payload = {
        "user_id": user_id,
        "prefix": [_visit_json(v) for v in prefix],
        "history": [[_visit_json(v) for v in trajectory] for trajectory in history],
    }
    if target is not None:
        payload["target"] = _visit_json(target)
    return payload


@settings(max_examples=200, deadline=None)
@given(user_id=st.integers(), poi_id=st.integers(min_value=0), timestamp=finite)
def test_event_round_trip(user_id, poi_id, timestamp):
    event = CheckinEvent(user_id=user_id, poi_id=poi_id, timestamp=timestamp)
    assert event_from_json(_wire(event_to_json(event))) == event


@settings(max_examples=150, deadline=None)
@given(
    user_id=st.integers(),
    prefix=trajectories,
    history=histories,
    target=st.none() | visits,
)
def test_sample_round_trip(user_id, prefix, history, target):
    payload = _wire(_sample_payload(user_id, prefix, history, target))
    sample = sample_from_json(payload, num_pois=NUM_POIS)
    assert sample.user_id == user_id
    assert sample.prefix == prefix
    assert [trajectory.visits for trajectory in sample.history] == history
    assert sample.target == target


@settings(max_examples=50, deadline=None)
@given(user_id=st.integers(), poi_id=st.integers(min_value=0), timestamp=non_finite)
def test_event_rejects_non_finite_timestamp(user_id, poi_id, timestamp):
    payload = {"user_id": user_id, "poi_id": poi_id, "timestamp": timestamp}
    with pytest.raises(ValueError, match="finite"):
        event_from_json(_wire(payload))


@settings(max_examples=150, deadline=None)
@given(
    prefix=trajectories,
    history=histories,
    target=visits,
    timestamp=non_finite,
    data=st.data(),
)
def test_sample_rejects_non_finite_timestamp(prefix, history, target, timestamp, data):
    """A non-finite timestamp anywhere: prefix, any history visit, target."""
    payload = _sample_payload(7, prefix, history, target)
    every_visit = (
        payload["prefix"]
        + [visit for trajectory in payload["history"] for visit in trajectory]
        + [payload["target"]]
    )
    every_visit[data.draw(st.integers(0, len(every_visit) - 1))]["timestamp"] = timestamp
    with pytest.raises(ValueError, match="finite"):
        sample_from_json(_wire(payload), num_pois=NUM_POIS)


def test_json_nan_and_infinity_literals_rejected():
    body = '{"prefix": [{"poi_id": 1, "timestamp": NaN}, {"poi_id": 2, "timestamp": Infinity}]}'
    with pytest.raises(ValueError, match=r"prefix\[0\]\.timestamp must be finite"):
        sample_from_json(json.loads(body), num_pois=10)
