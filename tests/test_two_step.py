"""Focused tests for the two-step prediction helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.two_step import (
    candidate_pois,
    cosine_similarities_batch,
    rank_by_cosine,
    rank_of_target,
    rank_pois_batch,
    rank_tiles_batch,
    select_tiles,
)


class _FakeTileSystem:
    def __init__(self, mapping):
        self._mapping = mapping

    def pois_in_leaf(self, leaf):
        return list(self._mapping.get(leaf, []))


class TestRanking:
    def test_rank_by_cosine_scale_invariant(self):
        out = np.array([2.0, 1.0])
        cands = np.random.default_rng(0).normal(size=(6, 2))
        a = rank_by_cosine(out, cands)
        b = rank_by_cosine(out * 100.0, cands * 0.01)
        assert np.array_equal(a, b)

    def test_rank_by_cosine_stable_on_ties(self):
        out = np.array([1.0, 0.0])
        cands = np.array([[2.0, 0.0], [2.0, 0.0]])  # identical rows: exact tie
        assert list(rank_by_cosine(out, cands)) == [0, 1]

    def test_select_tiles_top_k(self):
        out = np.array([1.0, 0.0])
        leaf_ids = [10, 20, 30]
        embeddings = np.array([[0.0, 1.0], [1.0, 0.0], [0.7, 0.7]])
        assert select_tiles(out, embeddings, leaf_ids, k=2) == [20, 30]

    def test_rank_tiles_full_list(self):
        out = np.array([[1.0, 0.0]])
        leaf_ids = [10, 20]
        embeddings = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert rank_tiles_batch(out, embeddings, leaf_ids) == [[20, 10]]


class TestCandidates:
    def test_candidate_pois_concatenates_in_tile_order(self):
        system = _FakeTileSystem({1: [5, 6], 2: [7]})
        assert candidate_pois(system, [2, 1]) == [7, 5, 6]

    def test_empty_tiles_yield_empty(self):
        system = _FakeTileSystem({})
        assert candidate_pois(system, [1, 2]) == []

    def test_rank_pois_empty_candidates(self):
        assert rank_pois_batch(np.array([[1.0, 0.0]]), np.ones((3, 2)), [[]]) == [[]]

    def test_rank_pois_orders_by_similarity(self):
        out = np.array([[1.0, 0.0]])
        table = np.ones((201, 2))
        table[100], table[200] = [0.0, 1.0], [1.0, 0.0]
        assert rank_pois_batch(out, table, [[100, 200]]) == [[200, 100]]


class TestRankOfTarget:
    def test_found(self):
        assert rank_of_target([4, 2, 9], 9) == 3

    def test_missing_is_len_plus_one(self):
        # legacy fallback, only valid for full-universe rankings
        assert rank_of_target([], 1) == 1  # |R|+1 with empty R
        assert rank_of_target([2, 3], 9) == 3

    def test_missing_with_universe_ranks_past_it(self):
        # a 2-item candidate list from a 1000-POI universe: a miss is
        # rank 1001, never a top-K hit
        assert rank_of_target([2, 3], 9, universe=1000) == 1001
        assert rank_of_target([], 9, universe=1000) == 1001

    def test_universe_irrelevant_when_found(self):
        assert rank_of_target([4, 2, 9], 9, universe=1000) == 3


def _numpy_cosines(outputs, table):
    """Plain numpy cos(theta) of every output row against every table row."""
    out = outputs / (np.linalg.norm(outputs, axis=1, keepdims=True) + 1e-12)
    rows = table / (np.linalg.norm(table, axis=1, keepdims=True) + 1e-12)
    return out @ rows.T


@st.composite
def _ranking_cases(draw):
    """(outputs, table, candidate lists) on a small integer grid.

    Few distinct values make exact ties common: repeated table rows
    score identically.  Candidate lists may be empty or single, and
    rows may share candidates.
    """
    dim = draw(st.integers(1, 3))
    size = draw(st.integers(1, 8))
    batch = draw(st.integers(1, 4))
    grid = st.integers(-2, 2)

    def matrix(rows):
        values = draw(st.lists(grid, min_size=rows * dim, max_size=rows * dim))
        return np.asarray(values, dtype=np.float64).reshape(rows, dim)

    candidate_lists = draw(
        st.lists(
            st.lists(st.integers(0, size - 1), max_size=size, unique=True),
            min_size=batch,
            max_size=batch,
        )
    )
    return matrix(batch), matrix(size), candidate_lists


class TestBatchedRanking:
    def test_cosine_similarities_batch_matches_rows(self):
        rng = np.random.default_rng(3)
        outputs = rng.normal(size=(5, 8))
        candidates = rng.normal(size=(11, 8))
        batched = cosine_similarities_batch(outputs, candidates)
        assert batched.shape == (5, 11)
        for i in range(5):
            expected = [
                outputs[i] @ c / (np.linalg.norm(outputs[i]) * np.linalg.norm(c))
                for c in candidates
            ]
            np.testing.assert_allclose(batched[i], expected, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_ranking_cases())
    def test_rank_tiles_batch_matches_per_sample(self, case):
        """Each row is the stable descending argsort of its scores."""
        outputs, leaves, _ = case
        leaf_ids = [10 * i + 3 for i in range(len(leaves))]
        scores = _numpy_cosines(outputs, leaves)
        expected = [
            [leaf_ids[j] for j in np.argsort(-row, kind="stable")] for row in scores
        ]
        assert rank_tiles_batch(outputs, leaves, leaf_ids) == expected

    @settings(max_examples=100, deadline=None)
    @given(_ranking_cases())
    def test_rank_pois_batch_matches_per_sample(self, case):
        """Each row is its candidate list stably re-ordered by descending
        score, whatever the other rows hold."""
        outputs, table, candidate_lists = case
        scores = _numpy_cosines(outputs, table)
        expected = [
            [c[j] for j in np.argsort(-scores[i, c], kind="stable")]
            for i, c in enumerate(candidate_lists)
        ]
        assert rank_pois_batch(outputs, table, candidate_lists) == expected

    def test_rank_pois_batch_stable_on_ties(self):
        outputs = np.array([[1.0, 0.0]])
        table = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        # both tied candidates keep their candidate-list order
        assert rank_pois_batch(outputs, table, [[1, 0, 2]]) == [[1, 0, 2]]
