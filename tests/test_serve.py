"""Tests for the ``repro.serve`` subsystem: the unified predictor
protocol, checkpoint round-trips, the serving facade and its caches."""

import numpy as np
import pytest

from repro.baselines import BASELINE_NAMES, BaselineResult, make_baseline
from repro.core import TSPNRA, TSPNRAConfig
from repro.core.model import PredictionResult
from repro.data import build_dataset, make_samples, split_samples
from repro.eval import collect_ranks, evaluate
from repro.serve import (
    CHECKPOINT_FORMAT,
    Predictor,
    PredictorProtocol,
    PredictorResult,
    compare_throughput,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from repro.train import TrainConfig, Trainer
from repro.utils import LRUCache, spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny():
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    samples = make_samples(dataset, last_only=False)
    splits = split_samples(samples, seed=0)
    locations = np.array(
        [dataset.spec.bbox.normalize(x, y) for x, y in dataset.city.pois.xy]
    )
    return dataset, splits, locations


@pytest.fixture(scope="module")
def trained_tspnra(tiny):
    """A briefly-trained TSPN-RA (non-trivial weights for round-trips)."""
    dataset, splits, _ = tiny
    model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    Trainer(
        model, TrainConfig(epochs=2, batch_size=8, lr=5e-3, max_train_samples=32, seed=0)
    ).fit(splits.train)
    return model


class TestUnifiedResult:
    def test_legacy_names_are_one_type(self):
        assert PredictionResult is PredictorResult
        assert BaselineResult is PredictorResult

    def test_tile_rank_requires_tiles(self):
        result = PredictorResult(ranked_pois=[3, 1, 2], target_poi=1)
        assert result.poi_rank == 2
        with pytest.raises(ValueError):
            result.tile_rank

    def test_top_k(self):
        result = PredictorResult(ranked_pois=[5, 4, 3, 2], target_poi=3)
        assert result.top_k(2) == [5, 4]


class TestAbsentTargetRank:
    """The rank-inflation fix: a missed target ranks past the universe."""

    def test_absent_target_ranks_past_universe(self):
        # 3 candidates out of a 500-POI universe: a miss must rank 501,
        # not 4 (which would count as a Recall@5 "hit").
        result = PredictorResult(ranked_pois=[3, 1, 2], target_poi=99, num_pois=500)
        assert result.poi_rank == 501

    def test_present_target_rank_unchanged_by_universe(self):
        with_universe = PredictorResult(ranked_pois=[3, 1, 2], target_poi=1, num_pois=500)
        without = PredictorResult(ranked_pois=[3, 1, 2], target_poi=1)
        assert with_universe.poi_rank == without.poi_rank == 2

    def test_legacy_fallback_without_universe(self):
        result = PredictorResult(ranked_pois=[3, 1, 2], target_poi=99)
        assert result.poi_rank == 4  # full-vocabulary convention

    def test_tspnra_missed_target_ranks_past_all_pois(self, tiny, trained_tspnra):
        from repro.data.trajectory import PredictionSample, Visit

        dataset, splits, _ = tiny
        model = trained_tspnra
        model.eval()
        base = splits.test[0]
        first = model.predict(base, k=1)
        outside = sorted(set(range(model.num_pois)) - set(first.ranked_pois))
        assert outside, "k=1 candidate set should not cover the full POI set"
        missed = PredictionSample(
            user_id=base.user_id,
            history=base.history,
            prefix=base.prefix,
            target=Visit(poi_id=outside[0], timestamp=base.prefix[-1].timestamp + 1.0),
            history_key=base.history_key,
        )
        result = model.predict(missed, k=1)
        assert result.target_poi not in result.ranked_pois
        assert result.poi_rank == model.num_pois + 1
        # strictly beyond any reportable K, even with a tiny candidate set
        assert result.poi_rank > len(result.ranked_pois)
        assert result.poi_rank > 20

    def test_in_candidate_targets_keep_metric_ranks(self, tiny, trained_tspnra):
        from repro.serve import rank_of_target

        _, splits, _ = tiny
        trained_tspnra.eval()
        results = trained_tspnra.predict_batch(splits.test[:12])
        hits = [r for r in results if r.target_poi in r.ranked_pois]
        assert hits, "fixture should produce at least one in-candidate target"
        for r in hits:
            # universe-aware rank == legacy rank whenever the target is found
            assert r.poi_rank == rank_of_target(r.ranked_pois, r.target_poi)


class TestProtocolConformance:
    @pytest.mark.parametrize("name", BASELINE_NAMES)
    def test_baselines_conform(self, tiny, name):
        dataset, splits, locations = tiny
        model = make_baseline(name, len(dataset.city.pois), locations, dim=16, rng=spawn(1))
        if name == "MC":
            model.fit(splits.train)
        model.eval()
        assert isinstance(model, PredictorProtocol)
        sample = splits.test[0]
        shared = model.compute_embeddings()
        assert shared == ()
        result = model.predict(sample, *shared)
        assert isinstance(result, PredictorResult)
        assert result.ranked_tiles is None
        assert model.top_k(sample, 5) == result.ranked_pois[:5]
        assert model.target_rank(sample) == result.poi_rank

    def test_tspnra_conforms(self, tiny):
        dataset, splits, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(2))
        model.eval()
        assert isinstance(model, PredictorProtocol)
        sample = splits.test[0]
        result = model.predict(sample)
        assert result.ranked_tiles is not None and result.tile_rank >= 1

    def test_predict_without_target(self, tiny):
        from repro.data.trajectory import PredictionSample

        dataset, splits, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(3))
        model.eval()
        base = splits.test[0]
        live = PredictionSample(
            user_id=base.user_id,
            history=base.history,
            prefix=base.prefix,
            target=None,
            history_key=base.history_key,
        )
        result = model.predict(live)
        assert result.target_poi == -1
        assert result.ranked_pois == model.predict(base).ranked_pois


class TestCheckpoint:
    def test_tspnra_roundtrip_bit_identical(self, tiny, trained_tspnra, tmp_path):
        dataset, splits, _ = tiny
        test = splits.test[:20]
        before = evaluate(trained_tspnra, test)
        path = save_checkpoint(trained_tspnra, tmp_path / "tspnra.npz", dataset=dataset)
        loaded = load_checkpoint(path, dataset=dataset)
        assert loaded.model is not trained_tspnra
        assert evaluate(loaded.model, test) == before
        # ranks, not just aggregates, must match
        assert collect_ranks(loaded.model, test) == collect_ranks(trained_tspnra, test)

    def test_roundtrip_rebuilds_dataset_from_recipe(self, tiny, trained_tspnra, tmp_path):
        dataset, splits, _ = tiny
        path = save_checkpoint(trained_tspnra, tmp_path / "tspnra.npz", dataset=dataset)
        loaded = load_checkpoint(path)  # no dataset passed: rebuild
        assert loaded.dataset is not dataset
        assert loaded.meta["dataset"]["scale"] == 0.12
        test = splits.test[:10]
        assert collect_ranks(loaded.model, test) == collect_ranks(trained_tspnra, test)

    def test_markov_roundtrip(self, tiny, tmp_path):
        dataset, splits, locations = tiny
        mc = make_baseline("MC", len(dataset.city.pois), locations)
        mc.fit(splits.train)
        test = splits.test[:20]
        before = evaluate(mc, test)
        path = save_checkpoint(mc, tmp_path / "mc.npz", dataset=dataset)
        loaded = load_checkpoint(path, dataset=dataset)
        assert evaluate(loaded.model, test) == before

    def test_graph_flashback_extra_state_roundtrip(self, tiny, tmp_path):
        dataset, splits, locations = tiny
        model = make_baseline(
            "Graph-Flashback", len(dataset.city.pois), locations, dim=16, rng=spawn(4)
        )
        model.fit_transition_graph(splits.train)
        test = splits.test[:10]
        before = collect_ranks(model, test)
        path = save_checkpoint(model, tmp_path / "gfb.npz", dataset=dataset)
        loaded = load_checkpoint(path, dataset=dataset)
        np.testing.assert_array_equal(loaded.model._adjacency, model._adjacency)
        assert collect_ranks(loaded.model, test) == before

    def test_without_recipe_requires_dataset(self, tiny, trained_tspnra, tmp_path):
        _, _, _ = tiny
        path = save_checkpoint(trained_tspnra, tmp_path / "bare.npz")  # no dataset
        with pytest.raises(ValueError, match="dataset"):
            load_checkpoint(path)

    def test_poi_count_mismatch_rejected(self, tiny, tmp_path):
        dataset, splits, locations = tiny
        mc = make_baseline("MC", len(dataset.city.pois), locations)
        mc.fit(splits.train)
        path = save_checkpoint(mc, tmp_path / "mc.npz", dataset=dataset)
        other = build_dataset("nyc", seed=1, scale=0.14, imagery_resolution=16)
        with pytest.raises(ValueError, match="POIs"):
            load_checkpoint(path, dataset=other)

    @staticmethod
    def _rewrite_checkpoint(path, out, meta_patch=None, extra_arrays=None):
        """Re-write a checkpoint with a patched meta / extra arrays."""
        import json

        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(arrays.pop("__meta__").item())
        meta.update(meta_patch or {})
        arrays.update(extra_arrays or {})
        with open(out, "wb") as fh:
            np.savez_compressed(fh, __meta__=np.array(json.dumps(meta)), **arrays)
        return out

    def test_format_mismatch_names_found_and_supported(self, tiny, trained_tspnra, tmp_path):
        dataset, _, _ = tiny
        path = save_checkpoint(trained_tspnra, tmp_path / "v1.npz", dataset=dataset)
        future = self._rewrite_checkpoint(
            path, tmp_path / "v9.npz", meta_patch={"format": 9}
        )
        with pytest.raises(ValueError) as excinfo:
            read_checkpoint(future)
        message = str(excinfo.value)
        assert "format 9" in message
        assert f"supports format {CHECKPOINT_FORMAT}" in message
        with pytest.raises(ValueError, match="format 9"):
            load_checkpoint(future, dataset=dataset)

    def test_strict_false_tolerates_unknown_extra_keys(self, tiny, trained_tspnra, tmp_path):
        """Weights-only forward compat: a checkpoint written by a newer
        schema with additional ``extra::`` side-state still loads with
        ``strict=False`` (unknown keys ignored and reported), while the
        default strict load rejects it."""
        dataset, splits, _ = tiny
        path = save_checkpoint(trained_tspnra, tmp_path / "v1.npz", dataset=dataset)
        newer = self._rewrite_checkpoint(
            path,
            tmp_path / "newer.npz",
            extra_arrays={"extra::future_side_state": np.arange(4.0)},
        )
        with pytest.raises(KeyError, match="future_side_state"):
            load_checkpoint(newer, dataset=dataset)
        loaded = load_checkpoint(newer, dataset=dataset, strict=False)
        assert loaded.meta["ignored_extra"] == ["future_side_state"]
        test = splits.test[:10]
        assert collect_ranks(loaded.model, test) == collect_ranks(trained_tspnra, test)

    def test_strict_false_still_applies_known_extra(self, tiny, tmp_path):
        """strict=False must not drop extra state the model consumes."""
        dataset, splits, locations = tiny
        mc = make_baseline("MC", len(dataset.city.pois), locations)
        mc.fit(splits.train)
        path = save_checkpoint(mc, tmp_path / "mc.npz", dataset=dataset)
        loaded = load_checkpoint(path, dataset=dataset, strict=False)
        assert "ignored_extra" not in loaded.meta
        test = splits.test[:20]
        assert evaluate(loaded.model, test) == evaluate(mc, test)


class TestPredictor:
    def test_predict_batch_matches_per_sample_and_reuses_embeddings(
        self, tiny, trained_tspnra
    ):
        _, splits, _ = tiny
        model = trained_tspnra
        model.eval()  # the legacy loop below predicts on the bare model
        test = splits.test[:15]
        calls = {"n": 0}
        original = type(model).compute_embeddings

        def counting(self):
            calls["n"] += 1
            return original(self)

        model.compute_embeddings = counting.__get__(model)
        try:
            predictor = Predictor(model)
            batch_ranks = [r.poi_rank for r in predictor.predict_batch(test)]
            assert calls["n"] == 1  # shared tables computed exactly once
            predictor.predict_batch(test)
            assert calls["n"] == 1  # second batch is a cache hit
            assert predictor.stats.embedding_cache_hits == 1
            # the legacy per-sample loop recomputes shared state per call
            legacy_ranks = [model.predict(s).poi_rank for s in test]
            assert calls["n"] == 1 + len(test)
        finally:
            del model.compute_embeddings
        assert batch_ranks == legacy_ranks

    def test_weight_update_invalidates_cache(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        model = trained_tspnra
        predictor = Predictor(model)
        predictor.predict(splits.test[0])
        assert predictor.stats.embedding_refreshes == 1
        model.load_state_dict(model.state_dict())  # bumps weights_version
        predictor.predict(splits.test[0])
        assert predictor.stats.embedding_refreshes == 2

    def test_optimizer_step_bumps_weights_version(self, tiny):
        dataset, splits, locations = tiny
        model = make_baseline("GRU", len(dataset.city.pois), locations, dim=16, rng=spawn(5))
        v0 = model.weights_version()
        Trainer(
            model, TrainConfig(epochs=1, batch_size=8, max_train_samples=8, seed=0)
        ).fit(splits.train)
        assert model.weights_version() > v0

    def test_graph_cache_is_lru_bounded(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        model = trained_tspnra
        predictor = Predictor(model, graph_cache_size=2)
        assert predictor.graph_cache is model._graph_cache
        users = {}
        for sample in splits.test:
            users.setdefault(sample.history_key, sample)
        distinct = list(users.values())[:5]
        assert len(distinct) >= 3, "fixture needs several distinct trajectories"
        predictor.predict_batch(distinct)
        assert len(model._graph_cache) <= 2

    def test_recommend_returns_k_valid_pois(self, tiny, trained_tspnra):
        dataset, splits, _ = tiny
        predictor = Predictor(trained_tspnra)
        sample = next(s for s in splits.test if s.history)
        recs = predictor.recommend(
            sample.prefix, history=sample.history, user_id=sample.user_id, k=5
        )
        assert len(recs) == 5
        assert all(0 <= p < len(dataset.city.pois) for p in recs)

    def test_stats_accumulate(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        predictor = Predictor(trained_tspnra)
        predictor.predict_batch(splits.test[:4])
        predictor.predict(splits.test[0])
        stats = predictor.stats
        assert stats.requests == 5
        assert stats.batches == 2
        assert stats.total_seconds > 0
        assert stats.throughput > 0
        assert stats.mean_latency_ms > 0
        assert stats.as_dict()["requests"] == 5

    def test_from_checkpoint(self, tiny, trained_tspnra, tmp_path):
        dataset, splits, _ = tiny
        trained_tspnra.eval()
        path = save_checkpoint(trained_tspnra, tmp_path / "m.npz", dataset=dataset)
        predictor = Predictor.from_checkpoint(path, dataset=dataset)
        assert predictor.dataset is dataset
        ranks = [r.poi_rank for r in predictor.predict_batch(splits.test[:5])]
        assert ranks == [trained_tspnra.predict(s).poi_rank for s in splits.test[:5]]

    def test_restores_prior_mode_and_migrates_warm_graphs(self, tiny):
        dataset, splits, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(6))
        sample = next(s for s in splits.test if s.history)
        model.eval()
        model.predict(sample)  # warms the model's own graph cache
        warm = len(model._graph_cache)
        assert warm == 1
        model.train()
        predictor = Predictor(model, graph_cache_size=8)
        assert len(model._graph_cache) == warm  # warm entries migrated
        predictor.predict(sample)
        assert model.training is True  # prior mode restored after serving

    def test_unregistered_model_rejected_at_save_time(self, tiny, tmp_path):
        from repro.baselines.base import NextPOIBaseline

        dataset, _, _ = tiny
        rogue = NextPOIBaseline(len(dataset.city.pois), dim=16)
        with pytest.raises(ValueError, match="BASELINE_NAMES"):
            save_checkpoint(rogue, tmp_path / "rogue.npz", dataset=dataset)

    def test_compare_throughput_reports(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        report = compare_throughput(trained_tspnra, splits.test[:6])
        assert report["samples"] == 6
        assert report["cached_sps"] > 0 and report["uncached_sps"] > 0
        assert report["batched_sps"] > 0
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(report)

    def test_compare_throughput_restores_mode(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        trained_tspnra.train()
        try:
            compare_throughput(trained_tspnra, splits.test[:3])
            assert trained_tspnra.training is True
            trained_tspnra.eval()
            compare_throughput(trained_tspnra, splits.test[:3])
            assert trained_tspnra.training is False
        finally:
            trained_tspnra.eval()

    def test_recommend_cache_key_is_namespaced(self, tiny, trained_tspnra):
        """A live request must never alias a dataset (user, index) key."""
        _, splits, _ = tiny
        predictor = Predictor(trained_tspnra)
        sample = next(s for s in splits.test if s.history)
        predictor.recommend(
            sample.prefix, history=sample.history, user_id=sample.user_id, k=3
        )
        serve_keys = [
            key
            for key, _ in trained_tspnra._graph_cache.items()
            if isinstance(key, tuple) and key and key[0] == "serve"
        ]
        assert serve_keys, "recommend() should cache under the serve namespace"
        assert all(len(key) == 3 for key in serve_keys)
        # dataset keys are (user, index) 2-tuples: disjoint by shape
        assert not any(len(key) == 2 for key in serve_keys)

    def test_stats_latency_percentiles(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        predictor = Predictor(trained_tspnra)
        for lo in range(0, 12, 4):
            predictor.predict_batch(splits.test[lo : lo + 4])
        stats = predictor.stats
        # latency lives in a fixed-bucket histogram: O(buckets) memory,
        # every batch counted, no unbounded per-batch list
        assert stats.latency.count == 3
        assert stats.latency.sum == pytest.approx(stats.total_seconds)
        pct = stats.latency_percentiles()
        assert pct["p50_ms"] > 0
        assert pct["p50_ms"] <= pct["p95_ms"] <= pct["p99_ms"]
        as_dict = stats.as_dict()
        assert "batch_seconds" not in as_dict
        assert as_dict["p99_ms"] == pct["p99_ms"]


class TestBatchedEquivalence:
    """predict_batch must reproduce the per-sample loop exactly."""

    def _edge_case_batch(self, splits):
        """Mixed batch: empty history, length-1 prefix, long prefixes,
        mixed lengths, and a target-less serving sample."""
        from repro.data.trajectory import PredictionSample

        batch = list(splits.test[:10])
        with_history = next(s for s in splits.test if s.history)
        no_history = next((s for s in splits.test if not s.history), None)
        if no_history is None:  # synthesise one: no trajectories, no QR-P graph
            no_history = PredictionSample(
                user_id=with_history.user_id,
                history=[],
                prefix=with_history.prefix,
                target=with_history.target,
                history_key=(with_history.user_id, -1),
            )
        length_one = PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix[:1],
            target=with_history.target,
            history_key=with_history.history_key,
        )
        target_less = PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix,
            target=None,
            history_key=with_history.history_key,
        )
        batch += [no_history, length_one, target_less]
        assert len({len(s.prefix) for s in batch}) > 1, "batch must mix lengths"
        return batch

    def test_tspnra_batch_matches_per_sample(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        model = trained_tspnra
        model.eval()
        batch = self._edge_case_batch(splits)
        shared = model.compute_embeddings()
        per_sample = [model.predict(s, *shared) for s in batch]
        batched = model.predict_batch(batch, *shared)
        for single, multi in zip(per_sample, batched):
            assert multi.ranked_pois == single.ranked_pois
            assert multi.ranked_tiles == single.ranked_tiles
            assert multi.target_poi == single.target_poi
            assert multi.poi_rank == single.poi_rank
            assert multi.num_pois == model.num_pois

    def test_untrained_tspnra_batch_matches_per_sample(self, tiny):
        dataset, splits, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(11))
        model.eval()
        batch = self._edge_case_batch(splits)
        per_sample = [model.predict(s) for s in batch]
        batched = model.predict_batch(batch)
        assert [r.ranked_pois for r in batched] == [r.ranked_pois for r in per_sample]
        assert [r.ranked_tiles for r in batched] == [r.ranked_tiles for r in per_sample]

    def test_empty_batch(self, tiny, trained_tspnra):
        assert trained_tspnra.predict_batch([]) == []

    @pytest.mark.parametrize("name", ["GRU", "MC", "HMT-GRN", "STAN"])
    def test_baseline_batch_matches_per_sample(self, tiny, name):
        dataset, splits, locations = tiny
        model = make_baseline(name, len(dataset.city.pois), locations, dim=16, rng=spawn(12))
        if name == "MC":
            model.fit(splits.train)
        model.eval()
        batch = splits.test[:10]
        per_sample = [model.predict(s) for s in batch]
        batched = model.predict_batch(batch)
        assert [r.ranked_pois for r in batched] == [r.ranked_pois for r in per_sample]
        assert all(r.num_pois == len(dataset.city.pois) for r in batched)

    def test_batched_paths_reject_empty_prefixes(self, tiny, trained_tspnra):
        """Per-sample scoring fails on an empty prefix; batched must too,
        not silently rank from pad-token states."""
        from repro.data.trajectory import PredictionSample

        dataset, splits, locations = tiny
        base = splits.test[0]
        empty = PredictionSample(
            user_id=base.user_id,
            history=base.history,
            prefix=[],
            target=base.target,
            history_key=base.history_key,
        )
        with pytest.raises(ValueError, match="non-empty"):
            trained_tspnra.predict_batch([base, empty])
        gru = make_baseline("GRU", len(dataset.city.pois), locations, dim=16, rng=spawn(14))
        gru.eval()
        with pytest.raises(ValueError, match="non-empty"):
            gru.predict_batch([base, empty])

    def test_gru_score_batch_matches_score(self, tiny):
        dataset, splits, locations = tiny
        model = make_baseline("GRU", len(dataset.city.pois), locations, dim=16, rng=spawn(13))
        model.eval()
        batch = splits.test[:6]
        from repro.autograd import no_grad

        with no_grad():
            batched = model.score_batch(batch)
            per_sample = np.stack([model.score(s).data for s in batch])
        np.testing.assert_allclose(batched, per_sample, rtol=0, atol=1e-12)

    @pytest.mark.slow
    def test_large_batch_matches_per_sample(self, tiny, trained_tspnra):
        """Acceptance: >= 64 samples, identical ranked lists."""
        _, splits, _ = tiny
        model = trained_tspnra
        model.eval()
        batch = (splits.train + splits.test)[:80]
        assert len(batch) >= 64
        shared = model.compute_embeddings()
        per_sample = [model.predict(s, *shared) for s in batch]
        batched = model.predict_batch(batch, *shared)
        assert [r.ranked_pois for r in batched] == [r.ranked_pois for r in per_sample]
        assert [r.ranked_tiles for r in batched] == [r.ranked_tiles for r in per_sample]

    def test_evaluator_unchanged_by_batching(self, tiny, trained_tspnra):
        """collect_ranks (now batched) equals the explicit per-sample loop."""
        _, splits, _ = tiny
        model = trained_tspnra
        model.eval()
        test = splits.test[:15]
        shared = model.compute_embeddings()
        expected = [model.predict(s, *shared).poi_rank for s in test]
        assert collect_ranks(model, test) == expected


class TestEvaluatorModeRestore:
    def test_restores_training_mode(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        trained_tspnra.train()
        collect_ranks(trained_tspnra, splits.test[:3])
        assert trained_tspnra.training is True

    def test_restores_eval_mode(self, tiny, trained_tspnra):
        _, splits, _ = tiny
        trained_tspnra.eval()
        collect_ranks(trained_tspnra, splits.test[:3])
        assert trained_tspnra.training is False


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert len(cache) == 2

    def test_unbounded_and_counters(self):
        cache = LRUCache()
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 100
        assert cache.get(5) == 5
        assert cache.get("missing") is None
        assert cache.hits == 1 and cache.misses == 1
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestServeCLI:
    def test_predict_from_checkpoint(self, tiny, tmp_path, capsys):
        from repro.cli import main

        dataset, splits, locations = tiny
        mc = make_baseline("MC", len(dataset.city.pois), locations)
        mc.fit(splits.train)
        path = save_checkpoint(mc, tmp_path / "mc.npz", dataset=dataset)
        assert main(["predict", "--checkpoint", str(path), "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert "served 3 requests" in out
        assert out.count("top-5") == 3

    def test_predict_requires_preset_or_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["predict"]) == 2
