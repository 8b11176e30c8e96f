"""Compiled-vs-eager identity for the serving hot path.

The load-bearing guarantee of the compiled-plan refactor: float64 plan
replay produces ranked lists *bit-identical* to the eager graph on
every surface — direct ``predict_batch``, the stream replay harness,
and (in ``test_serve_async.py`` / ``test_cluster.py``) the async server
and cluster tiers.  Also covers shape bucketing, the plan cache's
hit/miss/fallback ladder, reload-driven re-trace, and the
``compile=False`` escape hatch.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, TraceError
from repro.baselines import MarkovChain
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.data.trajectory import PredictionSample, Trajectory, Visit
from repro.serve import PlanCache, Predictor, compare_throughput, supports_plans
from repro.stream import events_from_checkins, prequential_replay
from repro.utils import spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny():
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    samples = make_samples(dataset, last_only=False)
    splits = split_samples(samples, seed=0)
    return dataset, splits


@pytest.fixture(scope="module")
def model(tiny):
    dataset, _ = tiny
    model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


def _edge_case_batch(splits):
    """Mixed lengths, no-history, length-1 prefix, and target-less."""
    batch = list(splits.test[:8])
    with_history = next(s for s in splits.test if s.history)
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=[],
            prefix=with_history.prefix,
            target=with_history.target,
            history_key=(with_history.user_id, -1),
        )
    )
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix[:1],
            target=with_history.target,
            history_key=with_history.history_key,
        )
    )
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix,
            target=None,
            history_key=with_history.history_key,
        )
    )
    assert len({len(s.prefix) for s in batch}) > 1
    return batch


def _assert_identical(compiled, eager):
    assert len(compiled) == len(eager)
    for c, e in zip(compiled, eager):
        assert c.ranked_tiles == e.ranked_tiles
        assert c.ranked_pois == e.ranked_pois
        assert c.target_poi == e.target_poi
        assert c.num_pois == e.num_pois
        assert c.poi_rank == e.poi_rank


# ----------------------------------------------------------------------
# shape bucketing
# ----------------------------------------------------------------------
class TestPlanBucket:
    def test_small_batches_round_to_pow2(self, tiny, model):
        _, splits = tiny
        batch = [s for s in splits.test if not s.history][:3]
        assert len(batch) == 3
        b, l, ht, hp = model.plan_bucket(batch)
        assert b == 4  # 3 -> next pow2
        assert l >= max(len(s.prefix) for s in batch)
        assert l % 4 == 0  # lengths round to a multiple of 4
        assert ht == 0 and hp == 0  # no history => no cross-attention

    def test_large_batches_round_to_multiple_of_4(self, tiny, model):
        _, splits = tiny
        batch = list(splits.test[:13])
        b, _, _, _ = model.plan_bucket(batch)
        assert b == 16

    def test_history_batches_get_knowledge_width(self, tiny, model):
        _, splits = tiny
        batch = [s for s in splits.test if s.history][:2]
        assert batch
        b, l, ht, hp = model.plan_bucket(batch)
        assert b == 2
        # knowledge widths are 0 or a multiple of 8
        for width in (ht, hp):
            assert width % 8 == 0
        assert ht or hp  # history batches carry some knowledge

    def test_same_bucket_means_plan_reuse(self, tiny, model):
        _, splits = tiny
        no_hist = [s for s in splits.test if not s.history]
        # different raw lengths, same pow2 length bucket
        same = sorted(
            (s for s in no_hist if 5 <= len(s.prefix) <= 8),
            key=lambda s: len(s.prefix),
        )
        assert len(same) >= 4
        a, b = same[:2], same[-2:]
        assert {len(s.prefix) for s in a} != {len(s.prefix) for s in b}
        assert model.plan_bucket(a) == model.plan_bucket(b)

    def test_empty_batch_rejected(self, model):
        with pytest.raises(ValueError):
            model.plan_bucket([])


# ----------------------------------------------------------------------
# compiled vs eager: direct predict_batch
# ----------------------------------------------------------------------
class TestCompiledIdentity:
    def test_float64_bit_identical_on_edge_cases(self, tiny, model):
        _, splits = tiny
        batch = _edge_case_batch(splits)
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        _assert_identical(compiled.predict_batch(batch), eager.predict_batch(batch))
        assert compiled.plan_cache is not None
        assert compiled.plan_cache.traces >= 1

    def test_replay_pass_still_identical(self, tiny, model):
        """Second pass hits the cached plan (and the knowledge cache)."""
        _, splits = tiny
        batch = _edge_case_batch(splits)
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        compiled.predict_batch(batch)  # warm: trace + knowledge-cache fill
        before = compiled.plan_cache.hits
        _assert_identical(compiled.predict_batch(batch), eager.predict_batch(batch))
        assert compiled.plan_cache.hits > before

    def test_bucket_padding_edges(self, tiny, model):
        """Batch sizes straddling the bucket boundaries stay identical."""
        _, splits = tiny
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        pool = list(splits.test[:16])
        for size in (1, 2, 7, 8, 9, 16):
            batch = pool[:size]
            _assert_identical(
                compiled.predict_batch(batch), eager.predict_batch(batch)
            )

    def test_replay_with_different_masks_same_bucket(self, tiny, model):
        """One plan, two batches whose padding masks differ.

        Regression test: replay kernels may keep per-step scratch (e.g.
        a materialised broadcast of the attention mask) only if they
        re-validate it against the incoming feed — the mask is dynamic
        and changes between batches that share a shape bucket.
        """
        _, splits = tiny
        base = max((s for s in splits.test if s.history), key=lambda s: len(s.prefix))
        full = len(base.prefix)
        assert full >= 2

        # a shorter synthetic history: fewer distinct POIs => fewer
        # QR-P knowledge rows => a different cross-attention padding
        # mask inside the same width-8 bucket
        seen: list = []
        for visit in base.history[0].visits:
            if visit.poi_id not in seen:
                seen.append(visit.poi_id)
        assert len(seen) >= 2
        short_history = [
            Trajectory(
                user_id=base.user_id,
                visits=[Visit(poi_id=seen[0], timestamp=1.0)],
            )
        ]

        def variant(n_prefix, history, tag):
            return PredictionSample(
                user_id=base.user_id,
                history=history,
                prefix=base.prefix[:n_prefix],
                target=None,
                history_key=(base.user_id, -10 - tag),  # bypass knowledge cache
            )

        # same bucket on every axis, different padding masks: per-row
        # prefix lengths differ and the knowledge row counts differ
        first = [variant(full, base.history, 0)] * 4
        second = [
            variant(full, short_history, 1),
            variant(1, base.history, 2),
            variant(full, short_history, 3),
            variant(1, short_history, 4),
        ]
        assert model.plan_bucket(first) == model.plan_bucket(second)
        assert model._knowledge_counts(second[0]) != model._knowledge_counts(first[0])
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        compiled.predict_batch(first)  # traces the bucket's plan
        before = compiled.plan_cache.traces
        _assert_identical(compiled.predict_batch(second), eager.predict_batch(second))
        assert compiled.plan_cache.traces == before  # replayed, not re-traced

    def test_float32_within_tolerance(self, tiny, model):
        _, splits = tiny
        batch = _edge_case_batch(splits)
        eager = Predictor(model, graph_cache_size=None, compile=False)
        f32 = Predictor(
            model, graph_cache_size=None, compile=True, plan_dtype="float32"
        )
        got = f32.predict_batch(batch)
        want = eager.predict_batch(batch)
        # float32 replay may legitimately swap near-ties deep in the
        # list; the head of the ranking must survive the down-cast.
        agree = sum(g.ranked_pois[0] == w.ranked_pois[0] for g, w in zip(got, want))
        assert agree >= int(0.8 * len(batch))
        for g, w in zip(got, want):
            assert set(g.ranked_tiles) == set(w.ranked_tiles)

    def test_results_do_not_leak_padding(self, tiny, model):
        """A 3-sample batch in a 4-wide bucket returns exactly 3 results."""
        _, splits = tiny
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        batch = list(splits.test[:3])
        results = compiled.predict_batch(batch)
        assert len(results) == 3


class TestKnowledgeCacheScope:
    """Only plan replay reads ``_knowledge_cache``.

    Eager inference and training compute knowledge fresh, which is what
    lets an eager replay check a compiled one (the repository benchmark
    compares against an eager run without clearing this cache).
    """

    def test_eager_paths_ignore_poisoned_rows(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        batch = [s for s in splits.test if s.history][:8]
        shared = model.compute_embeddings()
        want = model.predict_batch(batch, *shared)
        want_loss = float(model.loss_batch(batch, *shared).data)

        version = model.weights_version()
        for sample in batch:
            model._knowledge_cache.put(
                (sample.history_key, version),
                tuple(
                    Tensor(np.zeros((rows, model.config.dim))) if rows else None
                    for rows in model._knowledge_counts(sample)
                ),
            )
        hits = model._knowledge_cache.hits
        _assert_identical(model.predict_batch(batch, *shared), want)
        assert float(model.loss_batch(batch, *shared).data) == want_loss
        assert model._knowledge_cache.hits == hits

        # the poisoned rows are live: a compiled predictor replays them
        Predictor(model, graph_cache_size=None, compile=True).predict_batch(batch)
        assert model._knowledge_cache.hits >= hits + len({s.history_key for s in batch})


# ----------------------------------------------------------------------
# plan cache behaviour through the Predictor facade
# ----------------------------------------------------------------------
class TestPlanCacheBehaviour:
    def test_compile_false_escape_hatch(self, model):
        assert Predictor(model, graph_cache_size=None, compile=False).plan_cache is None

    def test_baselines_served_eagerly(self):
        mc = MarkovChain(num_pois=10)
        assert not supports_plans(mc)
        assert Predictor(mc, graph_cache_size=None, compile=True).plan_cache is None

    def test_reload_invalidates_and_retraces(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        batch = list(splits.test[:4])
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        compiled.predict_batch(batch)
        assert compiled.plan_cache.traces == 1
        version = model.weights_version()
        model.load_state_dict(model.state_dict())  # hot reload, same weights
        assert model.weights_version() != version
        _assert_identical(compiled.predict_batch(batch), eager.predict_batch(batch))
        assert compiled.plan_cache.traces == 2  # stale plan dropped, re-traced

    def test_reload_during_build_is_not_cached(self, tiny, monkeypatch):
        """A reload landing mid-trace must not leave a stale cached plan.

        The plan is built from the embedding tables captured *before*
        the reload; caching it under any version would serve pre-reload
        constants after the version-keyed invalidation should have
        retired them.  The batch itself is served, nothing is cached,
        and the next batch re-traces against the new weights.
        """
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        batch = list(splits.test[:4])
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        orig_build = model.build_encode_plan

        def reload_lands_mid_build(*args, **kwargs):
            entry = orig_build(*args, **kwargs)
            model.load_state_dict(model.state_dict())  # hot reload races the build
            return entry

        monkeypatch.setattr(model, "build_encode_plan", reload_lands_mid_build)
        compiled.predict_batch(batch)
        assert compiled.plan_cache.traces == 1
        assert len(compiled.plan_cache) == 0  # built, served, discarded
        monkeypatch.setattr(model, "build_encode_plan", orig_build)
        _assert_identical(compiled.predict_batch(batch), eager.predict_batch(batch))
        assert compiled.plan_cache.traces == 2  # clean re-trace, now cached
        assert len(compiled.plan_cache) == 1
        _assert_identical(compiled.predict_batch(batch), eager.predict_batch(batch))
        assert compiled.plan_cache.hits == 1

    def test_trace_failure_falls_back_to_eager(self, tiny, model, monkeypatch):
        _, splits = tiny
        batch = list(splits.test[:4])
        eager = Predictor(model, graph_cache_size=None, compile=False)
        compiled = Predictor(model, graph_cache_size=None, compile=True)

        def boom(*args, **kwargs):
            raise TraceError("op 'untraceable' has no replay kernel")

        monkeypatch.setattr(model, "build_encode_plan", boom)
        _assert_identical(compiled.predict_batch(batch), eager.predict_batch(batch))
        assert compiled.plan_cache.fallbacks == 1
        assert len(compiled.plan_cache) == 0
        # the failed bucket is remembered: no second trace attempt
        compiled.predict_batch(batch)
        assert compiled.plan_cache.fallbacks == 2
        assert compiled.plan_cache.misses == 1

    def test_shared_cache_across_predictors(self, tiny, model):
        """Two predictors handed one cache share it: one trace, then hits."""
        _, splits = tiny
        batch = list(splits.test[:4])
        cache = PlanCache(dtype="float64")
        a = Predictor(model, graph_cache_size=None, plan_cache=cache)
        b = Predictor(model, graph_cache_size=None, plan_cache=cache)
        first = a.predict_batch(batch)
        second = b.predict_batch(batch)
        _assert_identical(second, first)
        assert cache.traces == 1 and cache.hits == 1

    def test_stats_shape(self, tiny, model):
        _, splits = tiny
        compiled = Predictor(model, graph_cache_size=None, compile=True)
        compiled.predict_batch(list(splits.test[:4]))
        stats = compiled.plan_cache.stats()
        assert stats["enabled"] is True
        assert stats["dtype"] == "float64"
        assert stats["traces"] == 1 and stats["misses"] == 1
        (entry,) = stats["plans"]
        assert entry["bucket"][0] == 4
        assert entry["steps"] > 0
        assert entry["buffer_bytes"] > 0
        assert entry["runs"] >= 1


# ----------------------------------------------------------------------
# stream replay surface
# ----------------------------------------------------------------------
class TestStreamReplayIdentity:
    def test_prequential_replay_identical(self, tiny):
        dataset, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        model.eval()
        events = events_from_checkins(dataset.checkins)[:200]
        eager = prequential_replay(
            Predictor(model, graph_cache_size=None, compile=False),
            events,
            batch_size=16,
            keep_results=True,
        )
        compiled = prequential_replay(
            Predictor(model, graph_cache_size=None, compile=True),
            events,
            batch_size=16,
            keep_results=True,
        )
        assert compiled.predictions == eager.predictions
        assert compiled.metrics == eager.metrics
        for c, e in zip(compiled.records, eager.records):
            assert c.rank == e.rank
            assert c.result.ranked_pois == e.result.ranked_pois


# ----------------------------------------------------------------------
# throughput microbench surface
# ----------------------------------------------------------------------
class TestCompareThroughput:
    def test_compiled_legs_reported(self, tiny, model):
        _, splits = tiny
        report = compare_throughput(model, splits.test[:12], repeats=1, batch_size=8)
        for leg in ("compiled", "compiled_f32"):
            assert report[f"{leg}_sps"] > 0
            assert report[f"{leg}_warmup_seconds"] >= 0
            assert report[f"{leg}_plans"] >= 1
        assert "compiled_speedup" in report

    def test_baseline_report_has_no_compiled_legs(self, tiny):
        _, splits = tiny
        mc = MarkovChain(400)
        mc.fit(splits.train[:50])
        report = compare_throughput(mc, splits.test[:8], repeats=1, batch_size=8)
        assert "compiled_sps" not in report
        assert report["batched_sps"] > 0
