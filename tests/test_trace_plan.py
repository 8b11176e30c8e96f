"""Engine-level tests for the compiled-inference stack.

Covers the configurable default dtype (``set_default_dtype``), trace
capture (:mod:`repro.autograd.trace`), and plan execution
(:mod:`repro.autograd.plan`): bit-identical float64 replay, the
documented float32 tolerance envelope, constant folding / DCE, the
``TraceError`` surface for untraceable ops, and feed validation.
"""

import threading

import numpy as np
import pytest

from repro.autograd import (
    Plan,
    PlanError,
    Tensor,
    TraceError,
    arange,
    conv2d,
    get_default_dtype,
    masked_fill,
    maximum,
    no_grad,
    ones,
    pad_stack,
    set_default_dtype,
    softmax,
    trace,
    zeros,
)
from repro.nn import LayerNorm, Linear, ReLU, Sequential
from repro.utils.rng import spawn


# ----------------------------------------------------------------------
# satellite (a): configurable default dtype
# ----------------------------------------------------------------------
class TestDefaultDtype:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_set_and_restore_via_handle(self):
        handle = set_default_dtype(np.float32)
        try:
            assert get_default_dtype() == np.float32
        finally:
            handle.__exit__(None, None, None)
        assert get_default_dtype() == np.float64

    def test_context_manager_restores_on_exit(self):
        with set_default_dtype(np.float32):
            assert get_default_dtype() == np.float32
            # nesting restores the *inner* previous value
            with set_default_dtype(np.float64):
                assert get_default_dtype() == np.float64
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_context_manager_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with set_default_dtype(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.float64

    def test_rejects_non_float_dtype(self):
        with pytest.raises(TypeError):
            set_default_dtype(np.int64)

    def test_constructors_follow_default(self):
        with set_default_dtype(np.float32):
            assert zeros((2, 3)).dtype == np.float32
            assert ones(4).dtype == np.float32
            assert arange(5).dtype == np.float32
            assert Tensor([1, 2, 3]).dtype == np.float32
            assert pad_stack([None], width=3).dtype == np.float32
        assert zeros((2,)).dtype == np.float64

    def test_float32_graph_end_to_end_with_backward(self):
        """A model built under float32 runs forward AND backward in f32."""
        with set_default_dtype(np.float32):
            rng = spawn(0)
            net = Sequential(Linear(6, 8, rng=rng), ReLU(), LayerNorm(8), Linear(8, 3, rng=rng))
            for p in net.parameters():
                assert p.data.dtype == np.float32
            x = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=True)
            out = net(x)
            assert out.dtype == np.float32
            loss = (out * out).sum()
            assert loss.dtype == np.float32
            loss.backward()
            assert x.grad is not None and x.grad.dtype == np.float32
            for p in net.parameters():
                assert p.grad is None or p.grad.dtype == np.float32

    def test_existing_float_arrays_keep_their_dtype(self):
        # Only *literal* construction follows the default; explicit float
        # arrays pass through untouched (identity matters for tracing).
        with set_default_dtype(np.float32):
            arr = np.ones(3, dtype=np.float64)
            t = Tensor(arr)
            assert t.dtype == np.float64
            assert t.data is arr


# ----------------------------------------------------------------------
# trace capture
# ----------------------------------------------------------------------
def _affine_softmax(x, w, b):
    return softmax(x @ w + b, axis=-1)


def _make_plan(dtype=np.float64, seed=0):
    rng = spawn(seed)
    x_arr = rng.standard_normal((4, 5))
    w = Tensor(rng.standard_normal((5, 3)))
    b = Tensor(rng.standard_normal((3,)))
    with no_grad(), trace(dtype) as tr:
        x = Tensor(tr.input("x", x_arr))
        out = _affine_softmax(x, w, b)
    plan = tr.finalize([out])
    return plan, x_arr, (w, b)


class TestTrace:
    def test_float64_replay_is_bit_identical_on_new_feeds(self):
        plan, _, (w, b) = _make_plan()
        rng = spawn(7)
        for _ in range(3):
            x_new = rng.standard_normal((4, 5))
            with no_grad():
                want = _affine_softmax(Tensor(x_new), w, b).data
            (got,) = plan.run({"x": x_new})
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_float32_plan_outputs_float32_within_tolerance(self):
        plan, _, (w, b) = _make_plan(dtype=np.float32)
        assert plan.dtype == np.float32
        x_new = spawn(3).standard_normal((4, 5))
        with no_grad():
            want = _affine_softmax(Tensor(x_new), w, b).data
        (got,) = plan.run({"x": x_new})
        assert got.dtype == np.float32
        np.testing.assert_allclose(got.astype(np.float64), want, rtol=1e-3, atol=1e-5)

    def test_constant_folding_and_dce(self):
        rng = spawn(1)
        x_arr = rng.standard_normal((3, 3))
        c = Tensor(rng.standard_normal((3, 3)))
        with no_grad(), trace() as tr:
            x = Tensor(tr.input("x", x_arr))
            folded = (c + c) * c  # constant-only: folded away
            dead = x * 2.0  # dynamic but unused: DCE'd
            out = x + folded
            del dead
        plan = tr.finalize([out])
        assert plan.folded_steps >= 2  # c+c and (c+c)*c
        # live steps: just the x + folded add (x*2.0 eliminated)
        assert plan.num_steps == 1
        (got,) = plan.run({"x": x_arr})
        assert np.array_equal(got, out.data)

    def test_constants_baked_to_plan_dtype(self):
        c = Tensor(np.ones((2, 2), dtype=np.float64))
        x_arr = np.ones((2, 2), dtype=np.float64)
        with no_grad(), trace(np.float32) as tr:
            x = Tensor(tr.input("x", x_arr))
            out = x @ c
        plan = tr.finalize([out])
        consts = [a for _, args, _, _ in plan.steps for a in args if not isinstance(a, int)]
        assert consts and all(a.dtype == np.float32 for a in consts)

    def test_kernel_less_op_raises_trace_error(self):
        with pytest.raises(TraceError, match="no replay kernel"):
            with no_grad(), trace() as tr:
                row = Tensor(tr.input("r", np.ones((2, 3))))
                pad_stack([row], width=3)

    def test_conv2d_raises_trace_error(self):
        rng = spawn(2)
        x_arr = rng.standard_normal((1, 5, 5, 1))
        w = Tensor(rng.standard_normal((2, 1, 3, 3)))
        with pytest.raises(TraceError, match="no replay kernel"):
            with no_grad(), trace() as tr:
                x = Tensor(tr.input("x", x_arr))
                conv2d(x, w)

    def test_traces_do_not_nest(self):
        with pytest.raises(TraceError, match="do not nest"):
            with trace():
                with trace():
                    pass

    def test_duplicate_input_name_rejected(self):
        with pytest.raises(TraceError, match="duplicate"):
            with no_grad(), trace() as tr:
                tr.input("x", np.ones(2))
                tr.input("x", np.ones(3))

    def test_finalize_without_inputs_rejected(self):
        with no_grad(), trace() as tr:
            out = Tensor(np.ones(2)) * 2.0
        with pytest.raises(TraceError, match="no inputs"):
            tr.finalize([out])

    def test_finalize_twice_rejected(self):
        with no_grad(), trace() as tr:
            x = Tensor(tr.input("x", np.ones(2)))
            out = x * 2.0
        tr.finalize([out])
        with pytest.raises(TraceError, match="twice"):
            tr.finalize([out])

    def test_unsupported_plan_dtype_rejected(self):
        with pytest.raises(TraceError, match="float32/float64"):
            trace(np.float16).__enter__()


# ----------------------------------------------------------------------
# plan execution
# ----------------------------------------------------------------------
class TestPlanExecution:
    def test_missing_feed_raises(self):
        plan, _, _ = _make_plan()
        with pytest.raises(PlanError, match="missing feed"):
            plan.run({})

    def test_shape_mismatch_raises(self):
        plan, _, _ = _make_plan()
        with pytest.raises(PlanError, match="shape"):
            plan.run({"x": np.zeros((5, 5))})

    def test_float_feed_cast_to_plan_dtype(self):
        plan, x_arr, _ = _make_plan(dtype=np.float32)
        (got,) = plan.run({"x": x_arr.astype(np.float64)})
        assert got.dtype == np.float32

    def test_non_float_feed_dtype_mismatch_raises(self):
        ids = np.arange(6, dtype=np.int64)
        table = Tensor(spawn(4).standard_normal((6, 3)))
        with no_grad(), trace() as tr:
            idx = tr.input("ids", ids)
            out = table[idx]
        plan = tr.finalize([out])
        with pytest.raises(PlanError, match="dtype"):
            plan.run({"ids": ids.astype(np.int32)})

    def test_describe_and_counters(self):
        plan, x_arr, _ = _make_plan()
        # finalize's verification replay is run 1
        assert plan.runs == 1 and plan.contexts == 1
        plan.run({"x": x_arr})
        plan.run({"x": x_arr})
        desc = plan.describe()
        assert desc["runs"] == 3
        assert desc["contexts"] == 1
        assert desc["inputs"] == ["x"]
        assert desc["steps"] == plan.num_steps
        assert desc["buffer_bytes"] > 0
        assert desc["dtype"] == "float64"

    def test_concurrent_runs_are_correct_and_isolated(self):
        plan, _, (w, b) = _make_plan()
        rng = spawn(9)
        feeds = [rng.standard_normal((4, 5)) for _ in range(8)]
        with no_grad():
            wants = [_affine_softmax(Tensor(f), w, b).data for f in feeds]
        errors = []

        def worker(feed, want):
            try:
                for _ in range(50):
                    (got,) = plan.run({"x": feed})
                    if not np.array_equal(got, want):
                        raise AssertionError("cross-thread buffer corruption")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f, m)) for f, m in zip(feeds, wants)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert plan.contexts >= len(threads)
        assert plan.runs >= 400


class TestPlanReuse:
    def test_buffer_accounting_stable_across_runs(self):
        """Per-context buffer bytes are sampled once and stay fixed."""
        plan, x_arr, _ = _make_plan()
        plan.run({"x": x_arr})
        first = plan.buffer_bytes
        assert first > 0
        plan.run({"x": x_arr})
        assert plan.buffer_bytes == first
        ctx = plan._local.ctx
        assert len(ctx.outs) == plan.num_steps

    def test_plan_is_graph_free(self):
        """Replay never touches Tensor — a pure numpy program."""
        plan, x_arr, _ = _make_plan()
        outs = plan.run({"x": x_arr})
        assert all(isinstance(o, np.ndarray) for o in outs)
        assert isinstance(plan, Plan)


# ----------------------------------------------------------------------
# replay-kernel consistency regressions
# ----------------------------------------------------------------------
class TestReplayKernelConsistency:
    def test_maximum_replay_matches_eager_on_nan(self):
        """Replay uses the same np.maximum ufunc as eager — NaN included."""
        rng = spawn(11)
        x_arr = rng.standard_normal((2, 3))
        y = Tensor(rng.standard_normal((2, 3)))
        with no_grad(), trace() as tr:
            x = Tensor(tr.input("x", x_arr))
            out = maximum(x, y)
        plan = tr.finalize([out])
        x_nan = x_arr.copy()
        x_nan[0, 0] = np.nan
        with no_grad():
            want = maximum(Tensor(x_nan), y).data
        (got,) = plan.run({"x": x_nan})
        assert np.isnan(got[0, 0])  # NaN propagates, like np.maximum
        assert np.array_equal(got, want, equal_nan=True)

    def test_masked_fill_concurrent_dynamic_masks(self):
        """Threads replaying one plan with different masks never mix them.

        The broadcast-mask cache inside masked_fill's replay kernel is
        shared by every thread replaying the plan; a torn
        (snapshot, broadcast) pairing would fill one batch with another
        batch's mask while still passing the equality revalidation.
        """
        rng = spawn(12)
        x_arr = rng.standard_normal((4, 6))
        m_arr = np.zeros((1, 6), dtype=bool)
        with no_grad(), trace() as tr:
            x = Tensor(tr.input("x", x_arr))
            m = tr.input("m", m_arr)
            out = masked_fill(x, m, -1e9)
        plan = tr.finalize([out])
        errors = []

        def worker(seed):
            try:
                t_rng = spawn(seed)
                for _ in range(200):
                    mask = t_rng.random((1, 6)) < 0.5
                    feed = t_rng.standard_normal((4, 6))
                    (got,) = plan.run({"x": feed, "m": mask})
                    if not np.array_equal(got, np.where(mask, -1e9, feed)):
                        raise AssertionError("replay used a foreign mask")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(100 + i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
