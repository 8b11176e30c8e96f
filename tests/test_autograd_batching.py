"""Tests for the differentiable batching ops (pad/stack/gather).

These ops are what make the padded ``(batch, seq, dim)`` encode path
trainable: every one of them is validated against finite differences,
same as the rest of the engine.
"""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    conv2d,
    cross_entropy,
    gather_last,
    gradcheck,
    no_grad,
    pad_stack,
)
from repro.autograd.functional import im2col


def _t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestPadStack:
    def test_values_right_padded(self):
        rows = [_t(np.ones((2, 3))), None, _t(2.0 * np.ones((4, 3)))]
        out = pad_stack(rows, 3)
        assert out.shape == (3, 4, 3)
        assert np.allclose(out.data[0, :2], 1.0) and np.allclose(out.data[0, 2:], 0.0)
        assert np.allclose(out.data[1], 0.0)
        assert np.allclose(out.data[2], 2.0)

    def test_pad_to_override(self):
        out = pad_stack([_t(np.ones((2, 3)))], 3, pad_to=5)
        assert out.shape == (1, 5, 3)

    def test_pad_to_too_small_raises(self):
        with pytest.raises(ValueError):
            pad_stack([_t(np.ones((4, 3)))], 3, pad_to=2)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            pad_stack([_t(np.ones((2, 5)))], 3)

    def test_grad_routes_to_real_rows_only(self):
        rng = np.random.default_rng(0)
        a, b = _t(rng.normal(size=(2, 4))), _t(rng.normal(size=(3, 4)))
        out = pad_stack([a, None, b], 4)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        assert np.allclose(a.grad, upstream[0, :2])
        assert np.allclose(b.grad, upstream[2, :3])

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        a, b, c = (_t(rng.normal(size=(n, 3))) for n in (1, 4, 2))
        assert gradcheck(lambda x, y, z: pad_stack([x, y, z], 3), [a, b, c])

    def test_no_grad_builds_constant(self):
        a = _t(np.ones((2, 3)))
        with no_grad():
            out = pad_stack([a], 3)
        assert not out.requires_grad


class TestGatherLast:
    def test_values(self):
        x = _t(np.arange(24, dtype=np.float64).reshape(2, 4, 3))
        out = gather_last(x, [2, 4])
        assert np.allclose(out.data, [x.data[0, 1], x.data[1, 3]])

    def test_zero_length_raises(self):
        with pytest.raises(ValueError):
            gather_last(_t(np.ones((2, 4, 3))), [0, 2])

    def test_length_beyond_padding_raises(self):
        with pytest.raises(ValueError):
            gather_last(_t(np.ones((2, 4, 3))), [5, 2])

    def test_grad_scatters_to_gathered_positions(self):
        x = _t(np.random.default_rng(2).normal(size=(2, 3, 4)))
        out = gather_last(x, [1, 3])
        upstream = np.ones((2, 4))
        out.backward(upstream)
        expected = np.zeros((2, 3, 4))
        expected[0, 0] = 1.0
        expected[1, 2] = 1.0
        assert np.allclose(x.grad, expected)

    def test_gradcheck(self):
        x = _t(np.random.default_rng(3).normal(size=(3, 4, 2)))
        assert gradcheck(lambda t: gather_last(t, [1, 4, 2]), [x])


class TestCrossEntropyReductions:
    def test_sum_equals_batch_times_mean(self):
        logits = _t(np.random.default_rng(5).normal(size=(4, 6)))
        targets = np.array([0, 2, 5, 1])
        mean = cross_entropy(logits, targets, reduction="mean").item()
        total = cross_entropy(logits, targets, reduction="sum").item()
        assert total == pytest.approx(4 * mean)

    def test_none_returns_per_sample_vector(self):
        logits = _t(np.random.default_rng(6).normal(size=(3, 5)))
        targets = np.array([1, 0, 4])
        vec = cross_entropy(logits, targets, reduction="none")
        assert vec.shape == (3,)
        assert vec.data.sum() == pytest.approx(
            cross_entropy(logits, targets, reduction="sum").item()
        )

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(_t(np.zeros((1, 2))), np.array([0]), reduction="prod")

    def test_sum_grad(self):
        logits = _t(np.random.default_rng(7).normal(size=(3, 4)))
        targets = np.array([0, 3, 2])
        assert gradcheck(
            lambda t: cross_entropy(t, targets, reduction="sum"), [logits]
        )


class TestConv2dPrecomputedCols:
    def test_matches_fresh_unfold(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 8, 8, 2)))
        w = _t(rng.normal(size=(4, 3, 3, 3)) * 0.1)
        b = _t(np.zeros(4))
        fresh = conv2d(x, w, b, stride=2, padding=1)
        cols, _, _ = im2col(x.data, 3, 2, 1)
        cached = conv2d(x, w, b, stride=2, padding=1, cols=cols)
        assert np.array_equal(fresh.data, cached.data)
        fresh.backward(np.ones_like(fresh.data))
        g_fresh = w.grad.copy()
        w.grad = None
        cached.backward(np.ones_like(cached.data))
        assert np.array_equal(g_fresh, w.grad)
