"""Tests for fused functional ops (softmax family, segment ops, conv2d, normalisation)."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    conv2d,
    cosine_similarity,
    cross_entropy,
    dropout,
    gradcheck,
    l2_normalize,
    log_softmax,
    masked_fill,
    segment_softmax,
    segment_sum,
    softmax,
)
from repro.autograd.functional import col2im, im2col


def _t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        x = _t(np.random.default_rng(0).normal(size=(4, 7)))
        out = softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_grad(self):
        x = _t(np.random.default_rng(1).normal(size=(3, 5)))
        assert gradcheck(lambda t: softmax(t, axis=-1), [x])

    def test_softmax_stable_for_large_logits(self):
        x = _t([[1000.0, 1000.0]])
        out = softmax(x)
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_grad(self):
        x = _t(np.random.default_rng(2).normal(size=(2, 6)))
        assert gradcheck(lambda t: log_softmax(t, axis=-1), [x])

    def test_log_softmax_matches_log_of_softmax(self):
        x = _t(np.random.default_rng(3).normal(size=(2, 4)))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = _t([[100.0, 0.0], [0.0, 100.0]])
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_grad(self):
        x = _t(np.random.default_rng(4).normal(size=(3, 4)))
        targets = np.array([0, 2, 1])
        assert gradcheck(lambda t: cross_entropy(t, targets), [x])


class TestSegmentOps:
    """Segment softmax/sum: the fused pair under edge-list graph attention."""

    # runs of length 3, 2 and 1 (a single-in-edge destination)
    SEGMENTS = np.array([0, 0, 0, 2, 2, 5])

    def test_segment_softmax_matches_per_run_softmax(self):
        x = _t(np.random.default_rng(20).normal(size=6))
        out = segment_softmax(x, self.SEGMENTS).data
        for seg in (0, 2, 5):
            run = self.SEGMENTS == seg
            np.testing.assert_allclose(out[run], softmax(Tensor(x.data[run])).data, rtol=1e-14)

    @pytest.mark.parametrize("shape", [(6,), (6, 2)])
    def test_segment_softmax_grad(self, shape):
        # weighted: each run sums to one, so an unweighted sum has zero gradient
        weights = Tensor(np.random.default_rng(21).normal(size=shape))
        x = _t(np.random.default_rng(22).normal(size=shape))
        assert gradcheck(lambda t: segment_softmax(t, self.SEGMENTS) * weights, [x])

    def test_segment_sum_values_and_empty_segments(self):
        x = _t(np.arange(12.0).reshape(6, 2))
        out = segment_sum(x, self.SEGMENTS, 7).data
        expected = np.zeros((7, 2))
        np.add.at(expected, self.SEGMENTS, x.data)
        assert np.array_equal(out, expected)
        assert not out[[1, 3, 4, 6]].any()

    def test_segment_sum_grad(self):
        x = _t(np.random.default_rng(24).normal(size=(6, 3)))
        weights = Tensor(np.random.default_rng(25).normal(size=(7, 3)))
        assert gradcheck(lambda t: segment_sum(t, self.SEGMENTS, 7) * weights, [x])

    def test_no_rows(self):
        x = _t(np.zeros((0, 3)))
        assert segment_softmax(x, np.zeros(0, dtype=np.int64)).shape == (0, 3)
        assert np.array_equal(segment_sum(x, np.zeros(0, dtype=np.int64), 2).data, np.zeros((2, 3)))

    def test_rejects_unsorted_or_mismatched_ids(self):
        x = _t(np.ones((3, 2)))
        with pytest.raises(ValueError, match="sorted"):
            segment_softmax(x, [1, 0, 1])
        with pytest.raises(ValueError, match="sorted"):
            segment_sum(x, [0, 2, 1], 3)
        with pytest.raises(ValueError, match="segment ids"):
            segment_sum(x, [0, 1], 3)


class TestMaskingAndNorms:
    def test_masked_fill_values(self):
        x = _t([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        out = masked_fill(x, mask, -99.0)
        assert np.allclose(out.data, [[-99.0, 2.0], [3.0, -99.0]])

    def test_masked_fill_blocks_grad(self):
        x = _t([[1.0, 2.0]])
        out = masked_fill(x, np.array([[True, False]]), 0.0)
        out.backward(np.ones((1, 2)))
        assert np.allclose(x.grad, [[0.0, 1.0]])

    def test_l2_normalize_unit_norm(self):
        x = _t(np.random.default_rng(5).normal(size=(4, 8)))
        out = l2_normalize(x)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0)

    def test_l2_normalize_grad(self):
        x = _t(np.random.default_rng(6).normal(size=(2, 5)))
        assert gradcheck(lambda t: l2_normalize(t), [x], atol=1e-4)

    def test_cosine_similarity_bounds(self):
        rng = np.random.default_rng(7)
        a, b = _t(rng.normal(size=(10, 6))), _t(rng.normal(size=(10, 6)))
        sims = cosine_similarity(a, b).data
        assert np.all(sims <= 1.0 + 1e-9) and np.all(sims >= -1.0 - 1e-9)

    def test_cosine_similarity_self_is_one(self):
        a = _t(np.random.default_rng(8).normal(size=(3, 4)))
        assert np.allclose(cosine_similarity(a, a).data, 1.0)

    def test_cosine_similarity_grad(self):
        rng = np.random.default_rng(9)
        a, b = _t(rng.normal(size=(2, 4))), _t(rng.normal(size=(2, 4)))
        assert gradcheck(lambda x, y: cosine_similarity(x, y), [a, b], atol=1e-4)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = _t(np.ones((5, 5)))
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert np.allclose(out.data, 1.0)

    def test_training_scales_surviving_units(self):
        x = _t(np.ones((2000,)))
        out = dropout(x, 0.5, np.random.default_rng(0), training=True)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        # roughly half survive
        assert 0.4 < kept.size / 2000 < 0.6

    def test_zero_rate_identity(self):
        x = _t(np.ones(4))
        out = dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x


class TestConv2d:
    def test_im2col_col2im_adjoint(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = im2col(x, kernel=3, stride=2, padding=1)
        # <Ax, Ax> = <x, A^T A x> checks the adjoint pairing
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, 3, 2, 1, oh, ow)
        rhs = float((x * back).sum())
        assert np.isclose(lhs, rhs)

    def test_conv_output_shape(self):
        x = _t(np.zeros((1, 3, 8, 8)))
        w = _t(np.zeros((4, 3, 3, 3)))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 4, 4, 4)

    def test_conv_matches_direct_computation(self):
        rng = np.random.default_rng(11)
        x = _t(rng.normal(size=(1, 1, 4, 4)))
        w = _t(rng.normal(size=(1, 1, 2, 2)))
        out = conv2d(x, w, stride=1, padding=0)
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x.data[0, 0, i:i + 2, j:j + 2] * w.data[0, 0]).sum()
        assert np.allclose(out.data[0, 0], expected)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0)])
    def test_conv_grad(self, stride, padding):
        rng = np.random.default_rng(12)
        x = _t(rng.normal(size=(2, 2, 5, 5)))
        w = _t(rng.normal(size=(3, 2, 3, 3)))
        b = _t(rng.normal(size=3))
        assert gradcheck(
            lambda a, ww, bb: conv2d(a, ww, bb, stride=stride, padding=padding),
            [x, w, b],
            atol=1e-4,
        )

    def test_conv_rejects_bad_shapes(self):
        x = _t(np.zeros((1, 3, 8, 8)))
        w = _t(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)
