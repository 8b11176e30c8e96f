"""Tests for nn layers: Linear, Embedding, Conv2d, LayerNorm, attention, RNNs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, gradcheck
from repro.nn import (
    GRU,
    LSTM,
    Conv2d,
    DilatedLSTM,
    Dropout,
    Embedding,
    Flatten,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Parameter,
    Sequential,
    causal_mask,
    key_padding_mask,
)
from repro.utils import spawn


def _x(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestModuleMachinery:
    def test_parameter_discovery_nested(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros((2, 2)))

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.blocks = [Inner(), Inner()]
                self.by_name = {"a": Inner()}

        names = dict(Outer().named_parameters())
        assert set(names) == {"inner.w", "blocks.0.w", "blocks.1.w", "by_name.a.w"}

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2, rng=spawn(0)), Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self):
        a = Linear(3, 2, rng=spawn(1))
        b = Linear(3, 2, rng=spawn(2))
        b.load_state_dict(a.state_dict())
        x = _x((4, 3))
        assert np.allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch_raises(self):
        a = Linear(3, 2, rng=spawn(1))
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((2, 3))})

    def test_zero_grad(self):
        layer = Linear(2, 2, rng=spawn(0))
        layer(_x((1, 2))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_num_parameters(self):
        assert Linear(3, 4, rng=spawn(0)).num_parameters() == 3 * 4 + 4


class TestLinear:
    def test_shapes(self):
        assert Linear(5, 3, rng=spawn(0))(_x((7, 5))).shape == (7, 3)

    def test_grad_flows_to_params(self):
        layer = Linear(3, 2, rng=spawn(0))
        layer(_x((4, 3))).sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False, rng=spawn(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradcheck(self):
        layer = Linear(3, 2, rng=spawn(3))
        x = _x((2, 3))
        assert gradcheck(lambda t: layer(t), [x], atol=1e-4)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng=spawn(0))
        assert emb(np.array([1, 5, 5])).shape == (3, 4)

    def test_repeated_index_grad_accumulates(self):
        emb = Embedding(3, 2, rng=spawn(0))
        out = emb(np.array([1, 1]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[1], [2.0, 2.0])
        assert np.allclose(emb.weight.grad[0], 0.0)

    def test_out_of_range_raises(self):
        emb = Embedding(3, 2, rng=spawn(0))
        with pytest.raises(IndexError):
            emb(np.array([3]))


class TestConvAndNorm:
    def test_conv_stride2_halves_resolution(self):
        conv = Conv2d(3, 8, kernel_size=3, stride=2, padding=1, rng=spawn(0))
        assert conv(_x((1, 3, 16, 16))).shape == (1, 8, 8, 8)

    def test_layernorm_normalises(self):
        ln = LayerNorm(8)
        out = ln(_x((4, 8)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_gradcheck(self):
        ln = LayerNorm(5)
        assert gradcheck(lambda t: ln(t), [_x((2, 5), seed=4)], atol=1e-4)

    def test_flatten(self):
        assert Flatten()(_x((2, 3, 4))).shape == (2, 12)


def _numpy_attention(attn, query, key, value, mask):
    """Scaled dot-product attention in plain numpy, with ``attn``'s weights.

    ``mask`` is boolean, broadcastable to ``(B, heads, L_q, L_k)``, True
    at blocked keys; a blocked score becomes -1e9, so a row with every
    key blocked attends uniformly.
    """

    def linear(layer, x):
        return x @ layer.weight.data.T + layer.bias.data

    def split(x):
        batch, length, _ = x.shape
        return x.reshape(batch, length, attn.num_heads, attn.head_dim).transpose(0, 2, 1, 3)

    q = split(linear(attn.w_q, query))
    k = split(linear(attn.w_k, key))
    v = split(linear(attn.w_v, value))
    scores = np.where(mask, -1e9, q @ k.transpose(0, 1, 3, 2) / np.sqrt(attn.head_dim))
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = (weights @ v).transpose(0, 2, 1, 3).reshape(query.shape[0], query.shape[1], -1)
    return linear(attn.w_o, merged)


@st.composite
def _attention_cases(draw):
    """(heads, head_dim, batch, L_q, L_k, causal, key lengths, seed);
    a key length of 0 is a row whose keys are all padding."""
    heads = draw(st.integers(1, 2))
    head_dim = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 3))
    l_q = draw(st.integers(1, 4))
    causal = draw(st.booleans())
    l_k = l_q if causal else draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(0, l_k), min_size=batch, max_size=batch))
    return heads, head_dim, batch, l_q, l_k, causal, lengths, draw(st.integers(0, 2**16))


class TestAttention:
    def test_causal_mask_shape_and_content(self):
        m = causal_mask(3)
        assert m.shape == (3, 3)
        assert not m[2, 0] and m[0, 1]

    def test_self_attention_shape(self):
        attn = MultiHeadAttention(8, num_heads=2, rng=spawn(0))
        x = _x((1, 5, 8))
        assert attn(x, x, x, causal_mask(5)[None, None]).shape == (1, 5, 8)

    def test_causal_first_position_ignores_future(self):
        """Changing future inputs must not affect the first output position."""
        attn = MultiHeadAttention(8, num_heads=2, rng=spawn(1))
        mask = causal_mask(4)[None, None]
        x1 = np.random.default_rng(0).normal(size=(1, 4, 8))
        x2 = x1.copy()
        x2[:, 2:] += 10.0
        out1 = attn(Tensor(x1), Tensor(x1), Tensor(x1), mask).data[0, 0]
        out2 = attn(Tensor(x2), Tensor(x2), Tensor(x2), mask).data[0, 0]
        assert np.allclose(out1, out2)

    def test_cross_attention_shapes(self):
        attn = MultiHeadAttention(8, num_heads=4, rng=spawn(2))
        q, kv = _x((1, 3, 8)), _x((1, 7, 8), seed=5)
        assert attn(q, kv, kv).shape == (1, 3, 8)

    def test_dim_not_divisible_raises(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, num_heads=2)

    def test_attention_grad_flows(self):
        attn = MultiHeadAttention(4, num_heads=2, rng=spawn(3))
        q, kv = _x((1, 2, 4)), _x((1, 3, 4), seed=6)
        attn(q, kv, kv).sum().backward()
        assert q.grad is not None and kv.grad is not None
        assert attn.w_q.weight.grad is not None


class TestBatchedAttention:
    def test_batched_self_attention_matches_per_sample(self):
        """Each row of a mixed-length batch equals its batch of one on
        the row's real positions: padding never reaches a real row."""
        attn = MultiHeadAttention(8, num_heads=2, rng=spawn(7))
        lengths = [5, 3, 1]
        x = np.random.default_rng(2).normal(size=(3, 5, 8))
        for b, n in enumerate(lengths):
            x[b, n:] = 99.0
        mask = causal_mask(5)[None, None] | key_padding_mask(lengths, 5)[:, None, None, :]
        batched = attn(Tensor(x), Tensor(x), Tensor(x), mask).data
        assert batched.shape == (3, 5, 8)
        for b, n in enumerate(lengths):
            row = Tensor(x[b : b + 1, :n])
            single = attn(row, row, row, causal_mask(n)[None, None]).data[0]
            np.testing.assert_allclose(batched[b, :n], single, rtol=0, atol=1e-12)

    def test_key_padding_mask_blocks_padding(self):
        """Padded keys must not change real positions' outputs."""
        attn = MultiHeadAttention(8, num_heads=2, rng=spawn(8))
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 3, 8))
        kv_real = rng.normal(size=(2, 4, 8))
        kv_padded = np.concatenate([kv_real, 99.0 * np.ones((2, 2, 8))], axis=1)
        cross_mask = key_padding_mask([4, 4], 6)[:, None, None, :]  # True at pads
        out_full = attn(Tensor(q), Tensor(kv_real), Tensor(kv_real)).data
        out_masked = attn(Tensor(q), Tensor(kv_padded), Tensor(kv_padded), cross_mask).data
        np.testing.assert_allclose(out_masked, out_full, atol=1e-9)

    def test_key_padding_mask_shape(self):
        mask = key_padding_mask([1, 3], 3)
        assert mask.tolist() == [[False, True, True], [False, False, False]]

    @settings(max_examples=60, deadline=None)
    @given(_attention_cases())
    def test_matches_numpy_reference(self, case):
        """Causal self-attention and cross attention under key-padding
        masks, including rows whose keys are all padding, equal plain
        numpy attention."""
        heads, head_dim, batch, l_q, l_k, causal, lengths, seed = case
        rng = np.random.default_rng(seed)
        dim = heads * head_dim
        attn = MultiHeadAttention(dim, num_heads=heads, rng=rng)
        query = rng.normal(size=(batch, l_q, dim))
        memory = query if causal else rng.normal(size=(batch, l_k, dim))
        mask = key_padding_mask(lengths, l_k)[:, None, None, :]
        if causal:
            mask = mask | causal_mask(l_q)[None, None]
        out = attn(Tensor(query), Tensor(memory), Tensor(memory), mask).data
        expected = _numpy_attention(attn, query, memory, memory, mask)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)


class TestBatchedRecurrent:
    def test_batched_gru_matches_per_sample(self):
        gru = GRU(3, 5, rng=spawn(10))
        x = np.random.default_rng(5).normal(size=(4, 6, 3))
        outputs, final = gru(Tensor(x))
        assert outputs.shape == (4, 6, 5) and final.shape == (4, 5)
        for b in range(4):
            single_out, single_final = gru(Tensor(x[b]))
            np.testing.assert_allclose(outputs.data[b], single_out.data, atol=1e-12)
            np.testing.assert_allclose(final.data[b], single_final.data, atol=1e-12)

    def test_batched_lstm_matches_per_sample(self):
        lstm = LSTM(3, 5, rng=spawn(11))
        x = np.random.default_rng(6).normal(size=(2, 4, 3))
        outputs, (h, c) = lstm(Tensor(x))
        assert outputs.shape == (2, 4, 5)
        assert h.shape == (2, 5) and c.shape == (2, 5)
        for b in range(2):
            single_out, (sh, sc) = lstm(Tensor(x[b]))
            np.testing.assert_allclose(outputs.data[b], single_out.data, atol=1e-12)
            np.testing.assert_allclose(h.data[b], sh.data, atol=1e-12)


class TestRecurrent:
    def test_gru_output_shape(self):
        gru = GRU(4, 6, rng=spawn(0))
        outputs, final = gru(_x((5, 4)))
        assert outputs.shape == (5, 6)
        assert final.shape == (6,)
        assert np.allclose(outputs.data[-1], final.data)

    def test_gru_grad_flows_to_input(self):
        gru = GRU(3, 4, rng=spawn(1))
        x = _x((4, 3))
        outputs, _ = gru(x)
        outputs.sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    def test_lstm_output_shape(self):
        lstm = LSTM(4, 6, rng=spawn(2))
        outputs, (h, c) = lstm(_x((5, 4)))
        assert outputs.shape == (5, 6)
        assert h.shape == (6,) and c.shape == (6,)

    def test_dilated_lstm_returns_vector(self):
        dil = DilatedLSTM(4, 6, dilation=2, rng=spawn(3))
        assert dil(_x((7, 4))).shape == (6,)

    def test_dilated_includes_last_step(self):
        """The final check-in must influence the hidden state."""
        dil = DilatedLSTM(2, 4, dilation=3, rng=spawn(4))
        x1 = np.random.default_rng(1).normal(size=(5, 2))
        x2 = x1.copy()
        x2[-1] += 5.0
        out1 = dil(Tensor(x1)).data
        out2 = dil(Tensor(x2)).data
        assert not np.allclose(out1, out2)

    def test_gru_hidden_state_carries_information(self):
        gru = GRU(2, 4, rng=spawn(5))
        x1 = np.zeros((3, 2))
        x2 = x1.copy()
        x2[0] = 10.0
        out1, _ = gru(Tensor(x1))
        out2, _ = gru(Tensor(x2))
        assert not np.allclose(out1.data[-1], out2.data[-1])
