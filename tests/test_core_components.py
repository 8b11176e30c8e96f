"""Tests for TSPN-RA components: encoders, embedders, HGAT, fusion, loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, gather_at, gradcheck
from repro.core import (
    FusionModule,
    HGATEncoder,
    POIEmbedder,
    TSPNRAConfig,
    TemporalEncoder,
    arcface_loss_batch,
    cosine_similarities_batch,
    rank_by_cosine,
    rank_of_target,
    spatial_encoding,
    time_slots,
)
from repro.core.tile_embedding import ImageTileEmbedder, TableTileEmbedder
from repro.data.trajectory import Trajectory, Visit
from repro.geo import BoundingBox
from repro.graphs import build_qrp_graph
from repro.imagery import ImageryCatalog, LandUseMap, TileRenderer
from repro.nn import causal_mask, key_padding_mask
from repro.spatial import RegionQuadTree
from repro.utils import spawn


class TestConfig:
    def test_defaults_valid(self):
        TSPNRAConfig()

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(dim=30, num_heads=4)

    def test_dim_mod_four(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(dim=34, num_heads=2)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        """A rate of 1 divides by zero, above 1 zeroes every activation
        and below 0 silently turns dropout off."""
        with pytest.raises(ValueError, match="dropout"):
            TSPNRAConfig(dropout=rate)

    def test_dropout_zero_allowed(self):
        assert TSPNRAConfig(dropout=0.0).dropout == 0.0

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(alpha=1.0)

    def test_variant(self):
        cfg = TSPNRAConfig()
        v = cfg.variant(use_graph=False)
        assert not v.use_graph and cfg.use_graph

    def test_bad_edge_type(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(drop_edge_type="river")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("fusion_layers", 0),
            ("fusion_layers", -1),
            ("num_heads", 0),
            ("num_heads", -2),
            ("top_k", 0),
            ("top_k", -3),
            ("hgat_layers", -1),
        ],
    )
    def test_counts_below_minimum_rejected(self, field, value):
        """A stack with no fusion block cannot produce h_out, no heads
        divides by zero, and K < 1 tiles empties (or, negative, slices
        backwards through) the candidate set."""
        with pytest.raises(ValueError, match=field):
            TSPNRAConfig(**{field: value})

    def test_minimum_counts_allowed(self):
        cfg = TSPNRAConfig(dim=8, num_heads=1, fusion_layers=1, hgat_layers=0, top_k=1)
        assert (cfg.num_heads, cfg.fusion_layers, cfg.hgat_layers, cfg.top_k) == (1, 1, 0, 1)


class TestSpatialEncoding:
    def test_shape(self):
        out = spatial_encoding(np.random.rand(7, 2), dim=32)
        assert out.shape == (7, 32)

    def test_deterministic(self):
        locs = np.array([[0.3, 0.7]])
        assert np.array_equal(spatial_encoding(locs, 32), spatial_encoding(locs, 32))

    def test_nearby_more_similar_than_far(self):
        """The Fig. 8 property: cosine similarity decays with distance."""
        anchor = spatial_encoding(np.array([[0.5, 0.5]]), 64)[0]
        near = spatial_encoding(np.array([[0.52, 0.5]]), 64)[0]
        far = spatial_encoding(np.array([[0.9, 0.1]]), 64)[0]

        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        assert cos(anchor, near) > cos(anchor, far)

    def test_x_and_y_occupy_separate_halves(self):
        a = spatial_encoding(np.array([[0.2, 0.5]]), 32)[0]
        b = spatial_encoding(np.array([[0.8, 0.5]]), 32)[0]
        assert not np.allclose(a[:16], b[:16])  # x changed -> first half changes
        assert np.allclose(a[16:], b[16:])  # y same -> second half unchanged

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            spatial_encoding(np.zeros((1, 2)), dim=30)


class TestTemporalEncoder:
    def test_learnable_slots(self):
        enc = TemporalEncoder(dim=16, rng=spawn(0))
        x = Tensor(np.zeros((2, 16)))
        out = enc(x, time_slots([9.4, 21.0]))
        assert out.shape == (2, 16)
        # same slot -> same code
        out2 = enc(Tensor(np.zeros((1, 16))), time_slots([9.3]))
        assert np.allclose(out.data[0], out2.data[0])

    def test_grad_reaches_table(self):
        enc = TemporalEncoder(dim=16, rng=spawn(1))
        out = enc(Tensor(np.zeros((2, 16)), requires_grad=True), time_slots([1.0, 13.0]))
        out.sum().backward()
        assert enc.slots.weight.grad is not None


class TestPOIEmbedder:
    def test_alpha_blend(self):
        cats = np.array([0, 0, 1])
        emb = POIEmbedder(3, 2, cats, dim=8, alpha=0.7, rng=spawn(0))
        out = emb(np.array([0, 1, 2]))
        expected = 0.7 * emb.id_table.weight.data[0] + 0.3 * emb.cate_table.weight.data[0]
        assert np.allclose(out.data[0], expected)

    def test_same_category_shares_component(self):
        cats = np.array([0, 0])
        emb = POIEmbedder(2, 1, cats, dim=8, alpha=0.5, rng=spawn(1))
        out = emb(np.array([0, 1])).data
        # difference must equal the id-embedding difference (category cancels)
        id_diff = 0.5 * (emb.id_table.weight.data[0] - emb.id_table.weight.data[1])
        assert np.allclose(out[0] - out[1], id_diff)

    def test_no_category_mode(self):
        cats = np.array([0, 1])
        emb = POIEmbedder(2, 2, cats, dim=8, use_category=False, rng=spawn(2))
        out = emb(np.array([0]))
        assert np.allclose(out.data[0], emb.id_table.weight.data[0])

    def test_category_length_validation(self):
        with pytest.raises(ValueError):
            POIEmbedder(3, 2, np.array([0]), dim=8)


def _image_embedder(dim=16, resolution=16):
    box = BoundingBox(0, 0, 10, 10)
    points = np.random.default_rng(0).uniform(0.5, 9.5, (40, 2))
    tree = RegionQuadTree.build(box, points, max_depth=3, max_pois=10)
    renderer = TileRenderer(LandUseMap(bbox=box), resolution=resolution)
    catalog = ImageryCatalog(renderer).bind(tree)
    return ImageTileEmbedder(catalog, len(tree), dim, rng=spawn(3)), tree


class TestTileEmbedders:
    def test_image_embedder_shapes(self):
        emb, tree = _image_embedder()
        out = emb.all_embeddings()
        assert out.shape == (len(tree), 16)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0)

    def test_embeddings_spread_after_centering(self):
        emb, tree = _image_embedder()
        out = emb.all_embeddings().data
        cos = out @ out.T
        off = cos[~np.eye(len(out), dtype=bool)]
        assert abs(off.mean()) < 0.3  # no positive-cone collapse

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            _image_embedder(resolution=12)

    def test_table_embedder(self):
        emb = TableTileEmbedder(10, 8, rng=spawn(4))
        out = emb.all_embeddings()
        assert out.shape == (10, 8)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0)

    def test_grad_flows_through_cnn(self):
        emb, tree = _image_embedder()
        emb.all_embeddings().sum().backward()
        assert emb.conv1.weight.grad is not None
        assert emb.project.weight.grad is not None

    def test_all_embeddings_match_per_image_nchw_reference(self):
        """The batch-innermost CNN means what an ``(N, C, H, W)`` CNN
        run image by image means, so checkpoints keep their meaning."""
        emb, tree = _image_embedder()

        def conv(image, layer):  # one (C, H, W) image, gemm over its columns
            weight, pad, stride = layer.weight.data, layer.padding, layer.stride
            o, c, k, _ = weight.shape
            padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
            windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
            windows = windows[:, ::stride, ::stride]  # (C, out_h, out_w, K, K)
            out_h, out_w = windows.shape[1:3]
            cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * k * k, out_h * out_w)
            out = weight.reshape(o, -1) @ cols + layer.bias.data[:, None]
            return np.maximum(out.reshape(o, out_h, out_w), 0.0)

        rows = []
        for image in emb.catalog.images_for(range(len(tree))):  # (N, 3, R, R)
            for layer in (emb.conv1, emb.conv2, emb.conv3):
                image = conv(image, layer)
            rows.append(image.reshape(-1))  # (c, h, w) order
        features = np.stack(rows) @ emb.project.weight.data.T + emb.project.bias.data
        features -= features.mean(axis=0, keepdims=True)
        expected = features / np.sqrt((features * features).sum(axis=1, keepdims=True) + 1e-12)
        np.testing.assert_allclose(emb.all_embeddings().data, expected, rtol=0, atol=1e-12)


class TestHGAT:
    def _graph(self):
        box = BoundingBox(0, 0, 10, 10)
        rng = np.random.default_rng(1)
        points = rng.uniform(0.5, 9.5, (60, 2))
        tree = RegionQuadTree.build(box, points, max_depth=4, max_pois=10)
        leaves = tree.leaves()
        adjacency = {(min(a, b), max(a, b)) for a, b in zip(leaves, leaves[1:])}
        history = [Trajectory(1, [Visit(p, float(p)) for p in range(10)])]
        return build_qrp_graph(tree, adjacency, history)

    def test_output_shape(self):
        qrp = self._graph()
        enc = HGATEncoder(dim=8, num_layers=2, rng=spawn(5))
        h0 = Tensor(np.random.default_rng(2).normal(size=(qrp.graph.num_nodes, 8)))
        out = enc(qrp, h0)
        assert out.shape == (qrp.graph.num_nodes, 8)

    def test_grad_flows(self):
        qrp = self._graph()
        enc = HGATEncoder(dim=8, num_layers=1, rng=spawn(6))
        h0 = Tensor(np.random.default_rng(3).normal(size=(qrp.graph.num_nodes, 8)), requires_grad=True)
        enc(qrp, h0).sum().backward()
        assert h0.grad is not None and np.abs(h0.grad).sum() > 0

    def test_messages_respect_graph(self):
        """An isolated node's output must not depend on others' features."""
        from repro.graphs import HeteroGraph, QRPGraph

        g = HeteroGraph()
        g.add_node("tile", 0)
        g.add_node("tile", 1)
        g.add_node("tile", 2)
        g.add_edge("road", 0, 1)  # node 2 isolated
        qrp = QRPGraph(g, [0, 1, 2], [0, 1, 2], [], [], {0, 1})
        enc = HGATEncoder(dim=8, num_layers=1, rng=spawn(7))
        base = np.random.default_rng(4).normal(size=(3, 8))
        changed = base.copy()
        changed[0] += 10.0
        out_a = enc(qrp, Tensor(base)).data[2]
        out_b = enc(qrp, Tensor(changed)).data[2]
        assert np.allclose(out_a, out_b)


def _causal(length):
    return causal_mask(length)[None, None, :, :]


def _prefix(positions, length):
    return key_padding_mask(np.asarray(positions) + 1, length)[:, None, None, :]


class TestFusion:
    """``forward_batch`` takes last positions and pre-broadcast masks."""

    def test_output_is_vector(self):
        fusion = FusionModule(dim=16, num_heads=2, num_layers=2, rng=spawn(8))
        fusion.eval()
        seq = Tensor(np.random.default_rng(5).normal(size=(1, 6, 16)))
        hist = Tensor(np.random.default_rng(6).normal(size=(1, 9, 16)))
        mask = key_padding_mask([9], 9)
        out = fusion.forward_batch(
            seq,
            np.array([5]),
            _causal(6),
            _prefix([5], 6),
            hist,
            mask[:, None, None, :],
            (~mask.all(axis=1))[:, None, None],
        )
        assert out.shape == (1, 16)

    def test_handles_no_history(self):
        fusion = FusionModule(dim=16, num_heads=2, num_layers=1, rng=spawn(9))
        fusion.eval()
        seq = Tensor(np.random.default_rng(7).normal(size=(1, 4, 16)))
        out = fusion.forward_batch(seq, np.array([3]), _causal(4), _prefix([3], 4))
        assert out.shape == (1, 16)

    def test_causality(self):
        """Positions after a sample's last real one never reach its
        output (changing them leaves h_out unchanged), and a
        single-element sequence works."""
        fusion = FusionModule(dim=16, num_heads=2, num_layers=1, rng=spawn(10))
        fusion.eval()
        seq = np.random.default_rng(8).normal(size=(1, 4, 16))
        changed = seq.copy()
        changed[:, 2:] += 10.0
        masks = (_causal(4), _prefix([1], 4))
        np.testing.assert_allclose(
            fusion.forward_batch(Tensor(changed), np.array([1]), *masks).data,
            fusion.forward_batch(Tensor(seq), np.array([1]), *masks).data,
            rtol=0,
            atol=1e-12,
        )
        single = fusion.forward_batch(
            Tensor(seq[:, :1]), np.array([0]), _causal(1), _prefix([0], 1)
        )
        assert single.shape == (1, 16)


@st.composite
def _fusion_cases(draw):
    """(batch, L, output positions, knowledge counts or None, H, layers, seed)."""
    batch = draw(st.integers(1, 4))
    length = draw(st.integers(1, 6))
    positions = draw(st.lists(st.integers(0, length - 1), min_size=batch, max_size=batch))
    width = draw(st.integers(1, 4))
    history = draw(st.sampled_from(["none", "all padding", "partial"]))
    counts = {
        "none": None,
        "all padding": [0] * batch,
        "partial": draw(st.lists(st.integers(0, width), min_size=batch, max_size=batch)),
    }[history]
    layers = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    return batch, length, np.asarray(positions), counts, width, layers, seed


class TestFusionOutputRows:
    """The final block runs on the output rows only, and that changes
    nothing: ``forward_batch`` equals running every block over every
    position and then gathering the output rows."""

    @staticmethod
    def _all_rows(fusion, sequence, positions, history, cross_mask, has_history):
        causal = _causal(sequence.shape[1])
        for block in fusion.blocks:
            sequence = block(sequence, sequence, causal, history, cross_mask, has_history)
        return gather_at(sequence, positions)

    @settings(max_examples=60, deadline=None)
    @given(_fusion_cases(), st.booleans())
    def test_matches_all_rows_reference(self, case, training):
        """Outputs and input gradients agree, and in training mode the
        dropout generator ends in the same state (the masks are drawn
        at the all-rows shapes, in the all-rows order)."""
        batch, length, positions, counts, width, layers, seed = case
        data = np.random.default_rng(seed)
        fusion = FusionModule(dim=8, num_heads=2, num_layers=layers, rng=spawn(seed))
        fusion.train(training)
        sequence = data.normal(size=(batch, length, 8))
        history = data.normal(size=(batch, width, 8))
        weights = Tensor(data.normal(size=(batch, 8)))
        cross_mask = has_history = None
        if counts is not None:
            padding = key_padding_mask(counts, width)
            cross_mask = padding[:, None, None, :]
            has_history = (~padding.all(axis=1))[:, None, None]

        def run(forward):
            generator = np.random.default_rng(seed)
            for block in fusion.blocks:
                block.drop._rng = generator
            x = Tensor(sequence, requires_grad=True)
            h = None if counts is None else Tensor(history, requires_grad=True)
            out = forward(x, h)
            (out * weights).sum().backward()
            return out.data, x.grad, None if h is None else h.grad, generator

        rows = run(
            lambda x, h: fusion.forward_batch(
                x,
                positions,
                _causal(length),
                _prefix(positions, length),
                h,
                cross_mask,
                has_history,
            )
        )
        reference = run(
            lambda x, h: self._all_rows(fusion, x, positions, h, cross_mask, has_history)
        )
        assert rows[0].shape == (batch, 8)
        for got, want in zip(rows[:3], reference[:3]):
            if want is None:
                assert got is None
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert rows[3].bit_generator.state == reference[3].bit_generator.state


class TestLosses:
    """Eq. 8's ArcFace head on a batch of one."""

    def _setup(self):
        rng = np.random.default_rng(9)
        out = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        cands = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        return out, cands

    @staticmethod
    def _loss(out, cands, target, **kwargs):
        return arcface_loss_batch(out, cands, [target], **kwargs).sum()

    def test_cosine_scores_bounds(self):
        out, cands = self._setup()
        scores = cosine_similarities_batch(out.data, cands.data)
        assert np.all(scores <= 1.0 + 1e-9) and np.all(scores >= -1.0 - 1e-9)

    def test_loss_positive(self):
        out, cands = self._setup()
        assert self._loss(out, cands, 2).item() > 0

    def test_perfect_alignment_lower_loss(self):
        rng = np.random.default_rng(10)
        cands = Tensor(rng.normal(size=(5, 8)))
        aligned = Tensor(cands.data[2:3].copy(), requires_grad=True)
        anti = Tensor(-cands.data[2:3], requires_grad=True)
        assert self._loss(aligned, cands, 2).item() < self._loss(anti, cands, 2).item()

    def test_margin_increases_loss(self):
        out, cands = self._setup()
        no_margin = self._loss(out, cands, 1, margin=0.0).item()
        with_margin = self._loss(out, cands, 1, margin=0.4).item()
        assert with_margin > no_margin

    def test_target_index_validation(self):
        out, cands = self._setup()
        with pytest.raises(IndexError):
            self._loss(out, cands, 7)

    def test_gradient_pulls_toward_target(self):
        """One gradient step should raise the target's cosine score."""
        rng = np.random.default_rng(11)
        out = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        cands = Tensor(rng.normal(size=(5, 8)))
        before = cosine_similarities_batch(out.data, cands.data)[0, 3]
        self._loss(out, cands, 3).backward()
        after = cosine_similarities_batch(out.data - 0.1 * out.grad, cands.data)[0, 3]
        assert after > before

    def test_combined_loss_weighting(self):
        """TSPN-RA's total is beta * tile loss + POI loss: linear in beta."""
        from repro.core import TSPNRA
        from repro.data import build_dataset, make_samples

        dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
        config = TSPNRAConfig(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)
        model = TSPNRA.from_dataset(dataset, config, rng=spawn(12)).eval()
        batch = make_samples(dataset, last_only=True)[:4]
        shared = model.compute_embeddings()
        totals = []
        for beta in (0.0, 1.0, 2.0):
            model.config = config.variant(beta=beta)
            totals.append(model.loss_batch(batch, *shared).item())
        tile_loss = totals[1] - totals[0]
        assert tile_loss > 0
        assert totals[2] == pytest.approx(totals[0] + 2.0 * tile_loss, rel=1e-12)


class TestRanking:
    def test_rank_by_cosine_orders(self):
        out = np.array([1.0, 0.0])
        cands = np.array([[0.0, 1.0], [1.0, 0.1], [-1.0, 0.0]])
        order = rank_by_cosine(out, cands)
        assert order[0] == 1 and order[-1] == 2

    def test_rank_of_target(self):
        assert rank_of_target([7, 3, 9], 3) == 2
        assert rank_of_target([7, 3, 9], 42) == 4  # |R| + 1
