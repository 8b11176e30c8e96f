"""TSPN-RA: Two-Step Prediction Network with Remote sensing Augmentation.

The top-level model (paper Fig. 5).  A forward pass over a batch of
prediction samples (one sample is a batch of one) runs:

1. **Data extraction** — prefix POI / tile sequences plus the QR-P
   graph of the user's history (built by the tile system and cached per
   current-trajectory).
2. **Feature embedding** — Me1 (CNN over tile imagery), Me2 (POI id +
   category), spatial encoder Ms (Eq. 4), temporal encoders Mt,
   HGAT M_G over the QR-P graph.
3. **Two-step prediction** — fusion modules MP1/MP2 produce
   h_out_tau / h_out_p; step one ranks leaf tiles, step two ranks the
   POIs inside the top-K tiles.

The encode is one pipeline in two stages: feed prep
(:meth:`TSPNRA._encode_feeds`) turns a batch into padded arrays plus
the knowledge rows, and :meth:`TSPNRA._encode_core` is the Tensor math
over them.  Training and eager inference run both stages at the
batch's exact shape; a compiled plan traces the same core at a rounded
shape bucket and replays it over the same feed prep.  Eager runs and
plan replays share one ranking tail (:meth:`TSPNRA.predict_batch`).

All Table IV ablations are configuration switches
(:class:`~repro.core.config.TSPNRAConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autograd import Tensor, concat, get_default_dtype, no_grad, pad_stack, trace
from ..autograd.plan import Plan
from ..data.trajectory import PredictionSample
from ..graphs import QRPGraph, strip_edges
from ..nn import Module, causal_mask, key_padding_mask
from ..obs.tracing import span
from ..serve.protocol import PredictorBase, PredictorResult, target_poi_of
from ..utils.cache import LRUCache
from ..utils.rng import default_rng, derive
from .config import TSPNRAConfig
from .encoders import TemporalEncoder, spatial_encoding, time_slots
from .fusion import FusionModule
from .hgat import HGATEncoder
from .loss import arcface_loss_batch
from .poi_embedding import POIEmbedder
from .tile_embedding import ImageTileEmbedder, TableTileEmbedder
from .two_step import candidate_pois, rank_pois_batch, rank_tiles_batch, select_tiles

# The historic TSPN-RA-only result type is now the serve-wide one.
PredictionResult = PredictorResult

def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 0 else 0


@dataclass
class EncodePlan:
    """One captured encode plan plus everything its replay needs.

    ``tile_table`` / ``poi_table`` are the embedding tables cast to the
    plan dtype: fed as plan inputs each run, and the tables the ranking
    tail scores against.  Instances are immutable snapshots of one
    ``weights_version`` — caches key them accordingly (see
    ``repro.serve.plans``).
    """

    plan: Plan
    bucket: Tuple[int, int, int, int]
    dtype: np.dtype
    tile_table: np.ndarray
    poi_table: np.ndarray


class TSPNRA(Module, PredictorBase):
    """The full model.  Use :meth:`from_dataset` for the common path."""

    name = "TSPN-RA"
    requires_gradient_training = True

    def __init__(
        self,
        tile_system,
        imagery,
        num_pois: int,
        num_categories: int,
        categories: np.ndarray,
        normalized_xy: np.ndarray,
        config: Optional[TSPNRAConfig] = None,
        rng=None,
    ):
        super().__init__()
        rng = rng or default_rng()
        self.config = config or TSPNRAConfig()
        self.tile_system = tile_system
        self.num_pois = num_pois
        self.normalized_xy = np.asarray(normalized_xy, dtype=np.float64)
        dim = self.config.dim

        if self.config.use_imagery:
            self.tile_embedder = ImageTileEmbedder(
                imagery, tile_system.num_tiles, dim, rng=rng
            )
        else:
            self.tile_embedder = TableTileEmbedder(tile_system.num_tiles, dim, rng=rng)
        self.poi_embedder = POIEmbedder(
            num_pois,
            num_categories,
            categories,
            dim,
            alpha=self.config.alpha,
            use_category=self.config.use_category,
            rng=rng,
        )
        if self.config.use_st_encoder:
            self.tile_temporal = TemporalEncoder(dim, rng=rng)
            self.poi_temporal = TemporalEncoder(dim, rng=rng)
        if self.config.use_graph:
            self.hgat = HGATEncoder(dim, num_layers=self.config.hgat_layers, rng=rng)
        self.fusion_tile = FusionModule(
            dim,
            num_heads=self.config.num_heads,
            num_layers=self.config.fusion_layers,
            dropout=self.config.dropout,
            rng=rng,
        )
        self.fusion_poi = FusionModule(
            dim,
            num_heads=self.config.num_heads,
            num_layers=self.config.fusion_layers,
            dropout=self.config.dropout,
            rng=rng,
        )

        self._leaf_ids = list(tile_system.leaves())
        self._leaf_index = {leaf: i for i, leaf in enumerate(self._leaf_ids)}
        self._leaf_array = np.asarray(self._leaf_ids, dtype=np.int64)
        # POI -> leaf-tile lookup table: feed prep maps a whole
        # (batch, length) id array in one gather
        self._poi_leaf = np.asarray(
            [tile_system.leaf_of_poi(p) for p in range(num_pois)], dtype=np.int64
        )
        # cache of (graph, HGAT edges) keyed by (user, trajectory index);
        # unbounded by default, swappable for a bounded LRU when serving
        self._graph_cache: LRUCache = LRUCache(maxsize=None)
        # HGAT knowledge rows keyed (history_key, weights_version), read
        # only by plan replay (and the trace that builds a plan): histories
        # repeat across serving batches (every prefix of a trajectory
        # shares one), so the graph pass — the one encode stage a plan
        # cannot capture — amortises across requests.  weights_version
        # in the key makes reloads invalidate naturally; the LRU bound
        # ages out streams.  Eager inference and training always
        # compute knowledge fresh.
        self._knowledge_cache: LRUCache = LRUCache(maxsize=2048)
        # per-dtype Eq. 4 code tables for the feed-prep gather
        self._spatial_tables: Dict[str, np.ndarray] = {}
        self._negative_rng = derive(rng, 17)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset, config: Optional[TSPNRAConfig] = None, rng=None) -> "TSPNRA":
        """Build the model for a :class:`repro.data.Dataset`."""
        from .tilesystem import QuadTreeTileSystem

        tile_system = QuadTreeTileSystem(dataset.quadtree, dataset.road_adjacency)
        pois = dataset.city.pois
        normalized = np.array(
            [dataset.spec.bbox.normalize(x, y) for x, y in pois.xy], dtype=np.float64
        )
        return cls(
            tile_system=tile_system,
            imagery=dataset.imagery,
            num_pois=len(pois),
            num_categories=pois.num_categories,
            categories=pois.categories,
            normalized_xy=normalized,
            config=config,
            rng=rng,
        )

    @property
    def leaf_ids(self) -> List[int]:
        return list(self._leaf_ids)

    # ------------------------------------------------------------------
    # embeddings
    # ------------------------------------------------------------------
    def compute_embeddings(self) -> Tuple[Tensor, Tensor]:
        """E_T for all tiles and E_P for all POIs (one graph per batch)."""
        return self.tile_embedder.all_embeddings(), self.poi_embedder.all_embeddings()

    def _qrp_for(self, sample: PredictionSample) -> Tuple[QRPGraph, dict]:
        key = sample.history_key
        cached = self._graph_cache.get(key)
        if cached is None:
            qrp = self.tile_system.build_graph(sample.history)
            if self.config.drop_edge_type:
                qrp = strip_edges(qrp, self.config.drop_edge_type)
            edges = (
                HGATEncoder.build_masks(qrp) if self.config.use_graph and not qrp.is_empty else {}
            )
            cached = (qrp, edges)
            self._graph_cache.put(key, cached)
        return cached

    def set_graph_cache(self, cache: LRUCache) -> bool:
        """Adopt an external (typically LRU-bounded) QR-P graph cache.

        Entries already built (e.g. during training) are migrated so
        serving starts warm; the new cache's eviction policy applies.
        """
        for key, value in self._graph_cache.items():
            cache.put(key, value)
        self._graph_cache = cache
        return True

    def stream_graph_maintainer(self):
        """Incremental QR-P maintainer whose graphs this model can serve.

        ``None`` when pushed entries would be wrong for this
        configuration: graph-free models never read the cache, and the
        ``drop_edge_type`` ablations serve *stripped* graphs, not the
        canonical ones the maintainer produces.  The cache-key protocol
        keeps correctness either way — this gate only decides whether
        the ingest pipeline may push pre-built entries.
        """
        if not self.config.use_graph or self.config.drop_edge_type:
            return None
        factory = getattr(self.tile_system, "graph_maintainer", None)
        return factory() if callable(factory) else None

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def _history_knowledge_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ):
        """HGAT knowledge for every *unique* history, in one packed pass.

        Returns ``{history_key: (tile rows, poi rows)}`` (``(None,
        None)`` for empty histories/graphs).  Unique QR-P graphs are
        packed as a disjoint union and run through
        :meth:`HGATEncoder.forward_packed` — two embedding gathers,
        one permutation and one edge-list pass replace the per-graph
        Python loop, for inference and the batched training loss
        alike.  The pass costs O(nodes + edges), so the whole batch
        shares one pack whatever its size.
        """
        knowledge = {}
        to_pack: List[Tuple[Tuple, QRPGraph, dict]] = []
        seen = set()
        for sample in samples:
            key = sample.history_key
            if key in knowledge or key in seen:
                continue
            if not (self.config.use_graph and sample.history):
                knowledge[key] = (None, None)
                continue
            qrp, edges = self._qrp_for(sample)
            if qrp.is_empty:
                knowledge[key] = (None, None)
            elif not any(qrp.graph.edges[kind] for kind in qrp.graph.edges):
                # Edge-free graph (possible under the drop_edge_type
                # ablations): an HGAT pass over a graph without edges
                # is the identity, so knowledge is just the initial
                # embeddings.  Packing it instead would zero its rows
                # (the packed layer sums messages for every row).
                knowledge[key] = (
                    tile_embeddings[np.asarray(qrp.tile_refs, dtype=np.int64)],
                    poi_embeddings[np.asarray(qrp.poi_refs, dtype=np.int64)],
                )
            else:
                seen.add(key)
                to_pack.append((key, qrp, edges))
        if to_pack:
            self._run_packed(to_pack, knowledge, tile_embeddings, poi_embeddings)
        return knowledge

    def _run_packed(self, packed, knowledge, tile_embeddings, poi_embeddings):
        """One packed HGAT pass; fills ``knowledge`` in place."""
        tile_counts = [len(qrp.tile_refs) for _, qrp, _ in packed]
        poi_counts = [len(qrp.poi_refs) for _, qrp, _ in packed]
        all_tile_refs = np.concatenate(
            [np.asarray(qrp.tile_refs, dtype=np.int64) for _, qrp, _ in packed]
        )
        all_poi_refs = np.concatenate(
            [np.asarray(qrp.poi_refs, dtype=np.int64) for _, qrp, _ in packed]
        )
        # Stacked gathers come out [all tiles..., all pois...]; the
        # permutation re-blocks them per graph (tiles then pois), the
        # node order each graph's edges index.
        total_tiles = int(sum(tile_counts))
        tile_offsets = np.concatenate([[0], np.cumsum(tile_counts)])
        poi_offsets = np.concatenate([[0], np.cumsum(poi_counts)]) + total_tiles
        perm = np.concatenate(
            [
                np.concatenate(
                    [
                        np.arange(tile_offsets[i], tile_offsets[i + 1]),
                        np.arange(poi_offsets[i], poi_offsets[i + 1]),
                    ]
                )
                for i in range(len(packed))
            ]
        ).astype(np.int64)
        h0 = concat(
            [tile_embeddings[all_tile_refs], poi_embeddings[all_poi_refs]], axis=0
        )[perm]
        sizes = [t + p for t, p in zip(tile_counts, poi_counts)]
        out = self.hgat.forward_packed([m for _, _, m in packed], h0, sizes)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for i, (key, qrp, _) in enumerate(packed):
            lo = int(offsets[i])
            n_tiles = tile_counts[i]
            knowledge[key] = (
                out[lo : lo + n_tiles],
                out[lo + n_tiles : int(offsets[i + 1])],
            )

    def encode_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> Tuple[Tensor, Tensor]:
        """Fused (h_out_tau, h_out_p) for a whole batch: ``(B, dim)`` each.

        The encode of training and eager inference (a single sample is
        a batch of one): feed prep (:meth:`_encode_feeds`) at the
        batch's exact shape, then :meth:`_encode_core`.  QR-P graph
        knowledge is computed fresh, per *unique* history — graphs are
        heterogeneous and shared by every sample of a trajectory — in
        one packed edge-list pass, never read from the plan-replay
        cache.  Under gradient tracking every op here is differentiable,
        including the knowledge padding, so :meth:`loss_batch`
        backpropagates one padded mini-batch through the whole encode.
        """
        knowledge = None
        if self.config.use_graph:
            by_key = self._history_knowledge_batch(samples, tile_embeddings, poi_embeddings)
            knowledge = [by_key[s.history_key] for s in samples]
        feeds = self._encode_feeds(samples, knowledge)
        return self._encode_core(feeds, tile_embeddings, poi_embeddings)

    def _spatial_code_table(self, dtype) -> np.ndarray:
        """Per-POI Eq. 4 codes as a static gather table.

        The sinusoidal code is a pure elementwise function of each POI's
        (fixed) location, so ``spatial_encoding(xy[ids])`` equals
        ``table[ids]`` row for row, bit-identically.  Computed once per
        dtype; feed prep then pays one gather per batch instead of
        re-evaluating the trig.
        """
        key = np.dtype(dtype).str
        table = self._spatial_tables.get(key)
        if table is None:
            table = spatial_encoding(
                self.normalized_xy,
                self.config.dim,
                scale=self.config.spatial_scale,
                dtype=dtype,
            )
            self._spatial_tables[key] = table
        return table

    def _encode_feeds(
        self,
        samples: Sequence[PredictionSample],
        knowledge: Optional[Sequence[Tuple[Optional[Tensor], Optional[Tensor]]]],
        bucket: Optional[Tuple[int, int, int, int]] = None,
    ) -> Dict[str, Union[np.ndarray, Tensor]]:
        """Feed prep: a batch -> the padded feeds :meth:`_encode_core` consumes.

        Everything batch-dependent becomes an explicit feed here —
        padded id grids, the Eq. 4 code, time-slot ids, gather
        positions, the right-padded knowledge rows and their
        pre-broadcast masks — so the core derives nothing batch-shaped
        and a trace can capture it.  ``knowledge`` holds each sample's
        ``(tile rows, POI rows)`` (``None`` for a side it lacks), or is
        ``None`` when the batch has none.  The knowledge feeds are
        Tensors padded by :func:`~repro.autograd.pad_stack`, so
        gradients reach the HGAT; every other feed is a plain array.
        ``bucket`` ``(B, L, H_tiles, H_pois)`` pads to a plan's traced
        shape; ``None`` pads to the batch's own maxima.  Padded batch
        rows get a length-1 all-zeros prefix and no knowledge; causal
        masking plus the final gather keep them out of every real
        sample's values.
        """
        batch = len(samples)
        lengths = np.asarray([len(s.prefix) for s in samples], dtype=np.int64)
        if lengths.min() < 1:
            raise ValueError("encoding needs non-empty prefixes")
        sides = list(zip(*knowledge)) if knowledge is not None else [(), ()]
        if bucket is None:
            widths = [
                max((0 if rows is None else rows.shape[0] for rows in side), default=0)
                for side in sides
            ]
            bucket = (batch, int(lengths.max()), *widths)
        b_pad, l_pad, ht, hp = bucket
        if batch > b_pad or lengths.max() > l_pad:
            raise ValueError(
                f"batch of {batch} (longest prefix {lengths.max()}) exceeds bucket {bucket}"
            )
        prefix_ids = np.zeros((b_pad, l_pad), dtype=np.int64)
        timestamps = np.zeros((b_pad, l_pad), dtype=np.float64)
        for i, sample in enumerate(samples):
            prefix_ids[i, : lengths[i]] = sample.prefix_poi_ids
            timestamps[i, : lengths[i]] = [v.timestamp for v in sample.prefix]
        positions = np.zeros(b_pad, dtype=np.int64)
        positions[:batch] = lengths - 1
        feeds: Dict[str, Union[np.ndarray, Tensor]] = {
            "prefix_ids": prefix_ids,
            "tile_ids": self._poi_leaf[prefix_ids],
            "positions": positions,
        }
        if self.config.use_st_encoder:
            code = self._spatial_code_table(get_default_dtype())
            feeds["spatial_code"] = code[prefix_ids]
            feeds["time_slot_ids"] = time_slots(timestamps)
        for name, width, side in (("tiles", ht, sides[0]), ("pois", hp, sides[1])):
            if not width:
                continue
            padded = list(side) + [None] * (b_pad - batch)
            counts = [0 if rows is None else rows.shape[0] for rows in padded]
            mask = key_padding_mask(counts, width)
            feeds[f"history_{name}"] = pad_stack(padded, self.config.dim, pad_to=width)
            feeds[f"{name}_mask"] = mask[:, None, None, :]
            feeds[f"has_{name}"] = (~mask.all(axis=1))[:, None, None]
        return feeds

    def _encode_core(
        self,
        feeds: Dict[str, Union[np.ndarray, Tensor]],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> Tuple[Tensor, Tensor]:
        """The encode's Tensor math over :meth:`_encode_feeds` feeds.

        Embedding gathers, the Eq. 4 code and the Mt slot embeddings,
        then both fusion stacks, each ending in the per-sample position
        gather.  Nothing batch-shaped is derived here (the causal mask
        depends only on the padded length), so the same function runs
        eagerly at a batch's exact shape (:meth:`encode_batch`) and is
        traced once per shape bucket into a plan
        (:meth:`build_encode_plan`).
        """
        tile_sequence = tile_embeddings[feeds["tile_ids"]]  # (B, L, dim)
        poi_sequence = poi_embeddings[feeds["prefix_ids"]]
        if self.config.use_st_encoder:
            tile_sequence = tile_sequence + Tensor(feeds["spatial_code"])
            tile_sequence = self.tile_temporal(tile_sequence, feeds["time_slot_ids"])
            poi_sequence = self.poi_temporal(poi_sequence, feeds["time_slot_ids"])
        causal = causal_mask(feeds["prefix_ids"].shape[1])[None, None, :, :]
        return tuple(
            fusion.forward_batch(
                sequence,
                feeds["positions"],
                causal,
                feeds.get(f"history_{name}"),
                feeds.get(f"{name}_mask"),
                feeds.get(f"has_{name}"),
            )
            for fusion, sequence, name in (
                (self.fusion_tile, tile_sequence, "tiles"),
                (self.fusion_poi, poi_sequence, "pois"),
            )
        )

    # ------------------------------------------------------------------
    # training loss
    # ------------------------------------------------------------------
    def _training_candidates(
        self, target_poi: int, tile_output_data: np.ndarray, leaf_data: np.ndarray
    ) -> List[int]:
        """Step-two candidate POIs for one training sample.

        Called row by row in batch order, so a sample selects the same
        candidate set (and, on the no-two-step path, consumes
        ``_negative_rng`` in the same order) whether it trains inside a
        mini-batch or as a batch of one.
        """
        if self.config.use_two_step:
            top = select_tiles(
                tile_output_data, leaf_data, self._leaf_ids, self.config.top_k
            )
            candidates = candidate_pois(self.tile_system, top)
            if target_poi not in candidates:
                candidates.append(target_poi)
            return candidates
        negatives = self._negative_rng.choice(
            self.num_pois,
            size=min(self.config.negatives_no_two_step, self.num_pois - 1),
            replace=False,
        )
        return [target_poi] + [int(n) for n in negatives if n != target_poi]

    def loss_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> Tensor:
        """Summed Eq. 8 loss for a whole mini-batch in one forward pass.

        The training counterpart of :meth:`predict_batch`: one padded
        :meth:`encode_batch` (differentiable end to end, including the
        pad/mask/gather ops), then both ArcFace heads vectorised over
        the batch — the tile head against the shared leaf table, the
        POI head against right-padded per-sample candidate sets with
        invalid slots masked out of the softmax.  Returns the *sum* of
        the per-sample losses — ``sum_i loss_batch([samples[i]])`` up to
        floating-point accumulation order; the trainer divides by the
        batch size.
        """
        if not samples:
            raise ValueError("loss_batch needs a non-empty batch")
        config = self.config
        batch = len(samples)
        tile_outputs, poi_outputs = self.encode_batch(
            samples, tile_embeddings, poi_embeddings
        )
        leaf_embeddings = tile_embeddings[self._leaf_array]

        target_pois = np.asarray([s.target.poi_id for s in samples], dtype=np.int64)
        target_leaves = self._poi_leaf[target_pois]
        leaf_positions = np.asarray(
            [self._leaf_index[int(leaf)] for leaf in target_leaves], dtype=np.int64
        )
        tile_losses = arcface_loss_batch(
            tile_outputs,
            leaf_embeddings,
            leaf_positions,
            scale=config.loss_scale,
            margin=config.loss_margin,
        )

        # Candidate sets are data extraction (no gradients), selected
        # sample by sample.
        candidate_lists = [
            self._training_candidates(
                int(target_pois[i]), tile_outputs.data[i], leaf_embeddings.data
            )
            for i in range(batch)
        ]

        counts = np.asarray([len(c) for c in candidate_lists], dtype=np.int64)
        c_max = int(counts.max())
        candidate_ids = np.zeros((batch, c_max), dtype=np.int64)
        target_positions = np.zeros(batch, dtype=np.int64)
        for i, candidates in enumerate(candidate_lists):
            ids = np.asarray(candidates, dtype=np.int64)
            candidate_ids[i, : len(ids)] = ids
            target_positions[i] = int(np.nonzero(ids == target_pois[i])[0][0])
        valid = ~key_padding_mask(counts, c_max)

        poi_losses = arcface_loss_batch(
            poi_outputs,
            poi_embeddings[candidate_ids],
            target_positions,
            scale=config.loss_scale,
            margin=config.loss_margin,
            valid=valid,
        )
        return (tile_losses * config.beta + poi_losses).sum()

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Optional[Tensor] = None,
        poi_embeddings: Optional[Tensor] = None,
        k: Optional[int] = None,
        plan: Optional[EncodePlan] = None,
    ) -> List[PredictorResult]:
        """Rank tiles then POIs for a batch (no gradients).

        The one inference implementation (``predict`` is a batch of
        one).  The encode is :meth:`encode_batch`, or — given ``plan``,
        the :class:`EncodePlan` of this batch's shape bucket (see
        ``repro.serve.plans``) — a replay of that plan over the same
        feed prep.  Then one matmul over the leaf table ranks the tiles
        and one over the full POI table ranks the POIs inside the top-K
        tiles.  Padding never reaches a real row, so each sample's
        ranked lists equal those of its batch of one; a float64 plan
        gives the eager ranked lists bit for bit.
        """
        if not samples:
            return []
        k = k if k is not None else self.config.top_k
        with no_grad():
            if tile_embeddings is None or poi_embeddings is None:
                tile_embeddings, poi_embeddings = self.compute_embeddings()
            if plan is None:
                with span("encode", batch_size=len(samples)):
                    tile_outputs, poi_outputs = self.encode_batch(
                        samples, tile_embeddings, poi_embeddings
                    )
                tile_outputs, poi_outputs = tile_outputs.data, poi_outputs.data
                tile_table, poi_table = tile_embeddings.data, poi_embeddings.data
            else:
                with span("plan.replay", batch_size=len(samples), dtype=str(plan.dtype)):
                    tile_outputs, poi_outputs = self._replay(
                        samples, plan, tile_embeddings, poi_embeddings
                    )
                tile_table, poi_table = plan.tile_table, plan.poi_table
            with span("rank.two_step", two_step=self.config.use_two_step):
                ranked_tiles_all = rank_tiles_batch(
                    tile_outputs, tile_table[self._leaf_array], self._leaf_ids
                )
                if self.config.use_two_step:
                    candidate_lists = [
                        candidate_pois(self.tile_system, ranked[:k])
                        for ranked in ranked_tiles_all
                    ]
                else:
                    candidate_lists = [list(range(self.num_pois))] * len(samples)
                ranked_pois_all = rank_pois_batch(poi_outputs, poi_table, candidate_lists)
        results: List[PredictorResult] = []
        for sample, ranked_tiles, ranked_pois in zip(
            samples, ranked_tiles_all, ranked_pois_all
        ):
            target_poi = target_poi_of(sample)
            results.append(
                PredictorResult(
                    ranked_pois=ranked_pois,
                    target_poi=target_poi,
                    ranked_tiles=ranked_tiles,
                    target_tile=(
                        self.tile_system.leaf_of_poi(target_poi) if target_poi >= 0 else -1
                    ),
                    num_pois=self.num_pois,
                )
            )
        return results

    # ------------------------------------------------------------------
    # compiled inference (trace-once, graph-free replay)
    # ------------------------------------------------------------------
    def plan_bucket(self, samples: Sequence[PredictionSample]) -> Tuple[int, int, int, int]:
        """Shape bucket ``(B, L, H_tiles, H_pois)`` this batch pads into.

        Every dimension rounds up — batch to a power of two while ≤ 4,
        then a multiple of 4; sequence length to a multiple of 4;
        knowledge widths to a multiple of 8 — so a handful of plans
        covers the whole serving traffic.  The rounding is deliberately
        tight: self-attention is O(L²), so padding L to the next power
        of two (up to 2× the real length) costs more wall-clock than
        the extra traces a multiple-of-4 grid pays for.  A width of 0
        means *no sample has that kind of knowledge*: feed prep then
        emits no knowledge feeds, and the plan has no cross-attention
        stage, as in an eager encode of such a batch.
        """
        if not samples:
            raise ValueError("plan_bucket needs a non-empty batch")
        lengths = [len(s.prefix) for s in samples]
        if min(lengths) < 1:
            raise ValueError("plan_bucket needs non-empty prefixes")
        batch = len(samples)
        b_pad = _next_pow2(batch) if batch <= 4 else ((batch + 3) // 4) * 4
        l_pad = ((max(lengths) + 3) // 4) * 4
        max_tiles = max_pois = 0
        if self.config.use_graph:
            for sample in samples:
                n_tiles, n_pois = self._knowledge_counts(sample)
                max_tiles = max(max_tiles, n_tiles)
                max_pois = max(max_pois, n_pois)
        ht = ((max_tiles + 7) // 8) * 8
        hp = ((max_pois + 7) // 8) * 8
        return (b_pad, l_pad, ht, hp)

    def _knowledge_counts(self, sample: PredictionSample) -> Tuple[int, int]:
        """(tile rows, POI rows) the sample's knowledge will occupy.

        Mirrors :meth:`_history_knowledge_batch` row counts without
        running the HGAT — the QR-P graph (cached per history) already
        knows its node counts.
        """
        if not (self.config.use_graph and sample.history):
            return (0, 0)
        qrp, _ = self._qrp_for(sample)
        if qrp.is_empty:
            return (0, 0)
        return (len(qrp.tile_refs), len(qrp.poi_refs))

    def _knowledge_rows(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> List[Tuple[Optional[Tensor], Optional[Tensor]]]:
        """Per-sample HGAT knowledge rows for plan replay, LRU-cached.

        Cache misses are computed in one :meth:`_history_knowledge_batch`
        call (one packed HGAT pass).  No attention crosses graph
        boundaries, but a graph's rows are not bit-identical across
        pack compositions: the per-type projection is one matmul over
        the whole pack, and BLAS rounding depends on its row count
        (differences stay at the 1e-16 level).  What holds — and what
        the tests and the repository benchmark check — is that cached
        and fresh rows yield identical ranked lists.
        """
        version = self.weights_version()
        by_key: Dict = {}
        missing: List[PredictionSample] = []
        for sample in samples:
            key = sample.history_key
            if key in by_key:
                continue
            by_key[key] = self._knowledge_cache.get((key, version))
            if by_key[key] is None:
                missing.append(sample)
        if missing:
            knowledge = self._history_knowledge_batch(
                missing, tile_embeddings, poi_embeddings
            )
            for key, rows in knowledge.items():
                self._knowledge_cache.put((key, version), rows)
                by_key[key] = rows
        return [by_key[s.history_key] for s in samples]

    def _plan_feeds(
        self,
        samples: Sequence[PredictionSample],
        bucket: Tuple[int, int, int, int],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> Dict[str, Union[np.ndarray, Tensor]]:
        """Feed prep at a plan's bucket, knowledge from the replay cache."""
        knowledge = None
        if bucket[2] or bucket[3]:
            knowledge = self._knowledge_rows(samples, tile_embeddings, poi_embeddings)
        return self._encode_feeds(samples, knowledge, bucket)

    def build_encode_plan(
        self,
        samples: Sequence[PredictionSample],
        bucket: Tuple[int, int, int, int],
        dtype,
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> "EncodePlan":
        """Trace :meth:`_encode_core` for one shape bucket into a plan.

        The feeds are :meth:`_encode_feeds` at ``bucket``, declared as
        plan inputs.  The embedding tables are inputs too (they change
        on reload, and baking them would double their memory); every
        parameter inside the fusion stacks is baked, with
        parameter-only subexpressions constant-folded at finalize.
        Verification replays the plan on the trace batch — bit-exact
        for float64.
        """
        dtype = np.dtype(dtype)
        with no_grad():
            tile_table = np.asarray(tile_embeddings.data)
            poi_table = np.asarray(poi_embeddings.data)
            if tile_table.dtype != dtype:
                tile_table = tile_table.astype(dtype)
            if poi_table.dtype != dtype:
                poi_table = poi_table.astype(dtype)
            feeds = self._plan_feeds(samples, bucket, tile_embeddings, poi_embeddings)
            with trace(dtype) as tracer:
                traced = {
                    name: (
                        Tensor(tracer.input(name, feed.data))
                        if isinstance(feed, Tensor)
                        else tracer.input(name, feed)
                    )
                    for name, feed in feeds.items()
                }
                tile_input = Tensor(tracer.input("tile_table", tile_table))
                poi_input = Tensor(tracer.input("poi_table", poi_table))
                tile_output, poi_output = self._encode_core(traced, tile_input, poi_input)
            plan = tracer.finalize([tile_output, poi_output])
        return EncodePlan(
            plan=plan, bucket=bucket, dtype=dtype, tile_table=tile_table, poi_table=poi_table
        )

    def _replay(
        self,
        samples: Sequence[PredictionSample],
        entry: "EncodePlan",
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(h_out_tau, h_out_p) rows for ``samples`` from a plan replay."""
        feeds = self._plan_feeds(samples, entry.bucket, tile_embeddings, poi_embeddings)
        arrays = {
            name: feed.data if isinstance(feed, Tensor) else feed for name, feed in feeds.items()
        }
        arrays["tile_table"] = entry.tile_table
        arrays["poi_table"] = entry.poi_table
        tile_out, poi_out = entry.plan.run(arrays)
        batch = len(samples)
        return np.asarray(tile_out)[:batch], np.asarray(poi_out)[:batch]

    def clear_graph_cache(self) -> None:
        self._graph_cache.clear()
