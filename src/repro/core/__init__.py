"""TSPN-RA core: the paper's primary contribution."""

from .config import TSPNRAConfig
from .encoders import TemporalEncoder, spatial_encoding, time_slots
from .fusion import AttentionBlock, FusionModule
from .hgat import HGATEncoder, HGATLayer
from .loss import arcface_loss_batch
from .model import PredictionResult, TSPNRA
from .poi_embedding import POIEmbedder
from .tile_embedding import ImageTileEmbedder, TableTileEmbedder
from .tilesystem import GridTileSystem, QuadTreeTileSystem
from .two_step import (
    candidate_pois,
    cosine_similarities_batch,
    rank_by_cosine,
    rank_of_target,
    rank_pois_batch,
    rank_tiles_batch,
    select_tiles,
)

__all__ = [
    "AttentionBlock",
    "FusionModule",
    "GridTileSystem",
    "HGATEncoder",
    "HGATLayer",
    "ImageTileEmbedder",
    "POIEmbedder",
    "PredictionResult",
    "QuadTreeTileSystem",
    "TSPNRA",
    "TSPNRAConfig",
    "TableTileEmbedder",
    "TemporalEncoder",
    "arcface_loss_batch",
    "candidate_pois",
    "cosine_similarities_batch",
    "rank_by_cosine",
    "rank_of_target",
    "rank_pois_batch",
    "rank_tiles_batch",
    "select_tiles",
    "spatial_encoding",
    "time_slots",
]
