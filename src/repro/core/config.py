"""TSPN-RA hyper-parameters and ablation switches."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class TSPNRAConfig:
    """Model configuration.

    Defaults follow the paper's implementation details (Sec. VI-A)
    scaled to the reproduction substrate: the paper uses dm=512 on GPU;
    the CPU default here is 64 (Fig. 10 showed dm mattered little on
    TKY, and the parameter-sweep bench varies it).
    """

    dim: int = 64  # d_m, embedding dimension
    num_heads: int = 4
    fusion_layers: int = 2  # N attention blocks in MP1/MP2
    hgat_layers: int = 2  # n aggregation rounds (Eq. 6)
    alpha: float = 0.7  # POI id/category merge ratio (Eq. 5)
    top_k: int = 10  # K tiles kept by step one
    dropout: float = 0.1
    loss_scale: float = 16.0  # s in Eq. 8
    loss_margin: float = 0.20  # m in Eq. 8
    beta: float = 1.0  # tile-loss weight in the total loss
    spatial_scale: float = 100.0  # coordinate multiplier before Eq. 4 sinusoids
    # --- ablation switches (Table IV) ---
    use_imagery: bool = True  # False -> learnable tile table ("No Imagery")
    use_two_step: bool = True  # False -> rank all POIs directly ("No Two-step")
    use_graph: bool = True  # False -> drop QR-P input ("No Graph")
    use_st_encoder: bool = True  # False -> drop Ms and Mt ("No S&T Encoder")
    use_category: bool = True  # False -> id-only POI embeddings ("No POI Category")
    drop_edge_type: str = ""  # "road" | "contain" for fine-grained ablations
    negatives_no_two_step: int = 64  # sampled negatives when two-step is off

    def __post_init__(self):
        # counts first: num_heads=0 would divide by zero below, and a
        # checkpoint's JSON meta reaches here unchecked
        if self.fusion_layers < 1:
            raise ValueError("fusion_layers must be at least 1")
        if self.num_heads < 1:
            raise ValueError("num_heads must be at least 1")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1 (step one keeps K tiles)")
        if self.hgat_layers < 0:
            raise ValueError("hgat_layers must be at least 0")
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if self.dim % 4 != 0:
            raise ValueError("dim must be divisible by 4 (Eq. 4 splits dims between x and y)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1) per Eq. 5")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.drop_edge_type not in ("", "road", "contain", "branch"):
            raise ValueError("drop_edge_type must be '', 'road', 'contain' or 'branch'")

    def variant(self, **changes) -> "TSPNRAConfig":
        """Copy with overrides (how the ablation table is generated)."""
        return replace(self, **changes)
