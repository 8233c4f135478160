"""Panel coupled matrix-tensor clustering.

Coupled low-rank subspace estimation for a characteristics tensor and an
outcome panel sharing their first mode, spectral warm starts, Lloyd-style
membership refinement with orthogonal projections, group-level factor
loading estimation, and a reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .factors import FactorEstimate, estimate_latent, estimate_observed, per_asset_loadings
from .kmeans import KmeansResult, kmeans_relaxed
from .membership import EmptyClusterError, Membership
from .metrics import cer, misclustering_loss, total_r2
from .pchooi import PchooiResult, pchooi
from .pipeline import PmtcEstimate, evaluate_rolling, evaluate_split, fit_pmtc, rank_normalize
from .pmtlloyd import LloydTrace, pmtlloyd
from .pmtsc import SpectralInit, pmtsc, spectral_cluster_rows
from .simulate import (
    BlockDesign,
    CoupledData,
    GroundTruth,
    InfeasibleDesignError,
    LowRankDesign,
    SimDesign,
    gen_coupled_lowrank,
    gen_pmtc,
    gen_tensor_block,
)
from .tensor import lsvd, matricize, mode_product, subspace_distance

__all__ = [
    "__version__",
    "matricize", "mode_product", "lsvd", "subspace_distance",
    "Membership", "EmptyClusterError",
    "KmeansResult", "kmeans_relaxed",
    "PchooiResult", "pchooi",
    "SpectralInit", "pmtsc", "spectral_cluster_rows",
    "LloydTrace", "pmtlloyd",
    "FactorEstimate", "estimate_latent", "estimate_observed", "per_asset_loadings",
    "cer", "misclustering_loss", "total_r2",
    "SimDesign", "BlockDesign", "LowRankDesign", "CoupledData", "GroundTruth",
    "InfeasibleDesignError", "gen_pmtc", "gen_tensor_block", "gen_coupled_lowrank",
    "PmtcEstimate", "fit_pmtc", "rank_normalize", "evaluate_split", "evaluate_rolling",
]
