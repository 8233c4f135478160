"""End-to-end fitting and evaluation of coupled panels.

``fit_pmtc`` chains subspace estimation, spectral initialization, Lloyd
refinement, and factor-loading estimation into one estimate bundle;
``evaluate_split`` and ``evaluate_rolling`` compute in/out-of-sample total
R-squared against the market-excess benchmark, re-estimating loadings on
each training window with the fitted memberships held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .factors import FactorEstimate, estimate_latent, estimate_observed
from .membership import Membership
from .metrics import EvalInput, total_r2
from .pchooi import pchooi, tensor_informative
from .pmtlloyd import pmtlloyd
from .pmtsc import pmtsc
from .tensor import multi_mode_product

__all__ = ["PmtcEstimate", "fit_pmtc", "rank_normalize", "evaluate_split", "evaluate_rolling"]


@dataclass(frozen=True)
class PmtcEstimate:
    memberships: list[Membership]
    core: np.ndarray
    s_y: np.ndarray
    factor_estimate: FactorEstimate | None
    ranks: tuple[int, ...]
    omega: float


def rank_normalize(x: np.ndarray) -> np.ndarray:
    """Rank-normalize every mode-1 cross-section into [0, 1].

    For each combination of the remaining indices, the p1 values are replaced
    by (rank - 1) / (p1 - 1) with average ranks on ties.
    """
    x = np.asarray(x, dtype=float)
    p1 = x.shape[0]
    if p1 < 2:
        return np.zeros_like(x)
    return (rankdata(x, method="average", axis=0) - 1.0) / (p1 - 1.0)


def fit_pmtc(
    x: np.ndarray,
    y: np.ndarray,
    ranks,
    factors: np.ndarray | None = None,
    num_factors: int | None = None,
    omega: float | str = 1.0,
    seed: int = 0,
    demean: bool = True,
    lloyd_iters: int | None = None,
    subspace_ranks=None,
    restarts: int = 10,
) -> PmtcEstimate:
    """Fit memberships, block centroids, and factor loadings to (x, y).

    ``ranks`` are the per-mode cluster counts.  With observed ``factors`` the
    loadings come from group-level least squares (``demean`` controls the
    time-series demeaning step); otherwise a latent-factor PCA estimate with
    ``num_factors`` components (default: the mode-1 cluster count) is
    returned.  ``omega="auto"`` keeps the tensor block in the coupled mode
    only when it clears the spectral noise edge (see
    :func:`pmtc.pchooi.tensor_informative`); in the panel-only limit the
    spectral stage already solves the clustering to convergence, so the
    refinement is skipped.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ranks = tuple(int(r) for r in ranks)
    if omega == "auto":
        omega = 1.0 if tensor_informative(x, ranks) else 0.0
    bases = pchooi(x, y, subspace_ranks or ranks, omega=omega).bases
    init = pmtsc(x, y, ranks, bases=bases, seed=seed, restarts=restarts, omega=omega)
    if omega > 0:
        members, _ = pmtlloyd(x, y, init.memberships, max_iter=lloyd_iters, omega=omega)
    else:
        members = init.memberships

    core = multi_mode_product(x, {i: m.projector().T for i, m in enumerate(members)})
    s_y = members[0].projector().T @ y
    if factors is not None:
        est = estimate_observed(y, members[0], factors, demean=demean)
    else:
        est = estimate_latent(y, members[0], num_factors or ranks[0])
    return PmtcEstimate(members, core, s_y, est, ranks, omega)


def _window_r2(y, factors, market, membership, train, test, demean) -> tuple[float, float]:
    b = estimate_observed(y[:, train], membership, factors[:, train], demean=demean).loadings
    ins = total_r2(EvalInput(y[:, train], factors[:, train], market[train], membership, b))
    oos = total_r2(EvalInput(y[:, test], factors[:, test], market[test], membership, b))
    return ins, oos


def evaluate_split(
    y: np.ndarray,
    factors: np.ndarray,
    market: np.ndarray,
    membership: Membership,
    split: int,
    demean: bool = True,
) -> dict[str, float]:
    """Total R-squared with periods [0, split) as training and the rest held out."""
    y = np.asarray(y, dtype=float)
    factors = np.asarray(factors, dtype=float)
    market = np.asarray(market, dtype=float).ravel()
    t = y.shape[1]
    if not 1 <= split < t:
        raise ValueError(f"split index {split} must lie in [1, {t - 1}]")
    train, test = np.arange(split), np.arange(split, t)
    ins, oos = _window_r2(y, factors, market, membership, train, test, demean)
    return {"ins_r2": ins, "oos_r2": oos}


def evaluate_rolling(
    y: np.ndarray,
    factors: np.ndarray,
    market: np.ndarray,
    membership: Membership,
    window: int = 12,
    demean: bool = True,
    years: np.ndarray | None = None,
) -> dict[str, float]:
    """Rolling evaluation: each window trains the loadings, the next validates.

    Windows are consecutive ``window``-period blocks, or calendar years when a
    per-period ``years`` vector is supplied; in- and out-of-sample values are
    averaged over windows.
    """
    y = np.asarray(y, dtype=float)
    factors = np.asarray(factors, dtype=float)
    market = np.asarray(market, dtype=float).ravel()
    t = y.shape[1]
    if years is not None:
        years = np.asarray(years)
        if years.shape != (t,):
            raise ValueError("years vector must have one entry per period")
        blocks = [np.flatnonzero(years == yv) for yv in np.unique(years)]
    else:
        if not 1 <= window < t:
            raise ValueError(f"window {window} must lie in [1, {t - 1}]")
        blocks = [np.arange(s, min(s + window, t)) for s in range(0, t, window)]
    if len(blocks) < 2:
        raise ValueError("rolling evaluation needs at least two windows")
    ins_vals, oos_vals = [], []
    for train, test in zip(blocks[:-1], blocks[1:]):
        ins, oos = _window_r2(y, factors, market, membership, train, test, demean)
        ins_vals.append(ins)
        oos_vals.append(oos)
    return {
        "ins_r2": float(np.mean(ins_vals)),
        "oos_r2": float(np.mean(oos_vals)),
        "windows": float(len(ins_vals)),
    }
