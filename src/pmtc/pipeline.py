"""End-to-end fitting and evaluation of coupled panels.

``cluster`` is the one clustering path, shared by ``fit_pmtc`` and the
Monte Carlo harness: coupling-weight choice, subspace estimation, spectral
initialization, and Lloyd refinement.  ``fit_pmtc`` adds group-level factor
loadings to form one estimate bundle; ``evaluate_split`` and
``evaluate_rolling`` compute in/out-of-sample total R-squared against the
market-excess benchmark, re-estimating loadings on each training window with
the fitted memberships held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factors import FactorEstimate, estimate_latent, estimate_observed
from .membership import Membership
from .metrics import total_r2
from .pchooi import tensor_informative
from .pmtlloyd import LloydTrace, pmtlloyd
from .pmtsc import SpectralInit, pmtsc
from .tensor import UnfoldingGrams

__all__ = ["PmtcEstimate", "Clustering", "cluster", "refine", "fit_pmtc", "rank_normalize",
           "evaluate_split", "evaluate_rolling"]


@dataclass(frozen=True)
class PmtcEstimate:
    memberships: list[Membership]
    factor_estimate: FactorEstimate | None
    ranks: tuple[int, ...]
    omega: float
    pchooi_iterations: int
    pchooi_converged: bool
    lloyd: LloydTrace


@dataclass(frozen=True)
class Clustering:
    """What :func:`cluster` returns: the PMTSC warm start (with PCHOOI's
    stopping record), the refined memberships with the Lloyd stopping record,
    and the coupling weight used."""

    start: SpectralInit
    final: list[Membership]
    lloyd: LloydTrace
    omega: float


def rank_normalize(x: np.ndarray) -> np.ndarray:
    """Rank-normalize every mode-1 cross-section into [0, 1].

    For each combination of the remaining indices, the p1 values are replaced
    by (rank - 1) / (p1 - 1) with average ranks on ties.  ``scipy.stats``
    loads on the first call.
    """
    from scipy.stats import rankdata

    x = np.asarray(x, dtype=float)
    p1 = x.shape[0]
    if p1 < 2:
        return np.zeros_like(x)
    return (rankdata(x, method="average", axis=0) - 1.0) / (p1 - 1.0)


def refine(
    x: np.ndarray,
    y: np.ndarray | None,
    init: list[Membership],
    omega: float = 1.0,
    projection: str = "orthogonal",
    max_iter: int | None = None,
) -> tuple[list[Membership], LloydTrace]:
    """Lloyd refinement of ``init`` and its stopping record (see
    :func:`pmtc.pmtlloyd.pmtlloyd`).

    At ``omega=0`` the coupled objective is the panel's alone, which the
    spectral stage's k-means already solves to Lloyd convergence; the
    refinement would be a fixed point, so ``init`` is returned as is, after
    0 sweeps and converged.
    """
    if omega > 0:
        return pmtlloyd(x, y, init, max_iter=max_iter, projection=projection, omega=omega)
    return init, LloydTrace(0, True)


def cluster(
    x: np.ndarray,
    y: np.ndarray | None,
    ranks,
    omega: float | str = 1.0,
    seed: int = 0,
    lloyd_iters: int | None = None,
    grams: UnfoldingGrams | None = None,
) -> Clustering:
    """PMTC memberships: PCHOOI bases and a PMTSC warm start, then :func:`refine`.

    ``omega="auto"`` keeps the tensor block in the coupled mode only when it
    clears the spectral noise edge (see :func:`pmtc.pchooi.tensor_informative`),
    else drops to the panel-only limit (a tensor indistinguishable from noise
    could only drag the shared mode down).  The test and PCHOOI's start share
    the unfolding Grams in ``grams`` (:class:`~pmtc.tensor.UnfoldingGrams` of
    ``x``, built here when not given).
    """
    x = np.ascontiguousarray(x, dtype=float)
    grams = UnfoldingGrams.of(x, grams)
    if omega == "auto":
        omega = 1.0 if tensor_informative(x, ranks, grams) else 0.0
    start = pmtsc(x, y, ranks, seed=seed, omega=omega, grams=grams)
    return Clustering(start, *refine(x, y, start.memberships, omega, max_iter=lloyd_iters), omega)


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
) -> PmtcEstimate:
    """Fit memberships and group-level factor loadings to (x, y).

    ``ranks`` are the per-mode cluster counts; the memberships come from
    :func:`cluster`.  With observed ``factors`` the loadings come from
    group-level least squares (``demean`` controls the time-series demeaning
    step); otherwise a latent-factor PCA estimate with ``num_factors``
    components (default: the mode-1 cluster count) is returned.
    """
    y = np.asarray(y, dtype=float)
    ranks = tuple(int(r) for r in ranks)
    fit = cluster(x, y, ranks, omega, seed, lloyd_iters)
    m1 = fit.final[0]
    if factors is not None:
        est = estimate_observed(y, m1, factors, demean=demean)
    else:
        est = estimate_latent(y, m1, ranks[0] if num_factors is None else num_factors)
    return PmtcEstimate(fit.final, est, ranks, fit.omega,
                        fit.start.pchooi_iterations, fit.start.pchooi_converged, fit.lloyd)


def _window_r2(y, factors, market, membership, train, test, demean) -> tuple[float, float]:
    b = estimate_observed(y[:, train], membership, factors[:, train], demean=demean).loadings
    ins = total_r2(y[:, train], factors[:, train], market[train], membership, b)
    oos = total_r2(y[:, test], factors[:, test], market[test], membership, b)
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
) -> dict[str, float]:
    """Rolling evaluation: each window trains the loadings, the next validates.

    Windows are consecutive ``window``-period blocks; in- and out-of-sample
    values are averaged over windows.
    """
    y = np.asarray(y, dtype=float)
    factors = np.asarray(factors, dtype=float)
    market = np.asarray(market, dtype=float).ravel()
    t = y.shape[1]
    if not 1 <= window < t:
        raise ValueError(f"window {window} must lie in [1, {t - 1}]")
    blocks = [np.arange(s, min(s + window, t)) for s in range(0, t, window)]
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
