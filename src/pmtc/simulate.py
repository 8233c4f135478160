"""Monte Carlo generators for the simulation studies.

Three data-generating processes are covered: the coupled block model for the
clustering experiments (tensor with block structure plus a factor-driven
panel sharing mode 1, with the block separations normalized to target
signal-to-noise levels), the pure Gaussian tensor block model used by the
co-clustering comparisons, and the coupled low-rank Tucker model used by the
subspace-estimation experiments.  Every generator is a pure function of its
design, including the seed; degenerate draws are retried on derived sub-seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .membership import Membership, expand_blocks
from .tensor import lsvd, matricize, multi_mode_product

__all__ = [
    "SimDesign",
    "BlockDesign",
    "LowRankDesign",
    "CoupledData",
    "GroundTruth",
    "InfeasibleDesignError",
    "gen_pmtc",
    "gen_tensor_block",
    "gen_coupled_lowrank",
]

_MAX_ATTEMPTS = 100


class InfeasibleDesignError(ValueError):
    """The design cannot produce a valid draw (or ran out of retries)."""


@dataclass(frozen=True)
class CoupledData:
    x: np.ndarray
    y: np.ndarray | None


@dataclass(frozen=True)
class GroundTruth:
    memberships: list[Membership]
    core: np.ndarray
    b: np.ndarray | None
    f: np.ndarray | None
    s_y: np.ndarray | None

    # low-rank designs carry bases instead of memberships
    bases: list[np.ndarray] | None = None


@dataclass(frozen=True)
class SimDesign:
    """Coupled block-model design.

    ``balance`` holds per-mode cluster probabilities (None = uniform).  After
    drawing the core and loadings, both are rescaled so the minimum rescaled
    block separations hit the targets
    c_x * (T + max p) * (prod p)^gamma_x  (tensor) and
    c_y * (T + max p) * (prod p)^gamma_y / r_2  (panel);
    a zero noise level skips the corresponding normalization.
    """

    dims: tuple[int, ...] = (200, 200)
    T: int = 120
    ranks: tuple[int, ...] = (5, 5)
    m1: int = 5
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    sigma_s: float = 1.0
    sigma_b: float = 1.0
    sigma_f: float = 1.0
    mu_b: tuple[float, ...] = (1.0, 1.0, 1.0, 0.0, 0.0)
    mu_f: tuple[float, ...] | float = 0.03
    c_x: float = 1.0
    c_y: float = 1.0
    gamma_x: float = -0.5
    gamma_y: float = -0.1
    balance: tuple[tuple[float, ...], ...] | None = None
    noise: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(p) for p in self.dims))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "mu_b", tuple(float(v) for v in np.atleast_1d(self.mu_b)))
        if len(self.dims) != len(self.ranks):
            raise InfeasibleDesignError("dims and ranks must have equal length")
        if any(p < 1 for p in self.dims) or self.T < 1:
            raise InfeasibleDesignError("dimensions must be positive")
        if any(r < 1 or r > p for r, p in zip(self.ranks, self.dims)):
            raise InfeasibleDesignError("ranks must satisfy 1 <= r_i <= p_i")
        if not 1 <= self.m1:
            raise InfeasibleDesignError("m1 must be positive")
        if len(self.mu_b) not in (1, self.m1):
            raise InfeasibleDesignError("mu_b must be scalar or length m1")
        if not (math.isfinite(self.gamma_x) and math.isfinite(self.gamma_y)):
            raise InfeasibleDesignError("SNR exponents must be finite")
        if self.noise not in ("gaussian", "rademacher"):
            raise InfeasibleDesignError(f"unknown noise law {self.noise!r}")
        if self.balance is not None:
            balance = tuple(tuple(float(w) for w in ws) for ws in self.balance)
            if len(balance) != len(self.dims):
                raise InfeasibleDesignError("balance needs one weight vector per mode")
            for ws, r in zip(balance, self.ranks):
                if len(ws) != r or any(w <= 0 for w in ws) or abs(sum(ws) - 1.0) > 1e-8:
                    raise InfeasibleDesignError("balance weights must be positive and sum to 1")
            object.__setattr__(self, "balance", balance)

    @property
    def d(self) -> int:
        return len(self.dims)

    def mu_f_vector(self) -> np.ndarray:
        mu = np.atleast_1d(np.asarray(self.mu_f, dtype=float))
        if mu.size == 1:
            return np.full(self.m1, float(mu[0]))
        if mu.size != self.m1:
            raise InfeasibleDesignError("mu_f must be scalar or length m1")
        return mu

    def snr_x(self) -> float:
        return self.c_x * (self.T + max(self.dims)) * float(np.prod(self.dims)) ** self.gamma_x

    def snr_y(self) -> float:
        r2 = self.ranks[1] if self.d >= 2 else 1
        return (
            self.c_y
            * (self.T + max(self.dims))
            * float(np.prod(self.dims)) ** self.gamma_y
            / r2
        )


@dataclass(frozen=True)
class BlockDesign:
    """Gaussian tensor block model: d clustered modes, no panel, no time mode."""

    d: int = 3
    p: tuple[int, ...] | int = 100
    r: tuple[int, ...] | int = 2
    sigma: float = 1.0
    core_scale: float = 1.0
    balance: tuple[float, ...] | None = None
    seed: int = 0

    def dims(self) -> tuple[int, ...]:
        return self.p if isinstance(self.p, tuple) else (int(self.p),) * self.d

    def ranks(self) -> tuple[int, ...]:
        return self.r if isinstance(self.r, tuple) else (int(self.r),) * self.d


@dataclass(frozen=True)
class LowRankDesign:
    """Coupled low-rank Tucker design for the subspace experiments.

    The core and the panel centroid matrix are rescaled so their minimum
    matricized/ordinary singular values hit
    c_x * sqrt(p1 + (prod m) T) and c_y * sqrt(p1 + T).
    """

    dims: tuple[int, ...] = (50, 50)
    T: int = 40
    ranks: tuple[int, ...] = (5, 5)
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    c_x: float = math.e
    c_y: float = math.e**2
    seed: int = 0


def _rng_for(seed: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(attempt))))


def _noise(rng: np.random.Generator, sigma: float, shape, law: str) -> np.ndarray:
    if sigma == 0.0:
        return np.zeros(shape)
    if law == "gaussian":
        return rng.normal(0.0, sigma, size=shape)
    return sigma * (2.0 * rng.integers(0, 2, size=shape) - 1.0)


def _draw_memberships(rng, dims, ranks, balance) -> list[Membership] | None:
    members = []
    for i, (p, r) in enumerate(zip(dims, ranks)):
        weights = None if balance is None else np.asarray(balance[i], dtype=float)
        labels = rng.choice(r, size=p, p=weights)
        if np.bincount(labels, minlength=r).min() == 0:
            return None
        members.append(Membership(labels, r))
    return members


def gen_pmtc(design: SimDesign) -> tuple[CoupledData, GroundTruth]:
    """Draw one coupled block-model replication.

    Deterministic given ``design.seed``; draws with an empty cluster or zero
    separation are retried on derived sub-seeds (bounded, then error).  A
    signal that is zero by design -- the core when ``sigma_s=0``, the panel
    centroids when the loadings (``sigma_b=0``, ``mu_b=0``) or the factors
    (``sigma_f=0``, ``mu_f=0``) vanish -- is neither retried nor rescaled.
    """
    zero_x = design.sigma_s == 0.0
    zero_y = (design.sigma_b == 0.0 and not any(design.mu_b)) or (
        design.sigma_f == 0.0 and not design.mu_f_vector().any()
    )
    last = "no attempts made"
    for attempt in range(_MAX_ATTEMPTS):
        rng = _rng_for(design.seed, attempt)
        members = _draw_memberships(rng, design.dims, design.ranks, design.balance)
        if members is None:
            last = "empty cluster"
            continue

        core = rng.normal(0.0, design.sigma_s, size=design.ranks + (design.T,))
        b = design.sigma_b * rng.standard_normal((design.ranks[0], design.m1))
        b += np.resize(np.asarray(design.mu_b), design.m1)[np.newaxis, :]
        f = design.mu_f_vector()[:, np.newaxis] + design.sigma_f * rng.standard_normal(
            (design.m1, design.T)
        )

        stats = metrics.separations(core, members, b @ f)
        # delta_sq[0] joins the core and panel separations of mode 1; the
        # other modes are core only
        seps = [] if zero_x else list(stats.delta_sq[1:])
        if not (zero_x and zero_y):
            seps.append(stats.delta_sq[0])
        if design.sigma_y > 0 and not zero_y:
            seps.append(stats.delta_y_sq)
        if 0.0 in seps:
            last = "zero separation"
            continue

        if design.sigma_x > 0 and not zero_x:
            dx2 = min(stats.delta_x_sq)
            if math.isfinite(dx2):
                core = core * math.sqrt(design.snr_x() * design.sigma_x**2 / dx2)
        if design.sigma_y > 0 and design.ranks[0] > 1 and not zero_y:
            dy2 = stats.delta_y_sq
            b = b * math.sqrt(design.snr_y() * design.sigma_y**2 / dy2)

        s_y = b @ f
        x = expand_blocks(core, members) + _noise(
            rng, design.sigma_x, design.dims + (design.T,), design.noise
        )
        y = s_y[members[0].labels] + _noise(
            rng, design.sigma_y, (design.dims[0], design.T), design.noise
        )
        return CoupledData(x, y), GroundTruth(members, core, b, f, s_y)
    raise InfeasibleDesignError(
        f"no valid draw in {_MAX_ATTEMPTS} attempts (last failure: {last})"
    )


def gen_tensor_block(design: BlockDesign) -> tuple[np.ndarray, GroundTruth]:
    """Draw one Gaussian tensor block model replication (no coupled panel)."""
    dims, ranks = design.dims(), design.ranks()
    if any(r < 1 or r > p for r, p in zip(ranks, dims)):
        raise InfeasibleDesignError("ranks must satisfy 1 <= r_i <= p_i")
    balance = None
    if design.balance is not None:
        balance = (tuple(design.balance),) * design.d
    last = "no attempts made"
    for attempt in range(_MAX_ATTEMPTS):
        rng = _rng_for(design.seed, attempt)
        members = _draw_memberships(rng, dims, ranks, balance)
        if members is None:
            last = "empty cluster"
            continue
        core = rng.normal(0.0, design.core_scale, size=ranks)
        stats = metrics.separations(core, members)
        if stats.degenerate:
            last = "zero separation"
            continue
        x = expand_blocks(core, members) + _noise(rng, design.sigma, dims, "gaussian")
        return x, GroundTruth(members, core, None, None, None)
    raise InfeasibleDesignError(
        f"no valid draw in {_MAX_ATTEMPTS} attempts (last failure: {last})"
    )


def _scale_to_min_singular(core: np.ndarray, d: int, target: float) -> np.ndarray:
    smallest = min(
        np.linalg.svd(matricize(core, i), compute_uv=False)[-1] for i in range(d)
    )
    if smallest == 0.0:
        raise InfeasibleDesignError("rank-deficient core draw")
    return core * (target / smallest)


def gen_coupled_lowrank(design: LowRankDesign) -> tuple[CoupledData, GroundTruth]:
    """Draw one coupled low-rank Tucker replication.

    Per-mode bases are orthonormalized Gaussian matrices; the core tensor and
    the panel centroid matrix are rescaled to the design's minimum singular
    value targets; noise is i.i.d. Gaussian.
    """
    d = len(design.dims)
    rng = _rng_for(design.seed, 0)
    bases = [
        lsvd(rng.standard_normal((p, m)), m) for p, m in zip(design.dims, design.ranks)
    ]
    core = rng.standard_normal(design.ranks + (design.T,))
    core = _scale_to_min_singular(
        core, d, design.c_x * math.sqrt(design.dims[0] + np.prod(design.ranks) * design.T)
    )
    f_y = rng.standard_normal((design.ranks[0], design.T))
    f_y = f_y * (
        design.c_y
        * math.sqrt(design.dims[0] + design.T)
        / np.linalg.svd(f_y, compute_uv=False)[-1]
    )
    signal = multi_mode_product(core, dict(enumerate(bases)))
    x = signal + rng.normal(0.0, design.sigma_x, size=signal.shape)
    y = bases[0] @ f_y + rng.normal(0.0, design.sigma_y, size=(design.dims[0], design.T))
    truth = GroundTruth([], core, None, None, f_y, bases=bases)
    return CoupledData(x, y), truth
