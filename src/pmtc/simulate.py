"""Monte Carlo generators for the simulation studies.

Three data-generating processes are covered: the coupled block model for the
clustering experiments (tensor with block structure plus a factor-driven
panel sharing mode 1, with the block separations normalized to target
signal-to-noise levels), the pure Gaussian tensor block model used by the
co-clustering comparisons, and the coupled low-rank Tucker model used by the
subspace-estimation experiments, all with Gaussian noise.  Every generator is
a pure function of its design, including the seed; the two block models
share one attempt loop, which retries a degenerate draw on derived sub-seeds.
"""

from __future__ import annotations

import math
import sys
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
_MU_F = 0.03  # mean of every factor in the coupled block model
_SQUARES_MARGIN = 1e4  # see _check_design


class InfeasibleDesignError(ValueError):
    """The design cannot produce a valid draw (or ran out of retries)."""


def _check_design(dims, ranks, T: int = 1, signals: dict[str, float] | None = None,
                  **scales: float) -> None:
    """Refuse a design that no draw can follow; ``T`` is its time dimension, if any.

    ``scales`` (standard deviations and scale factors) must be finite and >= 0.
    The square of each of them, and of each of ``signals`` (a signal's target
    size, named by its formula), times the tensor's entry count and
    ``_SQUARES_MARGIN`` must be a finite float, so that the draw's sums of
    squares (its Grams, norms and objectives) are.  Measured, the first to
    overflow is the Gram of the mode with the longest unfolding rows; the
    margin covers sums of a few such terms, such as the coupled Gram.
    """
    if len(dims) != len(ranks):
        raise InfeasibleDesignError("dims and ranks must have equal length")
    if any(p < 1 for p in dims) or T < 1:
        raise InfeasibleDesignError("dimensions must be positive")
    if any(r < 1 or r > p for r, p in zip(ranks, dims)):
        raise InfeasibleDesignError("ranks must satisfy 1 <= r_i <= p_i")
    for name, value in scales.items():
        if not (math.isfinite(value) and value >= 0):
            raise InfeasibleDesignError(f"{name} must be finite and >= 0, got {value}")
    entries = math.prod(dims) * T
    most = math.sqrt(sys.float_info.max / _SQUARES_MARGIN / entries)
    for name, value in {**scales, **(signals or {})}.items():
        if not value <= most:  # also refuses nan
            raise InfeasibleDesignError(
                f"{name} = {value:.3g} is above {most:.3g}, past which sums of squares "
                f"over {entries} tensor entries could overflow")


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, or inf where that overflows a float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


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
    """Coupled block-model design of the clustering experiments.

    The core (mean 0), the loadings ``b`` (mean ``mu_b``) and the factors
    (mean 0.03) are unit-variance normal draws, and the noise is Gaussian
    with standard deviations ``sigma_x`` and ``sigma_y``.  ``balance`` holds per-mode
    cluster probabilities (None = uniform).  The core and the loadings are
    rescaled so the minimum rescaled block separations hit the targets
    (T + max p) * (prod p)^gamma_x  (tensor) and
    (T + max p) * (prod p)^gamma_y / r_2  (panel);
    a zero noise level skips the corresponding normalization, so
    ``sigma_x=0, sigma_y=0`` gives the noiseless signal itself.
    """

    dims: tuple[int, ...] = (200, 200)
    T: int = 120
    ranks: tuple[int, ...] = (5, 5)
    m1: int = 5
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    mu_b: tuple[float, ...] = (1.0, 1.0, 1.0, 0.0, 0.0)
    gamma_x: float = -0.5
    gamma_y: float = -0.1
    balance: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(p) for p in self.dims))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "mu_b", tuple(float(v) for v in np.atleast_1d(self.mu_b)))
        _check_design(self.dims, self.ranks, self.T, sigma_x=self.sigma_x, sigma_y=self.sigma_y)
        if not 1 <= self.m1:
            raise InfeasibleDesignError("m1 must be positive")
        if len(self.mu_b) not in (1, self.m1):
            raise InfeasibleDesignError("mu_b must be scalar or length m1")
        if not (math.isfinite(self.gamma_x) and math.isfinite(self.gamma_y)):
            raise InfeasibleDesignError("SNR exponents must be finite")
        _check_design(self.dims, self.ranks, self.T, signals={
            "sigma_x * sqrt(snr_x)": self.sigma_x * math.sqrt(self.snr_x()),
            "sigma_y * sqrt(snr_y)": self.sigma_y * math.sqrt(self.snr_y()),
        })
        if self.balance is not None:
            balance = tuple(tuple(float(w) for w in ws) for ws in self.balance)
            if len(balance) != len(self.dims):
                raise InfeasibleDesignError("balance needs one weight vector per mode")
            for i, (ws, r) in enumerate(zip(balance, self.ranks)):
                if len(ws) != r:
                    raise InfeasibleDesignError(
                        f"mode {i + 1} has r_{i + 1} = {r} clusters but {len(ws)} balance weights")
                if any(w <= 0 for w in ws) or abs(sum(ws) - 1.0) > 1e-8:
                    raise InfeasibleDesignError("balance weights must be positive and sum to 1")
            object.__setattr__(self, "balance", balance)

    def snr_x(self) -> float:
        return (self.T + max(self.dims)) * _power(float(np.prod(self.dims)), self.gamma_x)

    def snr_y(self) -> float:
        r2 = self.ranks[1] if len(self.ranks) >= 2 else 1
        return (self.T + max(self.dims)) * _power(float(np.prod(self.dims)), self.gamma_y) / r2


@dataclass(frozen=True)
class BlockDesign:
    """Gaussian tensor block model (Han, Luo, Wang & Zhang, 2022): one
    clustered mode per entry of ``dims``, no panel and no time mode.

    The core is normal with standard deviation ``core_scale``, the noise
    normal with standard deviation ``sigma``; ``balance`` holds the cluster
    probabilities of every mode (None = uniform).
    """

    dims: tuple[int, ...] = (100, 100, 100)
    ranks: tuple[int, ...] = (2, 2, 2)
    sigma: float = 1.0
    core_scale: float = 1.0
    balance: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        _check_design(self.dims, self.ranks, sigma=self.sigma, core_scale=self.core_scale)


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

    def __post_init__(self):
        _check_design(self.dims, self.ranks, self.T, sigma_x=self.sigma_x, sigma_y=self.sigma_y,
                      c_x=self.c_x, c_y=self.c_y)
        _check_design(self.dims, self.ranks, self.T, signals={
            "c_x * sqrt(p1 + (prod m) T)": self.target_x(), "c_y * sqrt(p1 + T)": self.target_y()})

    def target_x(self) -> float:
        return self.c_x * math.sqrt(self.dims[0] + np.prod(self.ranks) * self.T)

    def target_y(self) -> float:
        return self.c_y * math.sqrt(self.dims[0] + self.T)


def _rng_for(seed: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(attempt))))


def _block_tensor(rng, sigma: float, core: np.ndarray, members, on_slab=None) -> np.ndarray:
    """Gaussian noise of standard deviation ``sigma`` plus the block signal
    ``expand_blocks(core, members)``, drawn one mode-1 slab at a time.

    Slab ``x[i]`` is filled from ``rng`` (zeros, without a random call, at
    ``sigma=0``), scaled by ``sigma``, and its block signal is added; then
    ``on_slab(x[i])`` sees the finished slab, if given.  The slabs take the
    stream in C order, so the tensor equals
    ``expand_blocks(core, members) + rng.normal(0.0, sigma, shape)`` bit for
    bit, and no second full-size tensor is held.  ``core``'s trailing axes
    past ``members`` (a time mode) are not clustered.
    """
    signal = [expand_blocks(c, members[1:]) for c in core]  # a slab of each mode-1 cluster
    labels = members[0].labels
    x = np.empty((labels.size,) + signal[0].shape)
    for slab, g in zip(x, labels):
        if sigma == 0.0:
            slab[...] = 0.0
        else:
            rng.standard_normal(out=slab)
            slab *= sigma
        slab += signal[g]
        if on_slab is not None:
            on_slab(slab)
    return x


def _draw_memberships(rng, dims, ranks, balance) -> list[Membership] | None:
    members = []
    for i, (p, r) in enumerate(zip(dims, ranks)):
        weights = None if balance is None else np.asarray(balance[i], dtype=float)
        labels = rng.choice(r, size=p, p=weights)
        if np.bincount(labels, minlength=r).min() == 0:
            return None
        members.append(Membership(labels, r))
    return members


def _attempts(seed: int, dims, ranks, balance):
    """The block draws' one attempt loop: attempt ``a`` = 0, 1, ... draws the
    memberships from ``_rng_for(seed, a)`` and, if no cluster is empty,
    yields ``(rng, members)``.  The caller draws the rest from ``rng`` and
    returns on the first draw it accepts, so a resumed loop means a rejected
    one: a zero separation.  After ``_MAX_ATTEMPTS`` (>= 1) failed attempts
    this raises, naming the last failure.
    """
    for attempt in range(_MAX_ATTEMPTS):
        rng = _rng_for(seed, attempt)
        members = _draw_memberships(rng, dims, ranks, balance)
        if members is None:
            last = "empty cluster"
            continue
        yield rng, members
        last = "zero separation"
    raise InfeasibleDesignError(
        f"no valid draw in {_MAX_ATTEMPTS} attempts (last failure: {last})"
    )


def gen_pmtc(design: SimDesign, on_slab=None) -> tuple[CoupledData, GroundTruth]:
    """Draw one coupled block-model replication.

    Deterministic given ``design.seed``; an attempt with an empty cluster or
    zero separation is retried on the next sub-seed (see ``_attempts``).  The
    tensor is drawn one mode-1 slab at a time, and ``on_slab``, if given, is
    called once with each finished slab ``x[i]``, in order of ``i``, so a
    caller can work on the slabs while the rest are drawn (the harness sums
    their unfolding Grams on another thread); it must not write to them.
    """
    for rng, members in _attempts(design.seed, design.dims, design.ranks, design.balance):
        core = rng.normal(0.0, 1.0, size=design.ranks + (design.T,))
        b = rng.standard_normal((design.ranks[0], design.m1))
        b += np.resize(np.asarray(design.mu_b), design.m1)[np.newaxis, :]
        f = _MU_F + rng.standard_normal((design.m1, design.T))

        stats = metrics.separations(core, members, b @ f)
        if 0.0 in stats.delta_x_sq or (design.sigma_y > 0 and stats.delta_y_sq == 0.0):
            continue

        if design.sigma_x > 0:
            dx2 = min(stats.delta_x_sq)
            if math.isfinite(dx2):
                core = core * math.sqrt(design.snr_x() * design.sigma_x**2 / dx2)
        if design.sigma_y > 0 and design.ranks[0] > 1:
            dy2 = stats.delta_y_sq
            b = b * math.sqrt(design.snr_y() * design.sigma_y**2 / dy2)

        s_y = b @ f
        x = _block_tensor(rng, design.sigma_x, core, members, on_slab)
        y = s_y[members[0].labels] + rng.normal(0.0, design.sigma_y, (design.dims[0], design.T))
        return CoupledData(x, y), GroundTruth(members, core, b, f, s_y)


def gen_tensor_block(design: BlockDesign, on_slab=None) -> tuple[np.ndarray, GroundTruth]:
    """Draw one Gaussian tensor block model replication (no coupled panel).

    Attempts are retried, and the tensor is drawn one mode-1 slab at a time,
    as in :func:`gen_pmtc`, which describes ``on_slab``; it is the only
    full-size array held.
    """
    balance = None
    if design.balance is not None:
        balance = (tuple(design.balance),) * len(design.dims)
    for rng, members in _attempts(design.seed, design.dims, design.ranks, balance):
        core = rng.normal(0.0, design.core_scale, size=design.ranks)
        stats = metrics.separations(core, members)
        if 0.0 in stats.delta_x_sq:
            continue
        x = _block_tensor(rng, design.sigma, core, members, on_slab)
        return x, GroundTruth(members, core, None, None, None)


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
    core = _scale_to_min_singular(core, d, design.target_x())
    f_y = rng.standard_normal((design.ranks[0], design.T))
    f_y = f_y * (design.target_y() / np.linalg.svd(f_y, compute_uv=False)[-1])
    signal = multi_mode_product(core, dict(enumerate(bases)))
    x = signal + rng.normal(0.0, design.sigma_x, size=signal.shape)
    y = bases[0] @ f_y + rng.normal(0.0, design.sigma_y, size=(design.dims[0], design.T))
    truth = GroundTruth([], core, None, None, f_y, bases=bases)
    return CoupledData(x, y), truth
