import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pmtc import simulate
from pmtc.membership import expand_blocks
from pmtc.metrics import separations
from pmtc.simulate import (
    BlockDesign,
    InfeasibleDesignError,
    LowRankDesign,
    SimDesign,
    gen_coupled_lowrank,
    gen_pmtc,
    gen_tensor_block,
)


def test_noiseless_is_block_constant():
    d = SimDesign(dims=(20, 16), T=8, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  sigma_x=0.0, sigma_y=0.0, seed=0)
    data, truth = gen_pmtc(d)
    g1, g2 = truth.memberships
    expect = truth.core[g1.labels][:, g2.labels]
    assert np.array_equal(data.x, expect)
    assert np.array_equal(data.y, (truth.b @ truth.f)[g1.labels])


def test_s_y_consistency():
    d = SimDesign(dims=(20, 16), T=8, ranks=(3, 2), m1=2, mu_b=(1.0,), seed=1)
    _, truth = gen_pmtc(d)
    assert np.allclose(truth.s_y, truth.b @ truth.f, atol=1e-12)


def test_realized_snr_matches_target_exactly():
    d = SimDesign(dims=(30, 24), T=12, ranks=(3, 3), m1=2, mu_b=(1.0,),
                  gamma_x=-0.3, gamma_y=-0.2, seed=2)
    _, truth = gen_pmtc(d)
    stats = separations(truth.core, truth.memberships, truth.s_y)
    assert abs(min(stats.delta_x_sq) / d.sigma_x**2 - d.snr_x()) < 1e-9 * d.snr_x()
    assert abs(stats.delta_y_sq / d.sigma_y**2 - d.snr_y()) < 1e-9 * d.snr_y()
    # the minimizing mode hits the target; the others sit at or above it
    for v in stats.delta_x_sq:
        assert v >= d.snr_x() * d.sigma_x**2 * (1 - 1e-12)


def test_same_seed_bit_identical():
    d = SimDesign(dims=(25, 20), T=10, ranks=(3, 2), m1=2, mu_b=(1.0,), seed=4)
    a, ta = gen_pmtc(d)
    b, tb = gen_pmtc(d)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    for ma, mb in zip(ta.memberships, tb.memberships):
        assert np.array_equal(ma.labels, mb.labels)


@pytest.mark.parametrize("sigma_x", [0.0, 0.5, 1.0, 2.0])
def test_tensor_is_signal_plus_noise_bit_for_bit(sigma_x):
    d = SimDesign(dims=(25, 20), T=10, ranks=(3, 2), m1=2, mu_b=(1.0,), sigma_x=sigma_x, seed=4)
    data, truth = gen_pmtc(d)
    # replay the draw's random calls (first attempt) up to the tensor noise
    rng = simulate._rng_for(d.seed, 0)
    for p, r in zip(d.dims, d.ranks):
        rng.choice(r, size=p)
    rng.normal(0.0, 1.0, size=d.ranks + (d.T,))
    rng.standard_normal((d.ranks[0], d.m1))
    rng.standard_normal((d.m1, d.T))
    shape = d.dims + (d.T,)
    noise = rng.normal(0.0, sigma_x, size=shape) if sigma_x > 0 else np.zeros(shape)
    signal = expand_blocks(truth.core, truth.memberships)
    assert (signal + noise).tobytes() == data.x.tobytes()
    # the panel noise comes next in the stream: a noiseless tensor takes no draw
    y_noise = rng.normal(0.0, d.sigma_y, size=(d.dims[0], d.T))
    assert (truth.s_y[truth.memberships[0].labels] + y_noise).tobytes() == data.y.tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0])
def test_block_tensor_is_signal_plus_noise_bit_for_bit(sigma):
    d = BlockDesign(dims=(14, 12, 10), ranks=(3, 2, 4), sigma=sigma, core_scale=0.3, seed=6)
    x, truth = gen_tensor_block(d)
    rng = simulate._rng_for(d.seed, 0)
    for p, r in zip(d.dims, d.ranks):
        rng.choice(r, size=p)
    rng.normal(0.0, d.core_scale, size=d.ranks)
    noise = rng.normal(0.0, sigma, size=d.dims) if sigma > 0 else np.zeros(d.dims)
    assert (expand_blocks(truth.core, truth.memberships) + noise).tobytes() == x.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tensor_draw_does_not_depend_on_the_panel_design(seed):
    # every random call up to the tensor noise is the same for any gamma_y or
    # mu_b, so the panel designs over one tensor design share its tensor
    base = SimDesign(dims=(30, 20), T=12, gamma_x=-0.3, seed=seed)
    panels = [replace(base, gamma_y=g) for g in (-0.45, -0.1, 0.1)]
    draws = [gen_pmtc(d)[0] for d in panels + [replace(base, mu_b=(0.5,) * 5)]]
    assert len({d.x.tobytes() for d in draws}) == 1
    assert len({d.y.tobytes() for d in draws[:3]}) == 3

def test_draw_holds_no_second_full_size_tensor():
    d = SimDesign(dims=(100, 100), T=60, seed=5)
    tracemalloc.start()
    try:
        data, _ = gen_pmtc(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * data.x.nbytes


def test_block_draw_holds_no_second_full_size_tensor():
    d = BlockDesign(dims=(100, 100, 100), ranks=(5, 5, 5), seed=5)
    tracemalloc.start()
    try:
        x, _ = gen_tensor_block(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * x.nbytes


@pytest.mark.parametrize("draw, design", [
    (gen_pmtc, SimDesign(dims=(12, 10), T=6, ranks=(3, 2), m1=2, mu_b=(1.0,), seed=3)),
    (gen_tensor_block, BlockDesign(dims=(12, 10, 8), ranks=(3, 2, 2), seed=3)),
])
def test_each_finished_slab_is_handed_over_once_in_order(draw, design):
    seen = []
    drawn, _ = draw(design, on_slab=lambda slab: seen.append(slab.copy()))
    x = drawn.x if isinstance(drawn, simulate.CoupledData) else drawn
    assert len(seen) == x.shape[0]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, x))


def test_cluster_size_band_balanced():
    # exact multinomial oracle: P(all 5 sizes of 200 draws in [20, 60]) = 0.99839;
    # check every seeded draw lands in the band and the oracle value itself
    from math import exp, lgamma, log

    p, r, lo, hi = 200, 5, 20, 60
    neg = -1e300
    f = np.full(p + 1, neg)
    f[0] = 0.0
    for _ in range(r):
        g = np.full(p + 1, neg)
        for s in range(p + 1):
            if f[s] == neg:
                continue
            for c in range(lo, min(hi, p - s) + 1):
                v = f[s] - lgamma(c + 1)
                m = max(g[s + c], v)
                g[s + c] = v if g[s + c] == neg else m + log(exp(g[s + c] - m) + exp(v - m))
        f = g
    prob = exp(f[p] + lgamma(p + 1) - p * log(r))
    assert abs(prob - 0.9983906551465546) < 1e-12

    in_band = 0
    draws = 40
    for seed in range(draws):
        _, truth = gen_pmtc(SimDesign(dims=(200, 200), T=6, ranks=(5, 5), m1=5, seed=seed))
        for m in truth.memberships:
            sizes = m.cluster_sizes
            in_band += int(sizes.min() >= lo and sizes.max() <= hi)
            # balanced-cluster scale ratio stays within the band's implied bound
            assert m.scale().max() / m.scale()[m.scale() > 0].min() <= math.sqrt(hi / lo)
    assert in_band >= int(2 * draws * prob) - 2


def test_imbalanced_weights_respected():
    d = SimDesign(dims=(300, 40), T=6, ranks=(2, 2), m1=2, mu_b=(1.0,),
                  balance=((0.15, 0.85), (0.5, 0.5)), seed=6)
    _, truth = gen_pmtc(d)
    frac = truth.memberships[0].cluster_sizes[0] / 300
    assert 0.05 < frac < 0.30


def test_infeasible_designs_rejected():
    with pytest.raises(InfeasibleDesignError):
        SimDesign(dims=(4, 4), T=5, ranks=(5, 2), m1=2, mu_b=(1.0,))
    with pytest.raises(InfeasibleDesignError):
        SimDesign(dims=(10, 10), T=5, ranks=(2, 2), m1=2, mu_b=(1.0,),
                  balance=((0.5, 0.4), (0.5, 0.5)))
    with pytest.raises(InfeasibleDesignError):
        SimDesign(dims=(10, 10), T=5, ranks=(2, 2), m1=3)  # mu_b length mismatch


_BLOCK_DRAWS = pytest.mark.parametrize("generator, design", [
    (gen_pmtc, SimDesign(dims=(12, 10), T=6, ranks=(2, 2), m1=2, mu_b=(1.0,), seed=3)),
    (gen_tensor_block, BlockDesign(dims=(12, 10, 8), ranks=(2, 2, 2), seed=3)),
], ids=["coupled", "block"])


def _record_attempts(monkeypatch) -> tuple[list, list]:
    """Record the number of each attempt's sub-seed, and the memberships each attempt draws."""
    attempts, drawn = [], []

    def rng_for(seed, attempt, original=simulate._rng_for):
        attempts.append(attempt)
        return original(seed, attempt)

    def draw_memberships(*args, original=simulate._draw_memberships):
        drawn.append(original(*args))
        return drawn[-1]

    monkeypatch.setattr(simulate, "_rng_for", rng_for)
    monkeypatch.setattr(simulate, "_draw_memberships", draw_memberships)
    return attempts, drawn


@_BLOCK_DRAWS
def test_a_zero_core_separation_is_redrawn(monkeypatch, generator, design):
    attempts, drawn = _record_attempts(monkeypatch)
    draws = []

    def first_draw_coincides(core, members, s_y=None):
        """The real statistics, but two mode-1 core rows coincide in the first draw."""
        stats = separations(core, members, s_y)
        draws.append(stats)
        if len(draws) > 1:
            return stats
        return replace(stats, delta_x_sq=(0.0,) + stats.delta_x_sq[1:])

    monkeypatch.setattr(simulate.metrics, "separations", first_draw_coincides)
    truth = generator(design)[1]
    assert len(draws) == 2 and attempts == [0, 1]
    assert truth.memberships is drawn[1]  # the next attempt's draw
    monkeypatch.setattr(simulate.metrics, "separations",
                        lambda *args: replace(draws[0], delta_x_sq=(0.0, 1.0)))
    with pytest.raises(InfeasibleDesignError, match=r"\(last failure: zero separation\)$"):
        generator(design)


@_BLOCK_DRAWS
def test_an_empty_cluster_is_redrawn(monkeypatch, generator, design):
    attempts, drawn = _record_attempts(monkeypatch)
    original = simulate._draw_memberships

    def first_draw_empties_a_cluster(*args):
        """The real memberships, but the first attempt leaves a cluster empty."""
        members = original(*args)
        return None if len(drawn) == 1 else members

    monkeypatch.setattr(simulate, "_draw_memberships", first_draw_empties_a_cluster)
    truth = generator(design)[1]
    assert attempts == [0, 1]
    assert truth.memberships is drawn[1]  # the next attempt's draw
    monkeypatch.setattr(simulate, "_draw_memberships", lambda *args: None)
    with pytest.raises(InfeasibleDesignError, match=r"\(last failure: empty cluster\)$"):
        generator(design)


def test_a_wrong_weight_count_is_refused_naming_the_mode():
    with pytest.raises(InfeasibleDesignError,
                       match=r"^mode 2 has r_2 = 3 clusters but 2 balance weights$"):
        SimDesign(dims=(10, 10), T=5, ranks=(2, 3), m1=2, mu_b=(1.0,),
                  balance=((0.5, 0.5), (0.5, 0.5)))


@pytest.mark.parametrize("design, change, message", [
    pytest.param(SimDesign, {"sigma_x": -1.0}, "sigma_x must be finite and >= 0", id="sim-sigma_x"),
    pytest.param(SimDesign, {"sigma_y": math.nan}, "sigma_y must be finite and >= 0",
                 id="sim-sigma_y"),
    pytest.param(BlockDesign, {"dims": (10, 10), "ranks": (2, 2, 2)}, "equal length",
                 id="block-modes"),
    pytest.param(BlockDesign, {"ranks": (2, 0, 2)}, "1 <= r_i <= p_i", id="block-ranks"),
    pytest.param(BlockDesign, {"sigma": -1.0}, "sigma must be finite and >= 0", id="block-sigma"),
    pytest.param(BlockDesign, {"core_scale": math.inf}, "core_scale must be finite and >= 0",
                 id="block-core_scale"),
    pytest.param(LowRankDesign, {"T": 0}, "dimensions must be positive", id="lowrank-T"),
    pytest.param(LowRankDesign, {"ranks": (60, 5)}, "1 <= r_i <= p_i", id="lowrank-ranks"),
    pytest.param(LowRankDesign, {"sigma_x": -1.0}, "sigma_x must be finite and >= 0",
                 id="lowrank-sigma_x"),
    pytest.param(LowRankDesign, {"c_x": math.inf}, "c_x must be finite and >= 0", id="lowrank-c_x"),
    pytest.param(LowRankDesign, {"c_y": math.nan}, "c_y must be finite and >= 0", id="lowrank-c_y"),
    # finite scales whose squares over the tensor's entries overflow
    pytest.param(SimDesign, {"sigma_x": 1e200}, r"sigma_x = 1e\+200 is above",
                 id="sim-sigma_x-large"),
    pytest.param(SimDesign, {"gamma_x": 100.0}, r"sigma_x \* sqrt\(snr_x\) = inf is above",
                 id="sim-gamma_x-large"),
    pytest.param(SimDesign, {"gamma_y": 65.0}, r"sigma_y \* sqrt\(snr_y\) = 2\.95e\+150 is above",
                 id="sim-gamma_y-large"),
    pytest.param(BlockDesign, {"sigma": 1e200}, r"sigma = 1e\+200 is above",
                 id="block-sigma-large"),
    pytest.param(BlockDesign, {"core_scale": 1e160}, r"core_scale = 1e\+160 is above",
                 id="block-core_scale-large"),
    pytest.param(LowRankDesign, {"c_x": 2e148},
                 r"c_x \* sqrt\(p1 \+ \(prod m\) T\) = 6\.\d+e\+149", id="lowrank-c_x-target"),
    pytest.param(LowRankDesign, {"c_y": 1e149}, r"c_y \* sqrt\(p1 \+ T\) = 9\.\d+e\+149",
                 id="lowrank-c_y-target"),
])
def test_every_design_refuses_shapes_and_scales_no_draw_can_follow(design, change, message):
    with pytest.raises(InfeasibleDesignError, match=message):
        design(**change)


def test_degenerate_draw_retries_deterministically():
    # an all-but-impossible balance still succeeds via redraws when feasible,
    # and the retry path is deterministic
    d = SimDesign(dims=(6, 6), T=4, ranks=(3, 3), m1=2, mu_b=(1.0,), seed=8)
    a, ta = gen_pmtc(d)
    b, tb = gen_pmtc(d)
    assert np.array_equal(a.x, b.x)


def test_tensor_block_model_basic():
    d = BlockDesign(dims=(12,) * 3, ranks=(2,) * 3, sigma=0.0, core_scale=1.0, seed=9)
    x, truth = gen_tensor_block(d)
    assert x.shape == (12, 12, 12)
    g = [m.labels for m in truth.memberships]
    expect = truth.core[g[0]][:, g[1]][:, :, g[2]]
    assert np.array_equal(x, expect)
    assert truth.s_y is None


def test_tensor_block_imbalance():
    d = BlockDesign(dims=(100,) * 3, ranks=(2,) * 3, balance=(0.15, 0.85), seed=10)
    _, truth = gen_tensor_block(d)
    for m in truth.memberships:
        frac = m.cluster_sizes[0] / 100
        assert 0.03 < frac < 0.35


def test_lowrank_generator_hits_spectral_targets():
    d = LowRankDesign(dims=(20, 18), T=12, ranks=(3, 3), c_x=2.0, c_y=3.0, seed=11)
    data, truth = gen_coupled_lowrank(d)
    from pmtc.tensor import matricize

    smallest = min(
        np.linalg.svd(matricize(truth.core, i), compute_uv=False)[-1] for i in range(2)
    )
    assert abs(smallest - 2.0 * math.sqrt(20 + 9 * 12)) < 1e-8
    s_y_min = np.linalg.svd(truth.s_y, compute_uv=False)[-1]
    assert abs(s_y_min - 3.0 * math.sqrt(20 + 12)) < 1e-8
    assert data.x.shape == (20, 18, 12) and data.y.shape == (20, 12)
