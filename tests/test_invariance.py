"""Invariances of the whole fit, which hold whatever numbers it produces.

Each case fits ``fit_pmtc`` at the figA7 shape (100 x 100 x 60, ranks
(5, 5)) on fixed seeds, at two cells below the tensor's noise edge and two
above it, under omega=1 and omega="auto":

1. scaling x and y together leaves the memberships bit for bit the same;
2. so does permuting x's time axis and y's columns together;
3. permuting the assets leaves the warm start's mode 2 the same, and the
   refined memberships the same partitions once mapped back where the fit
   is exact.  Elsewhere mode 1 may move: its k-means++ seeding picks rows by
   index, so in the hard regime the warm start depends on asset order, and
   mode 2's Lloyd refinement reads mode 1's memberships;
4. ``tensor_informative`` does not depend on the tensor's scale;
5. through the harness (``experiments._draw_and_fit``, whose helper thread
   sums the Grams of the slabs the draw hands over), scaling both sources
   and permuting the periods leave all six methods' memberships the same;
6. on small random shapes drawn by hypothesis, scaling x and y by 2 leaves
   the memberships bit for bit the same.  Multiplying by 2 is exact in
   binary floating point, so every sum, product and comparison of the fit
   scales exactly.  Scaling by 3 and permuting the periods change rounding,
   and on a tiny draw a near-tie can then flip a label, so those two stay
   fixed-seed cases at the figA7 shape only.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmtc import experiments
from pmtc.membership import Membership
from pmtc.metrics import cer
from pmtc.pchooi import tensor_informative
from pmtc.pipeline import fit_pmtc
from pmtc.simulate import CoupledData, InfeasibleDesignError, SimDesign, gen_pmtc

_BELOW = [(-0.1, -0.5), (-0.3, -0.15)]  # (gamma_y, gamma_x): the tensor is noise
_ABOVE = [(-0.1, 0.1), (-0.3, 0.1)]
_SEEDS = (0, 1, 2)
_OMEGAS = (1.0, "auto")
_PERIODS = np.random.default_rng(7).permutation(60)


def _design(cell, seed):
    gamma_y, gamma_x = cell
    return SimDesign(dims=(100, 100), T=60, gamma_x=gamma_x, gamma_y=gamma_y, seed=seed)


@functools.lru_cache(maxsize=None)
def _draw(cell, seed):
    design = _design(cell, seed)
    data, truth = gen_pmtc(design)
    return data.x, data.y, design.ranks, truth.memberships


@functools.lru_cache(maxsize=None)
def _fit(cell, seed, omega):
    x, y, ranks, _ = _draw(cell, seed)
    return fit_pmtc(x, y, ranks, omega=omega)


@functools.lru_cache(maxsize=None)
def _harness_fit(cell, seed):
    return experiments._draw_and_fit(_design(cell, seed))[2]


def _labels(memberships):
    return [m.labels for m in memberships]


def _same_partition(a, b) -> bool:
    return a.num_clusters == b.num_clusters and cer(a, b)[0] == 0.0


cases = pytest.mark.parametrize("cell", _BELOW + _ABOVE)
omegas = pytest.mark.parametrize("omega", _OMEGAS)


@cases
@omegas
def test_scaling_both_sources_keeps_the_memberships(cell, omega):
    for seed in _SEEDS:
        x, y, ranks, _ = _draw(cell, seed)
        want = _labels(_fit(cell, seed, omega).memberships)
        for c in (2.0, 3.0):
            got = _labels(fit_pmtc(c * x, c * y, ranks, omega=omega).memberships)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (seed, c)


@cases
@omegas
def test_permuting_the_periods_keeps_the_memberships(cell, omega):
    for seed in _SEEDS:
        x, y, ranks, _ = _draw(cell, seed)
        want = _labels(_fit(cell, seed, omega).memberships)
        periods = np.random.default_rng(seed).permutation(x.shape[-1])
        got = _labels(fit_pmtc(x[..., periods], y[:, periods], ranks, omega=omega).memberships)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), seed


@cases
@omegas
def test_permuting_the_assets_keeps_mode_2_and_exact_fits(cell, omega):
    exact = 0
    for seed in _SEEDS:
        x, y, ranks, truth = _draw(cell, seed)
        own = _fit(cell, seed, omega)
        assets = np.random.default_rng(100 + seed).permutation(x.shape[0])
        moved = fit_pmtc(x[assets], y[assets], ranks, omega=omega)
        assert np.array_equal(moved.start.memberships[1].labels, own.start.memberships[1].labels)
        back = np.empty_like(own.memberships[0].labels)
        back[assets] = moved.memberships[0].labels
        mode1 = Membership(back, own.memberships[0].num_clusters)
        if all(cer(m, t)[0] == 0.0 for m, t in zip(own.memberships, truth)):
            exact += 1
            assert _same_partition(mode1, own.memberships[0]), seed
        if _same_partition(mode1, own.memberships[0]):
            assert np.array_equal(moved.memberships[1].labels, own.memberships[1].labels), seed
    if cell in _ABOVE:  # the exact fits the mode-1 check needs
        assert exact == len(_SEEDS)


def test_the_noise_edge_test_ignores_the_tensors_scale():
    verdicts = set()
    for cell in _BELOW + _ABOVE:
        for seed in _SEEDS:
            x, _, ranks, _ = _draw(cell, seed)
            verdict = tensor_informative(x, ranks)
            verdicts.add(verdict)
            for c in (2.0, 3.0):
                assert tensor_informative(c * x, ranks) == verdict, (cell, seed, c)
    assert verdicts == {False, True}  # the cells lie on both sides of the edge


@pytest.mark.parametrize("cell", [_BELOW[0], *_ABOVE])  # (-0.3, 0.1) weighs both sources
@pytest.mark.parametrize("transform", [
    lambda x, y: (2.0 * x, 2.0 * y),
    lambda x, y: (3.0 * x, 3.0 * y),
    lambda x, y: (x[..., _PERIODS], y[:, _PERIODS]),
], ids=["scale-2", "scale-3", "periods"])
def test_the_harness_keeps_every_methods_memberships(monkeypatch, cell, transform):
    def transformed_draw(design, on_slab):
        data, truth = gen_pmtc(design)
        x, y = transform(data.x, data.y)
        for slab in x:  # the helper thread sums the transformed slabs' Grams
            on_slab(slab)
        return CoupledData(x, y), truth

    monkeypatch.setattr(experiments, "gen_pmtc", transformed_draw)
    for seed in _SEEDS:
        want = _harness_fit(cell, seed)
        got = experiments._draw_and_fit(_design(cell, seed))[2]
        assert list(got) == list(want) == list(experiments.CLUSTER_METHODS)
        for method in want:
            assert all(np.array_equal(a, b) for a, b in
                       zip(_labels(got[method]), _labels(want[method]), strict=True)), (seed, method)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p1=st.integers(8, 30), p2=st.integers(6, 20), t=st.integers(4, 16),
    r1=st.integers(2, 3), r2=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1), omega=st.sampled_from(_OMEGAS),
)
def test_doubling_both_sources_keeps_the_memberships_of_small_draws(p1, p2, t, r1, r2, seed,
                                                                    omega):
    design = SimDesign(dims=(p1, p2), T=t, ranks=(r1, r2), seed=seed)
    try:
        data, _ = gen_pmtc(design)
    except InfeasibleDesignError:  # every attempt drew an empty cluster
        assume(False)
    want = _labels(fit_pmtc(data.x, data.y, design.ranks, omega=omega).memberships)
    got = _labels(fit_pmtc(2.0 * data.x, 2.0 * data.y, design.ranks, omega=omega).memberships)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
