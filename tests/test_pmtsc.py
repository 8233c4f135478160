import numpy as np
import pytest

from pmtc.kmeans import kmeans_relaxed
from pmtc.membership import Membership
from pmtc.metrics import cer
from pmtc.pmtsc import _mode_seeds, _scores, pmtsc, spectral_cluster_rows
from pmtc.simulate import SimDesign, gen_pmtc
from pmtc.pchooi import coupled_block, pchooi, tensor_informative
from pmtc.tensor import lsvd, matricize, multi_mode_product, unfolding_gram

from test_pchooi import record_products, single_mode_draw, small_draw


def test_noiseless_exact_recovery_all_modes():
    d = SimDesign(dims=(30, 24), T=12, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  sigma_x=0.0, sigma_y=0.0, seed=0)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=0)
    for i in range(2):
        assert cer(init.memberships[i], truth.memberships[i])[0] == 0.0
        assert init.kmeans_objectives[i] < 1e-12


def test_single_cluster_modes_trivial():
    d = SimDesign(dims=(20, 15), T=10, ranks=(1, 1), m1=1, mu_b=(1.0,), seed=1)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=1)
    for m in init.memberships:
        assert m.num_clusters == 1
        assert np.all(m.labels == 0)


def test_deterministic_given_seed():
    d = SimDesign(dims=(24, 20), T=10, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.2, gamma_y=0.2, seed=3)
    data, _ = gen_pmtc(d)
    a = pmtsc(data.x, data.y, d.ranks, seed=9)
    b = pmtsc(data.x, data.y, d.ranks, seed=9)
    for ma, mb in zip(a.memberships, b.memberships):
        assert np.array_equal(ma.labels, mb.labels)


def test_relabeling_invariance_of_quality():
    # output quality is judged through permutation-aligned error only:
    # feeding relabeled truth changes nothing measurable
    d = SimDesign(dims=(24, 20), T=10, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.3, gamma_y=0.3, seed=4)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=4)
    base = cer(init.memberships[0], truth.memberships[0])[0]
    rng = np.random.default_rng(5)
    for _ in range(3):
        perm = rng.permutation(3)
        relabeled = Membership(perm[truth.memberships[0].labels], 3)
        assert cer(init.memberships[0], relabeled)[0] == base


def test_hsc_without_panel():
    d = SimDesign(dims=(30, 24), T=12, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  sigma_x=0.0, sigma_y=0.0, seed=6)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, None, d.ranks, seed=6)
    for i in range(2):
        assert cer(init.memberships[i], truth.memberships[i])[0] == 0.0


def test_spectral_cluster_rows_matches_zero_coupling():
    d = SimDesign(dims=(40, 30), T=20, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=-0.5, gamma_y=0.3, seed=8)
    data, _ = gen_pmtc(d)
    ysc = spectral_cluster_rows(data.y, 3, seed=42)
    coupled = pmtsc(data.x, data.y, d.ranks, seed=42, omega=0.0)
    assert np.array_equal(ysc.labels, coupled.memberships[0].labels)


@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_kmeans_on_scores_matches_full_features(seed, omega):
    # k-means runs on p x r isometric scores; the p x n projected features
    # it replaces must give the same labels and objective
    d = SimDesign(dims=(40, 30), T=20, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=-0.1, gamma_y=0.0, seed=seed)
    data, _ = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=seed, omega=omega)
    bases = pchooi(data.x, data.y, d.ranks, omega=omega).bases
    for i, r in enumerate(d.ranks):
        others = {j: bases[j].T for j in range(2) if j != i}
        z = matricize(multi_mode_product(data.x, others), i)
        if i == 0:  # mode-1 features: the projected tensor block with the panel
            z = coupled_block(z, data.y, omega)
        features = bases[i] @ (bases[i].T @ z)
        full = kmeans_relaxed(features, r, seed=_mode_seeds(seed, 2)[i])
        assert np.array_equal(init.memberships[i].labels, full.membership.labels)
        assert init.kmeans_objectives[i] == pytest.approx(full.objective, rel=1e-9)
    u = lsvd(data.y, 3)
    full = kmeans_relaxed(u @ (u.T @ data.y), 3, seed=_mode_seeds(seed, 1)[0])
    rows = spectral_cluster_rows(data.y, 3, seed=seed)
    assert np.array_equal(rows.labels, full.membership.labels)


@pytest.mark.parametrize("omega", [None, 0.0, 1.0])  # None: HOSC, the tensor alone
def test_shared_grams_change_no_labels(omega):
    x, y, ranks = small_draw()
    y, omega = (None, 1.0) if omega is None else (y, omega)
    grams = {mode: unfolding_gram(x, mode) for mode in range(len(ranks))}
    assert tensor_informative(x, ranks, grams)
    own = pmtsc(x, y, ranks, seed=1, omega=omega)
    shared = pmtsc(x, y, ranks, seed=1, omega=omega, grams=grams)
    for a, b in zip(own.memberships, shared.memberships):
        assert np.array_equal(a.labels, b.labels)
    assert own.kmeans_objectives == shared.kmeans_objectives


@pytest.mark.parametrize("omega, own_products", [(None, 1), (0.0, 0), (1.0, 1)])
def test_warm_start_reuses_the_subspace_fit_projection(monkeypatch, omega, own_products):
    x, y, ranks = small_draw()
    y, omega = (None, 1.0) if omega is None else (y, omega)
    calls = record_products(monkeypatch)
    pchooi(x, y, ranks, omega=omega)
    fit_products = len(calls)
    calls.clear()
    pmtsc(x, y, ranks, seed=1, omega=omega)
    assert all(shape == x.shape for _, shape in calls)
    assert len(calls) - fit_products == own_products


@pytest.mark.parametrize("omega", [0.5, 1.0])
def test_single_clustered_mode_clusters_the_coupled_block(omega):
    # with one clustered mode, mode 1 is also the last: its features must
    # still carry the panel, [sqrt(omega) z, y]
    x, y, ranks = single_mode_draw()
    init = pmtsc(x, y, ranks, seed=4, omega=omega)
    u = pchooi(x, y, ranks, omega=omega).bases[0]
    z = coupled_block(x, y, omega)
    ref = kmeans_relaxed(_scores(u, u.T @ z), ranks[0], seed=_mode_seeds(4, 1)[0])
    assert np.array_equal(init.memberships[0].labels, ref.membership.labels)
    assert init.kmeans_objectives == [ref.objective]
