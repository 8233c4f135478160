import importlib

import numpy as np
import pytest

from pmtc import tensor
from pmtc.membership import EmptyClusterError, Membership, expand_blocks
from pmtc.metrics import cer
from pmtc.pmtlloyd import pmtlloyd
from pmtc.pmtsc import pmtsc
from pmtc.simulate import SimDesign, gen_pmtc
from pmtc.tensor import matricize, multi_mode_product

pmtlloyd_module = importlib.import_module("pmtc.pmtlloyd")  # the package exports a function of this name


def _noiseless(seed=0, dims=(30, 24), t=12, ranks=(3, 2)):
    d = SimDesign(dims=dims, T=t, ranks=ranks, m1=2, mu_b=(1.0,),
                  sigma_x=0.0, sigma_y=0.0, seed=seed)
    return gen_pmtc(d), d


def _corrupt(m, frac, rng):
    labels = m.labels.copy()
    idx = rng.choice(labels.size, int(round(frac * labels.size)), replace=False)
    shift = 1 + rng.integers(0, m.num_clusters - 1, idx.size)
    labels[idx] = (labels[idx] + shift) % m.num_clusters
    return Membership(labels, m.num_clusters)


def _capped(monkeypatch, sweeps):
    """Cap every later ``pmtlloyd`` call at ``sweeps`` sweeps, whatever the shape."""
    monkeypatch.setattr(pmtlloyd_module, "_max_sweeps", lambda dims: sweeps)


def test_noiseless_truth_is_fixed_point():
    (data, truth), d = _noiseless()
    final, trace = pmtlloyd(data.x, data.y, truth.memberships)
    assert trace.converged and trace.iterations_used == 1
    for i in range(2):
        assert np.array_equal(final[i].labels, truth.memberships[i].labels)


def test_noiseless_corrupted_init_recovers_exactly():
    rng = np.random.default_rng(1)
    for seed in range(5):
        (data, truth), d = _noiseless(seed=seed)
        init = [_corrupt(m, 0.10, rng) for m in truth.memberships]
        final, trace = pmtlloyd(data.x, data.y, init)  # 2*ceil(log 30) = 8 sweeps at most
        for i in range(2):
            assert cer(final[i], truth.memberships[i])[0] == 0.0


def test_mode1_distance_is_sum_of_blocks(monkeypatch):
    # the coupled assignment minimizes tensor-block distance plus panel-block
    # distance: recompute both terms separately and compare to the first sweep
    d = SimDesign(dims=(20, 16), T=8, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.3, gamma_y=0.3, seed=3)
    data, truth = gen_pmtc(d)
    members = truth.memberships
    w2 = members[1].normalized_basis()
    p1 = members[0].projector()
    proj = multi_mode_product(data.x, {1: w2.T})
    z_x = matricize(proj, 0)
    c_x = p1.T @ z_x
    s_y = p1.T @ data.y
    dists = (np.sum((z_x[:, None] - c_x[None]) ** 2, axis=2)
             + np.sum((data.y[:, None] - s_y[None]) ** 2, axis=2))
    _capped(monkeypatch, 1)
    labels = pmtlloyd(data.x, data.y, members)[0][0].labels
    assert np.all(dists[np.arange(20), labels] <= dists.min(axis=1) + 1e-12)


def _plugin_loss(x, y, members):
    """Coupled plug-in loss at omega=1: tensor and panel residuals from block means."""
    core = multi_mode_product(x, {i: m.projector().T for i, m in enumerate(members)})
    s_y = members[0].projector().T @ y
    return (float(np.sum((x - expand_blocks(core, members)) ** 2))
            + float(np.sum((y - s_y[members[0].labels]) ** 2)))


def test_loss_recorded_and_non_increasing_at_moderate_snr(monkeypatch):
    d = SimDesign(dims=(40, 30), T=20, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.4, gamma_y=0.3, seed=4)
    data, truth = gen_pmtc(d)
    rng = np.random.default_rng(4)
    init = [_corrupt(m, 0.3, rng) for m in truth.memberships]
    _, trace = pmtlloyd(data.x, data.y, init)
    # each sweep uses only the previous one's memberships, so sweep k of the
    # run is the run capped at k sweeps
    losses = [_plugin_loss(data.x, data.y, init)]
    for k in range(1, trace.iterations_used + 1):
        _capped(monkeypatch, k)
        losses.append(_plugin_loss(data.x, data.y, pmtlloyd(data.x, data.y, init)[0]))
    for a, b in zip(losses[:-1], losses[1:]):
        assert b <= a * (1 + 1e-9)
    assert any(b < a for a, b in zip(losses[:-1], losses[1:]))


def test_oblique_variant_differs_only_in_projection():
    # at a single-cluster second mode the normalized basis and the averaging
    # projector coincide up to scale, so both variants assign identically
    d = SimDesign(dims=(20, 12), T=8, ranks=(2, 1), m1=2, mu_b=(1.0,),
                  gamma_x=0.3, gamma_y=0.3, seed=5)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=5)
    a, _ = pmtlloyd(data.x, data.y, init.memberships, projection="orthogonal")
    b, _ = pmtlloyd(data.x, data.y, init.memberships, projection="oblique")
    # mode-1 labels may differ because the oblique x-block is rescaled, but
    # both must remain valid memberships over the same clusters
    assert a[0].num_clusters == b[0].num_clusters == 2


@pytest.mark.parametrize("y_given", [True, False])
def test_projection_is_reused_while_the_other_modes_stay(monkeypatch, y_given):
    # mode 2 starts at the truth and mode 1 is corrupted: sweep 1 moves only
    # mode 1, so sweep 2 re-forms mode 2's projection and reuses mode 1's
    (data, truth), d = _noiseless(seed=0)
    y = data.y if y_given else None
    init = [_corrupt(truth.memberships[0], 0.1, np.random.default_rng(1)), truth.memberships[1]]
    full = []  # mode of every product that reads the whole tensor
    original = tensor.mode_product

    def mode_product(x, mode, u):
        if np.shape(x) == data.x.shape:
            full.append(mode)
        return original(x, mode, u)

    monkeypatch.setattr(tensor, "mode_product", mode_product)
    final, trace = pmtlloyd(data.x, y, init)
    assert (trace.iterations_used, trace.converged) == (2, True)
    assert full == [1, 0, 0]  # 3 passes over the tensor, not 2 per sweep
    # sweep by sweep, each call forms every projection afresh
    members = init
    _capped(monkeypatch, 1)
    for _ in range(trace.iterations_used):
        members, _ = pmtlloyd(data.x, y, members)
    for a, b, t in zip(final, members, truth.memberships):
        assert np.array_equal(a.labels, b.labels) and np.array_equal(a.labels, t.labels)


def test_empty_cluster_init_raises():
    (data, truth), d = _noiseless(seed=6)
    bad = Membership(np.zeros(d.dims[0], dtype=int), d.ranks[0])  # clusters 1,2 empty
    with pytest.raises(EmptyClusterError):
        pmtlloyd(data.x, data.y, [bad, truth.memberships[1]])  # raised in the first sweep


def test_tensor_only_refinement():
    d = SimDesign(dims=(24, 20), T=10, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  sigma_x=0.0, sigma_y=0.0, seed=7)
    data, truth = gen_pmtc(d)
    rng = np.random.default_rng(8)
    init = [_corrupt(m, 0.1, rng) for m in truth.memberships]
    final, _ = pmtlloyd(data.x, None, init)
    for i in range(2):
        assert cer(final[i], truth.memberships[i])[0] == 0.0


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 3)])
def test_modes_of_one_item_each_take_one_sweep(dims):
    # the default budget, 2*ceil(log(max p)), is 0 sweeps when every clustered mode has one item
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((*dims, 6)), rng.standard_normal((dims[0], 6))
    init = [Membership(np.zeros(p, dtype=int), 1) for p in dims]
    final, trace = pmtlloyd(x, y, init)
    assert trace.iterations_used == 1 and trace.converged
    assert all(np.array_equal(a.labels, b.labels) for a, b in zip(final, init))


def test_validation_errors():
    (data, truth), d = _noiseless(seed=10)
    with pytest.raises(ValueError):
        pmtlloyd(data.x, data.y, truth.memberships, projection="sideways")
    with pytest.raises(ValueError):
        pmtlloyd(data.x, data.y[:5], truth.memberships)
    with pytest.raises(ValueError):
        pmtlloyd(data.x, data.y, truth.memberships[:1])

