import importlib
import math

import numpy as np
import pytest

from pmtc.kmeans import nns
from pmtc.membership import Membership
from pmtc.metrics import cer
from pmtc.pmtlloyd import _plugin_loss, pmtlloyd
from pmtc.pmtsc import pmtsc
from pmtc.simulate import SimDesign, gen_pmtc
from pmtc.tensor import matricize, multi_mode_product


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
        k = 2 * math.ceil(math.log(max(d.dims)))
        final, trace = pmtlloyd(data.x, data.y, init, max_iter=k)
        for i in range(2):
            assert cer(final[i], truth.memberships[i])[0] == 0.0


def test_noiseless_centroids_match_rescaled_centers():
    (data, truth), d = _noiseless(seed=2)
    _, trace = pmtlloyd(data.x, data.y, truth.memberships, max_iter=1)
    lam2 = np.diag(np.sqrt(truth.memberships[1].cluster_sizes.astype(float)))
    expect_x = matricize(np.einsum("abt,bc->act", truth.core, lam2), 0)
    c1 = trace.centroids[0][0]
    assert np.allclose(c1[:, : expect_x.shape[1]], expect_x, atol=1e-10)
    assert np.allclose(c1[:, expect_x.shape[1] :], truth.s_y, atol=1e-10)


def test_mode1_distance_is_sum_of_blocks():
    # the coupled assignment minimizes tensor-block distance plus panel-block
    # distance: recompute both terms separately and compare to the joint rule
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
    joint = nns(np.concatenate([z_x, data.y], axis=1),
                np.concatenate([c_x, s_y], axis=1)).labels
    for j in range(20):
        dists = [
            np.sum((z_x[j] - c_x[a]) ** 2) + np.sum((data.y[j] - s_y[a]) ** 2)
            for a in range(3)
        ]
        assert dists[joint[j]] <= min(dists) + 1e-12


def test_loss_recorded_and_non_increasing_at_moderate_snr():
    d = SimDesign(dims=(40, 30), T=20, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.4, gamma_y=0.3, seed=4)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=4)
    _, trace = pmtlloyd(data.x, data.y, init.memberships, truth=truth.memberships)
    assert len(trace.losses) == trace.iterations_used
    for a, b in zip(trace.losses[:-1], trace.losses[1:]):
        assert b <= a * (1 + 1e-9)
    assert trace.cers is not None and len(trace.cers) == trace.iterations_used


def test_loss_computed_only_when_read(monkeypatch):
    d = SimDesign(dims=(40, 30), T=20, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.4, gamma_y=0.3, seed=4)
    data, _ = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=4)
    calls = []

    def counted(*args):
        calls.append(args)
        return _plugin_loss(*args)

    # the package exports the function under the module's name
    module = importlib.import_module("pmtc.pmtlloyd")
    monkeypatch.setattr(module, "_plugin_loss", counted)
    _, trace = pmtlloyd(data.x, data.y, init.memberships, omega=0.5)
    assert calls == []
    expect = [_plugin_loss(data.x, data.y, m, 0.5) for m in trace.memberships]
    assert trace.losses == expect and len(expect) == trace.iterations_used
    assert trace.losses is trace.losses and len(calls) == trace.iterations_used


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


def test_empty_cluster_init_repaired():
    (data, truth), d = _noiseless(seed=6)
    bad = Membership(np.zeros(d.dims[0], dtype=int), d.ranks[0])  # clusters 1,2 empty
    init = [bad, truth.memberships[1]]
    final, _ = pmtlloyd(data.x, data.y, init, max_iter=8)
    assert final[0].cluster_sizes.min() >= 1


def test_tensor_only_refinement():
    d = SimDesign(dims=(24, 20), T=10, ranks=(3, 2), m1=2, mu_b=(1.0,),
                  sigma_x=0.0, sigma_y=0.0, seed=7)
    data, truth = gen_pmtc(d)
    rng = np.random.default_rng(8)
    init = [_corrupt(m, 0.1, rng) for m in truth.memberships]
    final, _ = pmtlloyd(data.x, None, init)
    for i in range(2):
        assert cer(final[i], truth.memberships[i])[0] == 0.0


def test_trace_csv_export(tmp_path):
    d = SimDesign(dims=(20, 16), T=8, ranks=(2, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.2, gamma_y=0.2, seed=9)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=9)
    _, trace = pmtlloyd(data.x, data.y, init.memberships, truth=truth.memberships)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,mode,cer,loss"
    assert len(lines) == 1 + 2 * trace.iterations_used


def test_validation_errors():
    (data, truth), d = _noiseless(seed=10)
    with pytest.raises(ValueError):
        pmtlloyd(data.x, data.y, truth.memberships, max_iter=0)
    with pytest.raises(ValueError):
        pmtlloyd(data.x, data.y, truth.memberships, projection="sideways")
    with pytest.raises(ValueError):
        pmtlloyd(data.x, data.y[:5], truth.memberships)
    with pytest.raises(ValueError):
        pmtlloyd(data.x, data.y, truth.memberships[:1])


def test_trace_csv_cells_parse_as_floats(tmp_path):
    d = SimDesign(dims=(20, 16), T=8, ranks=(2, 2), m1=2, mu_b=(1.0,),
                  gamma_x=0.0, gamma_y=0.0, seed=4)
    data, truth = gen_pmtc(d)
    init = pmtsc(data.x, data.y, d.ranks, seed=4)
    _, trace = pmtlloyd(data.x, data.y, init.memberships, truth=truth.memberships)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert rows
    for row in rows:
        assert len(row) == 4
        for cell in row:
            assert math.isfinite(float(cell))
