import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtc.membership import Membership
from pmtc.metrics import (
    cer,
    misclustering_loss,
    rescaled_core_rows,
    separations,
    total_r2,
)


def brute_force_cer(g_hat, g_true, r):
    p = g_hat.size
    best = 1.0
    for perm in itertools.permutations(range(r)):
        perm = np.array(perm)
        best = min(best, float(np.mean(g_hat != perm[g_true])))
    return best


def test_cer_zero_under_relabeling():
    rng = np.random.default_rng(0)
    g = Membership(rng.integers(0, 3, 30), 3)
    for _ in range(5):
        perm = rng.permutation(3)
        value, _ = cer(Membership(perm[g.labels], 3), g)
        assert value == 0.0


def test_cer_single_flip():
    labels = np.array([0] * 5 + [1] * 5)
    flipped = labels.copy()
    flipped[0] = 1
    value, _ = cer(Membership(flipped, 2), Membership(labels, 2))
    assert abs(value - 0.1) < 1e-15


def test_cer_matches_exhaustive_oracle():
    rng = np.random.default_rng(1)
    for trial in range(30):
        g_true = rng.integers(0, 4, 30)
        g_hat = g_true.copy()
        idx = rng.choice(30, rng.integers(0, 15), replace=False)
        g_hat[idx] = rng.integers(0, 4, idx.size)
        a, b = Membership(g_hat, 4), Membership(g_true, 4)
        value, _ = cer(a, b)
        assert abs(value - brute_force_cer(g_hat, g_true, 4)) < 1e-15


def test_cer_matching_above_exhaustive_limit():
    # relabel r = 10 balanced clusters by sigma and move k items, k below half
    # the smallest cluster: sigma is then the unique best matching, at CER k/p
    rng = np.random.default_rng(9)
    p, r = 200, 10
    for trial in range(10):
        g_true = rng.permutation(np.arange(p) % r)
        sigma = rng.permutation(r)
        moved = g_true.copy()
        k = int(rng.integers(0, p // r // 2))
        idx = rng.choice(p, k, replace=False)
        moved[idx] = (moved[idx] + rng.integers(1, r, k)) % r
        value, perm = cer(Membership(sigma[moved], r), Membership(g_true, r))
        assert abs(value - k / p) < 1e-15
        assert np.array_equal(perm, sigma)


def test_cer_perm_direction():
    g_true = Membership(np.array([0, 1, 0, 1]), 2)
    g_hat = Membership(np.array([1, 0])[g_true.labels], 2)
    value, perm = cer(g_hat, g_true)
    assert value == 0.0
    assert np.array_equal(perm[g_true.labels], g_hat.labels)


def test_cer_size_mismatch():
    with pytest.raises(ValueError):
        cer(Membership(np.zeros(3, dtype=int), 1), Membership(np.zeros(4, dtype=int), 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_cer_pseudometric(r, seed):
    rng = np.random.default_rng(seed)
    ms = [Membership(rng.integers(0, r, 20), r) for _ in range(3)]
    d01 = cer(ms[0], ms[1])[0]
    assert abs(d01 - cer(ms[1], ms[0])[0]) < 1e-15
    assert d01 <= cer(ms[0], ms[2])[0] + cer(ms[2], ms[1])[0] + 1e-15
    # invariance to relabeling either argument
    perm = rng.permutation(r)
    assert abs(d01 - cer(Membership(perm[ms[0].labels], r), ms[1])[0]) < 1e-15
    assert abs(d01 - cer(ms[0], Membership(perm[ms[1].labels], r))[0]) < 1e-15


def test_misclustering_loss_trivial_cases():
    g = Membership(np.array([0, 1, 0, 1]), 2)
    rows = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert misclustering_loss(g, g, rows) == 0.0
    g1 = Membership(np.zeros(4, dtype=int), 1)
    assert misclustering_loss(g1, g1, np.zeros((1, 2))) == 0.0


def test_misclustering_loss_direct_sum_oracle():
    rng = np.random.default_rng(2)
    g_true = Membership(rng.integers(0, 3, 12), 3)
    g_hat = Membership(rng.integers(0, 3, 12), 3)
    rows = rng.standard_normal((3, 4))
    s_y = rng.standard_normal((3, 6))
    _, perm = cer(g_hat, g_true)
    expect = 0.0
    for j in range(12):
        a, b = g_hat.labels[j], perm[g_true.labels[j]]
        expect += np.sum((rows[a] - rows[b]) ** 2) + np.sum((s_y[a] - s_y[b]) ** 2)
    expect /= 12
    got = misclustering_loss(g_hat, g_true, rows, s_y, mode=1)
    assert abs(got - expect) < 1e-12
    # other modes ignore the panel term
    got2 = misclustering_loss(g_hat, g_true, rows, s_y, mode=2)
    expect2 = np.mean(
        [np.sum((rows[g_hat.labels[j]] - rows[perm[g_true.labels[j]]]) ** 2) for j in range(12)]
    )
    assert abs(got2 - expect2) < 1e-12


def test_rescaled_core_rows_matches_manual():
    rng = np.random.default_rng(3)
    core = rng.standard_normal((2, 3, 4))
    members = [
        Membership(np.array([0, 1, 0, 1, 1]), 2),
        Membership(np.array([0, 1, 2, 2, 1, 0]), 3),
    ]
    rows = rescaled_core_rows(core, members, 1)
    lam2 = np.diag(np.sqrt(members[1].cluster_sizes.astype(float)))
    manual = core.copy()
    manual = np.einsum("abt,bc->act", manual, lam2)
    from pmtc.tensor import matricize

    assert np.allclose(rows, matricize(manual, 0), atol=1e-12)


def test_separations_pairwise_oracle():
    rng = np.random.default_rng(4)
    core = rng.standard_normal((3, 2, 5))
    members = [
        Membership(rng.integers(0, 3, 12), 3),
        Membership(rng.integers(0, 2, 10), 2),
    ]
    s_y = rng.standard_normal((3, 7))
    stats = separations(core, members, s_y)
    rows1 = rescaled_core_rows(core, members, 1)

    def min_pairwise(m):
        return min(
            float(np.sum((m[a] - m[b]) ** 2))
            for a in range(m.shape[0])
            for b in range(a + 1, m.shape[0])
        )

    assert abs(stats.delta_x_sq[0] - min_pairwise(rows1)) < 1e-12
    assert abs(stats.delta_y_sq - min_pairwise(s_y)) < 1e-12


def test_separations_coupled_inequality():
    rng = np.random.default_rng(5)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        core = rng.standard_normal((3, 3, 4))
        members = [Membership(rng.integers(0, 3, 15), 3), Membership(rng.integers(0, 3, 15), 3)]
        s_y = rng.standard_normal((3, 6))
        stats = separations(core, members, s_y)
        # each pair of mode-1 blocks is apart in the core and in the panel
        joint = np.concatenate([rescaled_core_rows(core, members, 1), s_y], axis=1)
        for a in range(3):
            for b in range(a):
                gap = float(np.sum((joint[a] - joint[b]) ** 2))
                assert gap >= stats.delta_x_sq[0] + stats.delta_y_sq - 1e-12


def test_separations_single_cluster_sentinel():
    core = np.zeros((1, 2, 3))
    members = [Membership(np.zeros(5, dtype=int), 1), Membership(np.array([0, 1, 0]), 2)]
    stats = separations(core, members)
    assert stats.delta_x_sq[0] == math.inf
    assert math.isfinite(stats.delta_x_sq[1])


def test_separations_degenerate_flag():
    core = np.zeros((2, 2, 3))
    members = [Membership(np.array([0, 1, 0]), 2), Membership(np.array([0, 1]), 2)]
    stats = separations(core, members)
    assert 0.0 in stats.delta_x_sq


def _eval_args(rng, p=6, m=2, t=8):
    y = rng.standard_normal((p, t))
    f = rng.standard_normal((m, t))
    mkt = rng.standard_normal(t)
    member = Membership(rng.integers(0, 2, p), 2)
    b = rng.standard_normal((2, m))
    return y, f, mkt, member, b


def test_total_r2_perfect_fit():
    rng = np.random.default_rng(6)
    f = rng.standard_normal((2, 8))
    b = rng.standard_normal((2, 2))
    member = Membership(np.array([0, 1, 0, 1]), 2)
    y = b[member.labels] @ f
    assert total_r2(y, f, rng.standard_normal(8), member, b) == 1.0


def test_total_r2_benchmark_equal_fit():
    rng = np.random.default_rng(7)
    t = 8
    mkt = rng.standard_normal(t)
    f = mkt[np.newaxis, :]
    member = Membership(np.array([0, 1, 0]), 2)
    b = np.ones((2, 1))
    y = rng.standard_normal((3, t))
    assert abs(total_r2(y, f, mkt, member, b)) < 1e-12


def test_total_r2_direct_sum_oracle():
    rng = np.random.default_rng(8)
    y, f, mkt, member, b = _eval_args(rng)
    got = total_r2(y, f, mkt, member, b)
    num = den = 0.0
    for i in range(y.shape[0]):
        for t in range(y.shape[1]):
            fit = float(b[member.labels[i]] @ f[:, t])
            num += (y[i, t] - fit) ** 2
            den += (y[i, t] - mkt[t]) ** 2
    assert abs(got - (1 - num / den)) < 1e-12


@pytest.mark.parametrize("arg, bad", [
    (1, lambda f: f[:, :-1]),  # factors one period short
    (2, lambda mkt: mkt[:-1]),  # market one period short
    (3, lambda m: Membership(np.zeros(m.size + 1, dtype=int), 2)),  # membership too long
    (4, lambda b: b[:, :1]),  # loadings miss a factor
])
def test_total_r2_shape_checks(arg, bad):
    args = list(_eval_args(np.random.default_rng(10)))
    args[arg] = bad(args[arg])
    with pytest.raises(ValueError):
        total_r2(*args)


def test_total_r2_zero_denominator():
    member = Membership(np.array([0]), 1)
    mkt = np.array([1.0, 2.0])
    y = mkt[np.newaxis, :]
    with pytest.raises(ZeroDivisionError):
        total_r2(y, np.ones((1, 2)), mkt, member, np.zeros((1, 1)))
