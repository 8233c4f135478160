import ast
import gc
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.stats

import pmtc
from pmtc.factors import estimate_observed
from pmtc.metrics import total_r2
from pmtc.pchooi import pchooi
from pmtc.pipeline import (
    cluster,
    evaluate_rolling,
    evaluate_split,
    fit_pmtc,
    rank_normalize,
    refine,
)
from pmtc.pmtlloyd import pmtlloyd
from pmtc.simulate import SimDesign, gen_pmtc

from test_experiments import _HIGHSNR_MEMBERSHIPS, _LOWSNR_MEMBERSHIPS, _record_formed_grams

_COUPLED = "X+Y: PMTSC+PMTLloyd"


def _labels(members) -> tuple[str, ...]:
    return tuple("".join(map(str, m.labels)) for m in members)


def _draw(gamma_x):
    design = SimDesign(dims=(60, 50), T=30, gamma_x=gamma_x, seed=1)
    return design, *gen_pmtc(design)


@pytest.mark.parametrize("gamma_x, expected, omega", [
    (-0.5, _LOWSNR_MEMBERSHIPS[_COUPLED], 0.0),  # below the noise edge
    (0.1, _HIGHSNR_MEMBERSHIPS[_COUPLED], 1.0),
])
def test_fit_matches_harness_coupled_method(gamma_x, expected, omega):
    design, data, truth = _draw(gamma_x)
    est = fit_pmtc(data.x, data.y, design.ranks, factors=truth.f, omega="auto", seed=1)
    assert _labels(est.memberships) == expected
    assert est.start.omega == omega


def test_fixed_omega_labels_pinned():
    design, data, truth = _draw(-0.5)
    est = fit_pmtc(data.x, data.y, design.ranks, factors=truth.f, omega=1.0, seed=1)
    assert _labels(est.memberships) == (
        "421401410211242133414344120130102123224041431244304300343432",
        "22113140011240321111214304110000341431013211241114",
    )


def test_zero_omega_skips_refinement():
    design, data, _ = _draw(-0.5)
    start = cluster(data.x, data.y, design.ranks, "auto", seed=1)
    final, lloyd = refine(data.x, data.y, start)
    assert start.omega == 0.0 and final is start.memberships
    assert lloyd.iterations_used == 0 and lloyd.converged


def test_without_a_panel_every_weight_refines_the_same_start():
    # without a panel the weight plays no part in the start, nor in Lloyd
    design = SimDesign(dims=(60, 50), T=30, gamma_x=-0.12, seed=2)
    data, _ = gen_pmtc(design)
    starts = [cluster(data.x, None, design.ranks, omega, seed=2) for omega in (0.0, 1.0)]
    assert _labels(starts[0].memberships) == _labels(starts[1].memberships)
    (zero, zero_trace), (one, one_trace) = (refine(data.x, None, s) for s in starts)
    assert _labels(zero) == _labels(one)
    assert zero_trace == one_trace and zero_trace.iterations_used >= 1
    assert _labels(zero) != _labels(starts[0].memberships)  # Lloyd moved a label


@pytest.mark.parametrize("omega", [1.0, "auto"])
def test_cluster_holds_no_second_full_size_tensor(omega):
    design = SimDesign(dims=(100, 100), T=60, gamma_x=0.1, seed=5)
    data, _ = gen_pmtc(design)
    tracemalloc.start()
    try:
        start = cluster(data.x, data.y, design.ranks, omega)
        _, lloyd = refine(data.x, data.y, start)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert start.omega == 1.0 and lloyd.iterations_used >= 1
    assert peak < 0.25 * data.x.nbytes


@pytest.mark.parametrize("omega", [None, 0.0, 1.0])  # None: HOOI on the tensor alone
def test_fit_skips_the_start_its_first_iteration_overwrites(monkeypatch, omega):
    design, data, _ = _draw(-0.5)
    x, y = data.x, data.y
    formed = _record_formed_grams(monkeypatch, design)  # modes of the Grams formed
    solved = []  # sizes of the matrices pchooi solves

    module = importlib.import_module("pmtc.pchooi")  # the package exports a function of this name
    original_top = module.top_eigvecs

    def top_eigvecs(g, rank):
        solved.append(g.shape[0])
        return original_top(g, rank)

    monkeypatch.setattr(module, "top_eigvecs", top_eigvecs)
    p1, p2 = x.shape[:2]
    if omega is None:  # mode 1's start skipped; mode 1 then updates by lsvd
        pchooi(x, None, design.ranks)
        assert formed == [1] and solved == [p2]
    elif omega == 0.0:  # mode 1 is lsvd(y); mode 2's start skipped
        cluster(x, y, design.ranks, omega, seed=1)
        assert formed == [] and solved == []
    else:  # coupled mode 1's start skipped; each iteration solves its coupled Gram
        start = cluster(x, y, design.ranks, omega, seed=1)
        assert formed == [1] and solved == [p2] + [p1] * start.pchooi_iterations


@pytest.mark.parametrize("gamma_x, formed", [(-0.5, [1]), (0.1, [1, 0])])
def test_auto_without_given_grams_forms_each_gram_once(monkeypatch, gamma_x, formed):
    # one pass forms mode 2's Gram for the test and PCHOOI's start; the
    # test forms mode 1's only once mode 2 has passed
    design, data, _ = _draw(gamma_x)
    got = _record_formed_grams(monkeypatch, design)
    start = cluster(data.x, data.y, design.ranks, "auto", seed=1)
    assert got == formed and start.omega == (gamma_x > 0)


def test_estimate_bundle_is_consistent():
    design, data, truth = _draw(0.1)
    est = fit_pmtc(data.x, data.y, design.ranks, factors=truth.f, omega=1.0, seed=1)
    assert est.factor_estimate.mode == "observed"
    expect = estimate_observed(data.y, est.memberships[0], truth.f).loadings
    assert np.array_equal(est.factor_estimate.loadings, expect)
    assert est.factor_estimate.loadings.shape == (5, design.m1)
    latent = fit_pmtc(data.x, data.y, design.ranks, num_factors=2, omega=1.0, seed=1)
    assert latent.factor_estimate.mode == "latent"
    assert latent.factor_estimate.loadings.shape == (5, 2)


def test_zero_latent_factor_count_is_rejected_not_defaulted():
    design, data, _ = _draw(0.1)
    with pytest.raises(ValueError):
        fit_pmtc(data.x, data.y, design.ranks, num_factors=0, omega=1.0, seed=1)


def _evaluation_panel():
    """A 30-period panel with its 5 observed factors, true groups and the
    cross-sectional mean as the market-excess series."""
    design = SimDesign(dims=(30, 20), T=30, gamma_x=0.1, seed=4)
    data, truth = gen_pmtc(design)
    return data.y, truth.f, data.y.mean(axis=0), truth.memberships[0]


def _window_r2(y, f, market, member, train, test, demean):
    """In- and out-of-sample total R-squared of loadings fitted on the ``train`` columns."""
    b = estimate_observed(y[:, train], member, f[:, train], demean=demean).loadings
    return (total_r2(y[:, train], f[:, train], market[train], member, b),
            total_r2(y[:, test], f[:, test], market[test], member, b))


@pytest.mark.parametrize("demean", [True, False])
@pytest.mark.parametrize("split", [15, 29])  # 29 = T - 1 holds out one period
def test_evaluate_split_fits_on_the_first_periods_and_tests_on_the_rest(split, demean):
    y, f, market, member = _evaluation_panel()
    ins, oos = _window_r2(y, f, market, member, range(split), range(split, 30), demean)
    assert evaluate_split(y, f, market, member, split, demean) == {"ins_r2": ins, "oos_r2": oos}


@pytest.mark.parametrize("demean", [True, False])
@pytest.mark.parametrize("window, starts", [
    (8, [0, 8, 16, 24]),  # the last block holds 6 periods
    (10, [0, 10, 20]),
    (29, [0, 29]),  # one window: T - 1 periods, then one held out
])
def test_evaluate_rolling_averages_each_window_tested_on_the_next(window, starts, demean):
    y, f, market, member = _evaluation_panel()
    blocks = [range(s, min(s + window, 30)) for s in starts]
    pairs = [_window_r2(y, f, market, member, a, b, demean) for a, b in zip(blocks, blocks[1:])]
    report = evaluate_rolling(y, f, market, member, window, demean)
    assert report == {"ins_r2": float(np.mean([p[0] for p in pairs])),
                      "oos_r2": float(np.mean([p[1] for p in pairs])),
                      "windows": float(len(blocks) - 1)}


@pytest.mark.parametrize("n", [-1, 0, 30, 31])
def test_split_and_window_outside_the_periods_are_refused(n):
    y, f, market, member = _evaluation_panel()
    with pytest.raises(ValueError, match="must lie in \\[1, 29\\]"):
        evaluate_split(y, f, market, member, n)
    with pytest.raises(ValueError, match="must lie in \\[1, 29\\]"):
        evaluate_rolling(y, f, market, member, n)


def test_fit_results_do_not_keep_the_input_tensor_alive():
    design = SimDesign(dims=(20, 16), T=8, ranks=(3, 2), m1=2, mu_b=(1.0,), seed=3)
    data, truth = gen_pmtc(design)
    x = data.x.copy()
    assert x.flags.c_contiguous and x.dtype == float
    ref = weakref.ref(x)
    results = [pchooi(x, data.y, design.ranks), pmtlloyd(x, data.y, truth.memberships)]
    del x
    gc.collect()
    assert ref() is None, "a fit result still refers to its input tensor"
    assert results[0].bases and results[1][1].iterations_used >= 1


def test_every_exported_name_resolves():
    for name in pmtc.__all__:
        assert hasattr(pmtc, name), name
    for info in pkgutil.iter_modules(pmtc.__path__):
        module = importlib.import_module(f"pmtc.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"pmtc.{info.name}.{name}"


def test_no_module_imports_a_name_it_never_uses():
    # the package's modules and these tests; __init__.py imports names to
    # re-export them, so it is left out
    directories = (pathlib.Path(pmtc.__path__[0]), pathlib.Path(__file__).parent)
    for path in sorted(p for d in directories for p in d.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


def test_rank_normalize_matches_average_ranks_with_ties():
    x = np.random.default_rng(5).integers(0, 4, size=(7, 3, 4)).astype(float)
    p1 = x.shape[0]
    expect = (scipy.stats.rankdata(x, "average", axis=0) - 1) / (p1 - 1)
    assert np.array_equal(rank_normalize(x), expect)
    assert np.array_equal(rank_normalize(np.full((1, 3, 2), 7.0)), np.zeros((1, 3, 2)))


# Run in a fresh interpreter: the test process itself has imported scipy.stats
# and multiprocessing.
_IMPORT_PROBE = """
import sys
import numpy as np
import pmtc, pmtc.experiments, pmtc.presets
from pmtc.membership import Membership
from pmtc.metrics import cer
from pmtc.pipeline import fit_pmtc
from pmtc.presets import build_preset
from pmtc.simulate import SimDesign, gen_pmtc

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "stats"], ["scipy", "optimize"]))

def pool_loaded():  # subprocess is not among them: `import scipy` loads it
    return sorted(m for m in sys.modules if m.lstrip("_").startswith(("multiprocessing", "socket"))
                  or m in ("__mp_main__", "concurrent.futures.process"))

def scipy_loaded():  # any module of SciPy's, or its OpenBLAS
    with open("/proc/self/maps") as maps:
        blas = ["libscipy_openblas-"] if "libscipy_openblas-" in maps.read() else []
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy") + blas

assert not scipy_loaded(), scipy_loaded()
assert not pool_loaded(), pool_loaded()
# every spectral step runs LAPACK on numpy's OpenBLAS, without SciPy: a fit, and a coupled harness job
design = SimDesign(dims=(60, 50), T=30, gamma_x=0.1, seed=1)
data, truth = gen_pmtc(design)
fit_pmtc(data.x, data.y, design.ranks, factors=truth.f, omega="auto")
assert not pool_loaded(), pool_loaded()
pmtc.experiments._run_one((design, 0))
assert not scipy_loaded(), scipy_loaded()
assert "subprocess" not in sys.modules  # which `import scipy` loads
assert not pool_loaded(), pool_loaded()
import pmtc.cli  # imports the top-level scipy package, for the manifest's versions
assert not loaded(), loaded()
# only a run that starts a process pool loads one
run = build_preset("fig2", {"p1": 20, "p2": 16, "T": 8, "gamma_y_grid": "-0.1",
                            "gamma_x_grid": "-0.5,0.1", "replications": 1})
one = pmtc.experiments.run_experiment(run.tasks, run.methods, 1, threads=1)
assert not loaded(), loaded()
assert not pool_loaded(), pool_loaded()
assert pmtc.experiments.run_experiment(run.tasks, run.methods, 1, threads=2) == one
assert {"multiprocessing", "concurrent.futures.process", "socket"} <= set(pool_loaded())
labels = np.arange(20) % 10
assert cer(Membership(labels, 10), Membership(labels[::-1], 10))[0] == 0.0
assert "scipy.optimize" in sys.modules and "scipy.stats" not in sys.modules, loaded()
"""


def test_importing_fitting_and_one_process_runs_load_no_pool_or_scipy_linalg_stats_optimize():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
