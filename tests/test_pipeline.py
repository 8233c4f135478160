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
from pmtc.pchooi import pchooi
from pmtc.pipeline import cluster, fit_pmtc, rank_normalize
from pmtc.pmtlloyd import pmtlloyd
from pmtc.simulate import SimDesign, gen_pmtc

from test_experiments import _HIGHSNR_MEMBERSHIPS, _LOWSNR_MEMBERSHIPS

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
    assert est.omega == omega


def test_fixed_omega_labels_pinned():
    design, data, truth = _draw(-0.5)
    est = fit_pmtc(data.x, data.y, design.ranks, factors=truth.f, omega=1.0, seed=1)
    assert _labels(est.memberships) == (
        "421401410211242133414344120130102123224041431244304300343432",
        "22113140011240321111214304110000341431013211241114",
    )


def test_zero_omega_skips_refinement():
    design, data, _ = _draw(-0.5)
    fit = cluster(data.x, data.y, design.ranks, "auto", seed=1)
    assert fit.omega == 0.0 and fit.final is fit.start.memberships
    assert fit.lloyd.iterations_used == 0 and fit.lloyd.converged


@pytest.mark.parametrize("omega", [1.0, "auto"])
def test_cluster_holds_no_second_full_size_tensor(omega):
    design = SimDesign(dims=(100, 100), T=60, gamma_x=0.1, seed=5)
    data, _ = gen_pmtc(design)
    tracemalloc.start()
    try:
        fit = cluster(data.x, data.y, design.ranks, omega)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.omega == 1.0 and fit.lloyd.iterations_used >= 1
    assert peak < 0.25 * data.x.nbytes


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


# Run in a fresh interpreter: the test process itself has imported scipy.stats.
_IMPORT_PROBE = """
import sys
import numpy as np
import pmtc, pmtc.cli, pmtc.experiments, pmtc.presets
from pmtc.membership import Membership
from pmtc.metrics import cer

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "optimize"]))

assert not loaded(), loaded()
labels = np.arange(20) % 10
assert cer(Membership(labels, 10), Membership(labels[::-1], 10))[0] == 0.0
assert "scipy.optimize" in sys.modules and "scipy.stats" not in sys.modules, loaded()
"""


def test_importing_the_package_loads_no_scipy_stats_or_optimize():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
