import hashlib

import pytest

from pmtc.experiments import run_experiment, write_results_csv
from pmtc.presets import PRESET_NAMES, build_preset

_SMALL = {"p1": 20, "p2": 16, "T": 8}
_COUPLED_GRID = {**_SMALL, "gamma_y_grid": "-0.1", "gamma_x_grid": "-0.5,0.1"}
_TINY = {
    "fig1": {**_SMALL, "log_cy_grid": "2.0", "log_cx_grid": "1.0"},
    "fig2": _COUPLED_GRID,
    "figA1": {"scale_grid": "0.2"},
    "figA3": _COUPLED_GRID,
    "figA5": _COUPLED_GRID,
    "figA7": _COUPLED_GRID,
}

# SHA-256 of results.csv of every preset on its tiny grid, one replication.
# Refactors of the generators, the harness or the methods must leave them as
# they are; a change that alters an estimate on purpose re-captures them.
_RESULTS_SHA256 = {
    "fig1": "ff348edd5e5451b2375e4795a0191c761bb9df273d2f506e1fe97e526b59a4a5",
    "fig2": "6a7030f25c6243e4ac9ed05bc734c4f797cc24949afac7e74099d6b36d806c07",
    "figA1": "0d298f939b37d2347da3de9237a81f1ee0b44d8b2f1459117c6fdff90fa57f58",
    "figA3": "c0ec35c8e2b23a66e441be2fc7fdc9ce435154a12e415b4ac8351d048e726856",
    "figA5": "fad5eb8c8b81c513ec49805061e3edb508e9f4ffbdea4a84ea8a9d51d31207ec",
    "figA7": "2e1fa516646fdc9ac377533c6f57c91ee946c8efc936f495ea7ecca456e3dda8",
}


def test_every_preset_has_a_pinned_tiny_grid():
    assert set(_TINY) == set(_RESULTS_SHA256) == set(PRESET_NAMES)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_results_csv_unchanged(tmp_path, name):
    run = build_preset(name, {**_TINY[name], "replications": 1})
    rows = run_experiment(run.tasks, run.methods, run.replications)
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _RESULTS_SHA256[name]
