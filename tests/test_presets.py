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
    "fig1": "0f124db9a1eb5ca0552db60edafde57fdbfe54cd156faf1f67c6d0c7d6ff8d02",
    "fig2": "eff6e26065583f357ac4ed1f4757c4210679c3a7ae0ac70e7ad78449085a4b3d",
    "figA1": "0d298f939b37d2347da3de9237a81f1ee0b44d8b2f1459117c6fdff90fa57f58",
    "figA3": "fab801a1164e5c4eb5d4197f2503b1b96ce48f5ea9472b688aaf6583ca99e235",
    "figA5": "5a0195b607e2744ea7482b6e1f739211eca12c2bbb1b5f84c050435d1a584b07",
    "figA7": "54b29495ab486950dde70d6e3a98033056a59ef22be3e3a7c15471b7a7dc097b",
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
