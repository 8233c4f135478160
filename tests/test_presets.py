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
    "fig1": "a8283baac08cf175d56c019e3bb996fef786322210c1d73988d8f1d416fc36eb",
    "fig2": "573058128713e392fc8f7b45f3886cfe08ba81637d83bee8dc14832b07ad7819",
    "figA1": "0d298f939b37d2347da3de9237a81f1ee0b44d8b2f1459117c6fdff90fa57f58",
    "figA3": "28fa2186da7cc739f814ce53a71a363a50e6ffa556e5216ad9b7e641ea5a61a4",
    "figA5": "c82b39bfa7801feb99dfd9828b1a9899dd3033b2b9f304b10ae181dd01142788",
    "figA7": "9774b364d1b0e204fefb69d39c271adbeca254fb877b856a8b1ba1ce0ca1ed58",
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
