import concurrent.futures
import functools
import hashlib
from collections import defaultdict

import numpy as np
import pytest

from pmtc import experiments
from pmtc.experiments import run_experiment, write_panels, write_results_csv
from pmtc.presets import PRESET_NAMES, build_preset

_SMALL = {"p1": 20, "p2": 16, "T": 8}
_COUPLED_GRID = {**_SMALL, "gamma_y_grid": "-0.1", "gamma_x_grid": "-0.5,0.1"}
_TINY = {
    "fig1": {**_SMALL, "log_cy_grid": "2.0", "log_cx_grid": "0.5"},
    "fig2": _COUPLED_GRID,
    "figA1": {"scale_grid": "0.2"},
    "figA3": _COUPLED_GRID,
    "figA5": _COUPLED_GRID,
    "figA7": _COUPLED_GRID,
}

# SHA-256 of results.csv of every preset on its tiny grid, one replication.
# Refactors of the generators, the harness or the methods must leave them as
# they are; a change that alters an estimate or the set of rows on purpose
# re-captures them.
_RESULTS_SHA256 = {
    "fig1": "7f56982691712e4e25ed39a3479f2b376f7bd30206bfa1ea229942131f27ec91",
    "fig2": "708c0ccff128b539dfec5f9bafa2cdd149e830b96e96e0c954727dc04f9d76b9",
    "figA1": "24f74bc6c0acc9f4bc6201822d556eec7481248ceaa3e84058008b96f83cf396",
    "figA3": "04f70a4cbe7460100bceb6935975c129ed3c1cca4917bd24a34960d3dc40aa38",
    "figA5": "9f81392e6459381a1fa6b1f3ae6f56319f7b6c05b7e086f531e27dcd22e2adc7",
    "figA7": "9ddf3d4f4db4f177784558a1ace434fda90a031084a8938f2d09455a3f647cad",
}


@functools.cache
def _tiny_run(name, replications=1):
    """A preset on its tiny grid and the rows of its run, shared by the tests."""
    run = build_preset(name, {**_TINY[name], "replications": replications})
    return run, run_experiment(run.tasks, run.methods, run.replications)


def test_every_preset_has_a_pinned_tiny_grid():
    assert set(_TINY) == set(_RESULTS_SHA256) == set(PRESET_NAMES)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_results_csv_unchanged(tmp_path, name):
    rows = _tiny_run(name)[1]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _RESULTS_SHA256[name]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_metric_a_preset_writes_is_read_by_a_panel(name):
    run, rows = _tiny_run(name)
    assert {r.metric for r in rows} == {panel.metric for panel in run.panels}


def test_panel_csvs_hold_the_mean_of_their_rows(tmp_path):
    run, rows = _tiny_run("fig2", replications=2)
    paths = write_panels(rows, run.tasks, run.panels, run.methods, tmp_path)
    assert len(paths) == len(run.panels)
    empty = 0
    for panel, path in zip(run.panels, paths):
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join([panel.x_name, *run.methods])
        tasks = [t for t in run.tasks if t.scenario == panel.scenario]
        assert len(lines) == 1 + len(tasks) > 1
        for task, line in zip(tasks, lines[1:]):
            cells = line.split(",")
            assert float(cells[0]) == task.x_value and len(cells) == 1 + len(run.methods)
            for method, cell in zip(run.methods, cells[1:]):
                vals = [r.value for r in rows if (r.experiment_id, r.method, r.mode, r.metric)
                        == (task.experiment_id, method, panel.mode, panel.metric)]
                if vals:
                    assert float(cell) == float(np.mean(vals))
                else:
                    assert cell == ""
                    empty += 1
    assert empty > 0  # Y: SC clusters mode 1 only, so the mode-2 panels leave its cells empty


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_results_csv_unchanged_through_a_two_worker_pool(tmp_path, monkeypatch, name):
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    run = build_preset(name, {**_TINY[name], "replications": 1})
    path = tmp_path / "results.csv"
    write_results_csv(run_experiment(run.tasks, run.methods, run.replications, threads=2), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _RESULTS_SHA256[name]
    assert started == [2]  # every tiny grid holds two or more distinct designs


@pytest.mark.parametrize("name, jobs", [
    ("fig1", 17), ("fig2", 20), ("figA1", 28), ("figA3", 24), ("figA5", 22), ("figA7", 20),
])
def test_a_preset_submits_one_job_per_distinct_design_and_replication(monkeypatch, name, jobs):
    submitted = []
    monkeypatch.setattr(experiments, "_run_one",
                        lambda job: submitted.append(job) or defaultdict(list))
    run = build_preset(name, {"replications": 2})
    assert run_experiment(run.tasks, run.methods, run.replications) == []
    assert len(submitted) == len(set(submitted)) == 2 * jobs


def test_a_design_two_tasks_share_is_drawn_once_and_written_under_both_ids(monkeypatch):
    drawn = []
    original = experiments._draw_and_fit

    def draw_and_fit(design):
        drawn.append(design)
        return original(design)

    monkeypatch.setattr(experiments, "_draw_and_fit", draw_and_fit)
    # gamma_y=-0.1 and gamma_x=-0.5 are the preset's base design, so both scenarios hold it
    run = build_preset("fig2", {**_TINY["fig2"], "replications": 2})
    rows = run_experiment(run.tasks, run.methods, run.replications)
    assert len(drawn) == len(set(drawn)) == 4
    shared = [[(r.method, r.replication, r.mode, r.metric, r.value)
               for r in rows if r.experiment_id == f"fig2:{key}"]
              for key in ("gamma_y=-0.1", "gamma_x=-0.5")]
    assert shared[0] == shared[1] and shared[0]
