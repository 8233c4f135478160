import json
import struct

import numpy as np
import pytest

from pmtc import cli, io
from pmtc.cli import main
from pmtc.pipeline import fit_pmtc
from pmtc.simulate import SimDesign, gen_pmtc

# A figA7 grid small enough to run in about a second: one gamma_y and one
# gamma_x point, one replication.
_TINY_OVERRIDES = {"p1": 20, "p2": 16, "T": 8, "gamma_y_grid": "0.0", "gamma_x_grid": "-0.1"}
_TINY = ["--preset", "figA7", "--replications", "1",
         *(arg for key, value in _TINY_OVERRIDES.items()
           for arg in ("--override", f"{key}={value}"))]


@pytest.fixture
def fit_inputs(tmp_path):
    design = SimDesign(dims=(30, 24), T=30, gamma_x=0.1, seed=2)
    data, truth = gen_pmtc(design)
    paths = {name: str(tmp_path / name)
             for name in ("x.pmtc", "returns.csv", "factors.csv", "market.csv")}
    io.write_tensor(paths["x.pmtc"], data.x)
    io.write_matrix_csv(paths["returns.csv"], data.y)
    io.write_matrix_csv(paths["factors.csv"], truth.f)
    io.write_matrix_csv(paths["market.csv"], data.y.mean(axis=0))
    return design, data, truth, paths


def _fit_argv(paths, out):
    return ["fit", "--tensor", paths["x.pmtc"], "--returns", paths["returns.csv"],
            "--factors", paths["factors.csv"], "--ranks", "5,5", "--out", str(out)]


def _eval_argv(paths, estimate, split):
    return ["eval", "--estimate", str(estimate), "--returns", paths["returns.csv"],
            "--factors", paths["factors.csv"], "--market", paths["market.csv"], "--split", split]


def _last_line(err: str) -> str:
    return err.strip().splitlines()[-1]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _tiny_config(path, **overrides):
    """Write a config of the tiny figA7 grid, with ``overrides`` in its overrides section."""
    path.write_text(json.dumps({"run": {"preset": "figA7", "replications": 1},
                                "overrides": {**_TINY_OVERRIDES, **overrides}}))
    return str(path)


def _outputs(out):
    """The bytes of every file simulate wrote to ``out`` but manifest.json, and its
    config_hash: a run's results, whichever spelling of its config asked for it."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    return files, _read_json(out / "manifest.json")["config_hash"]


def test_fit_then_eval_outputs_parse_back(tmp_path, fit_inputs, capsys):
    design, data, truth, paths = fit_inputs
    out = tmp_path / "fit"
    assert main(_fit_argv(paths, out)) == 0
    est = fit_pmtc(data.x, data.y, (5, 5), factors=truth.f)
    for i, m in enumerate(est.memberships):
        back = io.read_membership_csv(out / f"membership_mode{i + 1}.csv")
        assert np.array_equal(back.labels, m.labels)
    loadings = io.read_matrix_csv(out / "loadings.csv")
    assert np.array_equal(loadings[:, 1:], est.factor_estimate.loadings)
    per_asset = io.read_matrix_csv(out / "loadings_per_asset.csv")
    assert per_asset.shape == (30, 2 + design.m1)
    assert np.array_equal(per_asset[:, 2:], est.factor_estimate.loadings[est.memberships[0].labels])
    summary = _read_json(out / "fit_summary.json")
    assert summary["ranks"] == [5, 5] and summary["factor_mode"] == "observed"
    assert summary["pchooi_iterations"] == est.start.pchooi_iterations
    assert summary["pchooi_converged"] is est.start.pchooi_converged is True
    assert 2 <= summary["pchooi_iterations"] < 50
    assert summary["lloyd_sweeps"] == est.lloyd.iterations_used >= 1
    assert summary["lloyd_converged"] is est.lloyd.converged
    assert len(_read_json(out / "manifest.json")["config_hash"]) == 64

    for split in ("index:12", "rolling:10"):
        assert main(_eval_argv(paths, out, split)) == 0
        report = _read_json(out / "eval.json")
        assert np.isfinite(report["ins_r2"]) and np.isfinite(report["oos_r2"])
    assert report["windows"] == 2.0
    capsys.readouterr()



def test_fit_summary_is_pinned(tmp_path, fit_inputs):
    out = tmp_path / "fit"
    assert main(_fit_argv(fit_inputs[3], out)) == 0
    expected = {
        "cluster_sizes": [[6, 5, 6, 7, 6], [7, 8, 4, 3, 2]],
        "factor_mode": "observed",
        "lloyd_converged": True,
        "lloyd_sweeps": 1,
        "num_factors": 5,
        "omega": 1.0,
        "pchooi_converged": True,
        "pchooi_iterations": 3,
        "ranks": [5, 5],
    }
    # byte for byte: the key order, indent and number formats are pinned too
    assert (out / "fit_summary.json").read_text() == json.dumps(expected, indent=2,
                                                                sort_keys=True) + "\n"


@pytest.mark.parametrize("omega", ["auto", "0.5"])
def test_fit_takes_omega_auto_or_a_weight(tmp_path, fit_inputs, omega):
    _, data, truth, paths = fit_inputs
    out = tmp_path / "fit"
    assert main(_fit_argv(paths, out) + ["--omega", omega]) == 0
    weight = omega if omega == "auto" else float(omega)
    est = fit_pmtc(data.x, data.y, (5, 5), factors=truth.f, omega=weight)
    for i, m in enumerate(est.memberships):
        assert np.array_equal(io.read_membership_csv(out / f"membership_mode{i + 1}.csv").labels,
                              m.labels)
    assert _read_json(out / "fit_summary.json")["omega"] == est.start.omega
    assert _read_json(out / "manifest.json")["overrides"]["omega"] == weight


def test_fit_without_factors_fits_latent_factors(tmp_path, fit_inputs):
    _, data, _, paths = fit_inputs
    out = tmp_path / "fit"
    argv = _fit_argv(paths, out)
    del argv[argv.index("--factors"):argv.index("--factors") + 2]
    assert main(argv) == 0
    est = fit_pmtc(data.x, data.y, (5, 5))
    assert est.factor_estimate.mode == "latent"
    assert np.array_equal(io.read_matrix_csv(out / "loadings.csv")[:, 1:],
                          est.factor_estimate.loadings)
    assert _read_json(out / "fit_summary.json")["factor_mode"] == "latent"
    assert _read_json(out / "manifest.json")["overrides"]["factor_mode"] == "latent"


def test_latent_fits_of_different_factor_counts_get_different_hashes(tmp_path, fit_inputs):
    paths = fit_inputs[3]
    manifests, loadings = {}, {}
    for count in (None, "2", "3"):
        out = tmp_path / f"fit-{count}"
        argv = _fit_argv(paths, out)
        del argv[argv.index("--factors"):argv.index("--factors") + 2]
        assert main(argv + ([] if count is None else ["--num-factors", count])) == 0
        manifests[count] = _read_json(out / "manifest.json")
        loadings[count] = (out / "loadings.csv").read_bytes()
    assert loadings["2"] != loadings["3"]
    assert [m["overrides"]["num_factors"] for m in manifests.values()] == [None, 2, 3]
    assert len({m["config_hash"] for m in manifests.values()}) == 3


def test_returns_with_wrong_row_count_exits_4(tmp_path, fit_inputs):
    data, paths = fit_inputs[1], fit_inputs[3]
    io.write_matrix_csv(paths["returns.csv"], data.y[:-1])
    assert main(_fit_argv(paths, tmp_path / "fit")) == 4


@pytest.mark.parametrize("damage", [
    "missing", "bad_magic", "truncated_header", "oversized_dims", "trailing_bytes", "version_1"])
def test_unreadable_tensor_exits_5(tmp_path, fit_inputs, damage, capsys):
    paths = fit_inputs[3]
    if damage == "missing":
        paths["x.pmtc"] = str(tmp_path / "absent.pmtc")
    elif damage == "bad_magic":
        with open(paths["x.pmtc"], "r+b") as fh:
            fh.write(b"NOPE")
    elif damage == "truncated_header":
        with open(paths["x.pmtc"], "wb") as fh:
            fh.write(b"PMTC\x01\x00")
    elif damage == "oversized_dims":
        with open(paths["x.pmtc"], "wb") as fh:
            fh.write(b"PMTC" + struct.pack("<II3Q", 2, 3, 10**6, 10**6, 120) + bytes(64))
    elif damage == "version_1":  # a well-formed container of the column-major layout
        with open(paths["x.pmtc"], "wb") as fh:
            fh.write(b"PMTC" + struct.pack("<II2Q", 1, 2, 3, 4) + bytes(96))
    else:
        with open(paths["x.pmtc"], "ab") as fh:
            fh.write(bytes(8))
    assert main(_fit_argv(paths, tmp_path / "fit")) == 5
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert err.count(paths["x.pmtc"]) == 1
    assert ("README.md" in err) == (damage == "version_1")
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("1,2,3\n4,5\n", "ragged rows (widths [2, 3])"),
], ids=["empty", "ragged"])
def test_empty_or_ragged_returns_exits_5(tmp_path, fit_inputs, capsys, text, message):
    paths = fit_inputs[3]
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    paths["returns.csv"] = str(bad)
    out = tmp_path / "fit"
    assert main(_fit_argv(paths, out)) == 5
    assert capsys.readouterr().err == f"error: cannot parse {bad}: {message}\n"
    assert not out.exists()


def test_fit_with_rank_normalize_writes_both_memberships(tmp_path, fit_inputs):
    out = tmp_path / "fit"
    assert main(_fit_argv(fit_inputs[3], out) + ["--rank-normalize"]) == 0
    for i in (1, 2):
        assert (out / f"membership_mode{i}.csv").is_file()


def test_header_only_returns_exit_5_naming_the_path_once(tmp_path, fit_inputs, capsys):
    paths = fit_inputs[3]
    out = tmp_path / "fit"
    assert main(_fit_argv(paths, out)) == 0
    capsys.readouterr()
    hdr = tmp_path / "hdr.csv"
    hdr.write_text("a,b,c\n")
    paths["returns.csv"] = str(hdr)
    for argv in (_fit_argv(paths, tmp_path / "refit"), _eval_argv(paths, out, "index:12")):
        assert main(argv) == 5
        line = _last_line(capsys.readouterr().err)
        assert line.count(str(hdr)) == 1 and "empty matrix" in line


@pytest.mark.parametrize("command, name, value", [
    ("fit", "x.pmtc", np.nan),
    ("fit", "returns.csv", np.inf),
    ("fit", "factors.csv", np.nan),
    ("eval", "returns.csv", -np.inf),
    ("eval", "factors.csv", np.nan),
    ("eval", "market.csv", np.inf),
])
def test_non_finite_input_exits_5_naming_the_file(tmp_path, fit_inputs, capsys,
                                                  command, name, value):
    _, data, truth, paths = fit_inputs
    out = tmp_path / "fit"
    if command == "eval":
        assert main(_fit_argv(paths, out)) == 0
        capsys.readouterr()
    a = {"x.pmtc": data.x, "returns.csv": data.y, "factors.csv": truth.f,
         "market.csv": np.atleast_2d(data.y.mean(axis=0))}[name].copy()
    index = tuple(n - 1 for n in a.shape[:-1]) + (2,)
    a[index] = value
    (io.write_tensor if name == "x.pmtc" else io.write_matrix_csv)(paths[name], a)
    argv = _fit_argv(paths, out) if command == "fit" else _eval_argv(paths, out, "index:12")
    assert main(argv) == 5
    line = _last_line(capsys.readouterr().err)
    assert line.count(paths[name]) == 1
    assert line.endswith(f"non-finite value at ({', '.join(map(str, index))})")
    assert not (out.exists() if command == "fit" else (out / "eval.json").exists())


def test_removed_preset_in_config_exits_2(tmp_path):
    config = tmp_path / "run.json"  # a tiny grid, should the name ever run again
    config.write_text(json.dumps({
        "run": {"preset": "fig3", "replications": 1},
        "overrides": {"p1": 20, "p2": 16, "T": 8, "gamma_y_grid": "0.0", "gamma_x_grid": "-0.1"},
    }))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


def test_infeasible_design_exits_3_and_unknown_key_exits_2(tmp_path):
    out = str(tmp_path / "out")
    base = ["simulate", "--preset", "figA7", "--out", out, "--override", "p1=20"]
    assert main(base + ["--override", "r1=30"]) == 3
    assert main(base + ["--override", "no_such_key=1"]) == 2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_draw_that_fails_exits_3_from_any_worker(tmp_path, capsys, threads):
    out = tmp_path / "out"
    argv = ["simulate", "--preset", "figA1", "--replications", "1", "--override", "scale_grid=0",
            "--threads", threads, "--out", str(out)]
    assert main(argv) == 3  # with 2, the error crosses from a worker process
    assert _last_line(capsys.readouterr().err) == (
        "error: infeasible design: no valid draw in 100 attempts (last failure: zero separation)")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("extra, code, message", [
    (["--config", "absent.json"], 5, "cannot read config"),
    (["--preset", "figA7", "--override", "p1"], 2, "override 'p1' is not of the form key=value"),
    ([], 2, "no preset given"),
], ids=["missing-config", "override-without-equals", "no-preset"])
def test_simulate_refusals_exit_before_any_output(tmp_path, monkeypatch, capsys, extra, code,
                                                 message):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", *extra, "--out", "out"]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_an_empty_grid_reads_the_same_from_the_command_line_and_a_config(tmp_path, capsys):
    config = _tiny_config(tmp_path / "run.json", gamma_y_grid=[])
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "json")]) == 0
    argv = ["simulate", *_TINY, "--override", "gamma_y_grid=", "--out", str(tmp_path / "flag")]
    assert main(argv) == 0
    files, config_hash = _outputs(tmp_path / "flag")
    assert (files, config_hash) == _outputs(tmp_path / "json")
    assert b"gamma_y=" not in files["results.csv"] and b"gamma_x=" in files["results.csv"]
    capsys.readouterr()


def test_a_json_list_grid_reads_as_its_comma_separated_string(tmp_path, capsys):
    for name, grid in (("list", [-0.1, 0.0]), ("string", "-0.1,0.0")):
        config = _tiny_config(tmp_path / f"{name}.json", gamma_x_grid=grid)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / name)]) == 0
    assert _outputs(tmp_path / "list") == _outputs(tmp_path / "string")
    capsys.readouterr()


def test_an_imbalance_override_reaches_the_draws(tmp_path, capsys):
    weights = "0.1,0.15,0.2,0.25,0.3"
    for name, extra in (("balanced", []), ("imbalanced", ["--override", f"imbalance={weights}"])):
        assert main(["simulate", *_TINY, *extra, "--out", str(tmp_path / name)]) == 0
    resolved = _read_json(tmp_path / "imbalanced" / "manifest.json")["resolved_params"]
    assert resolved["imbalance"] == [0.1, 0.15, 0.2, 0.25, 0.3]
    results = [(tmp_path / name / "results.csv").read_bytes()
               for name in ("balanced", "imbalanced")]
    assert results[0] != results[1]
    capsys.readouterr()


def test_progress_prints_one_line_per_job_and_changes_no_output(tmp_path, capsys):
    errs = {}
    for name, extra in (("quiet", []), ("progress", ["--progress"])):
        assert main(["simulate", *_TINY, *extra, "--out", str(tmp_path / name)]) == 0
        errs[name] = [ln for ln in capsys.readouterr().err.splitlines() if "completed" in ln]
    assert errs == {"quiet": [], "progress": ["  completed 1/2 replication jobs",
                                              "  completed 2/2 replication jobs"]}
    for path in (tmp_path / "quiet").iterdir():
        assert path.read_bytes() == (tmp_path / "progress" / path.name).read_bytes()


def _tiny_fig2_argv(out, **grids):
    """A fig2 run small enough to take about a second, with ``grids`` as its grids."""
    overrides = {"p1": 20, "p2": 16, "T": 8, **grids}
    return ["simulate", "--preset", "fig2", "--replications", "1", "--out", str(out),
            *(arg for key, value in overrides.items() for arg in ("--override", f"{key}={value}"))]


def test_progress_counts_one_job_per_distinct_design(tmp_path, capsys):
    # gamma_y=-0.1 and gamma_x=-0.5 are fig2's base design: three grid points, two designs
    argv = _tiny_fig2_argv(tmp_path / "out", gamma_y_grid="-0.1", gamma_x_grid="-0.5,0.1")
    assert main([*argv, "--progress"]) == 0
    err = capsys.readouterr().err
    assert "3 grid points" in err
    assert [ln for ln in err.splitlines() if "completed" in ln] == [
        "  completed 1/2 replication jobs", "  completed 2/2 replication jobs"]


_EMPTY_GRIDS = {"fig1": ("log_cy_grid", "log_cx_grid"), "fig2": ("gamma_y_grid", "gamma_x_grid"),
                "figA1": ("scale_grid",)}


@pytest.mark.parametrize("preset, config", [
    ("fig2", False), ("fig2", True), ("figA1", False), ("fig1", False),
], ids=["fig2", "fig2-config", "figA1", "fig1"])
def test_a_run_with_no_grid_point_exits_2_before_any_output(tmp_path, capsys, preset, config):
    grids = _EMPTY_GRIDS[preset]
    if config:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"run": {"preset": preset},
                                    "overrides": {grid: [] for grid in grids}}))
        argv = ["simulate", "--config", str(path)]
    else:
        argv = ["simulate", "--preset", preset,
                *(arg for grid in grids for arg in ("--override", f"{grid}="))]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: invalid configuration: preset {preset} has no "
                                       "grid point: every grid it reads is empty\n")
    assert not out.exists()


def test_a_run_with_one_empty_scenario_still_writes_rows(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_tiny_fig2_argv(out, gamma_y_grid="", gamma_x_grid="-0.5")) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) > 1 and all(line.startswith("fig2:gamma_x=-0.5,") for line in lines[1:])
    capsys.readouterr()


def test_worker_count_does_not_change_results(tmp_path, capsys):
    for threads in ("1", "2"):
        argv = ["simulate", *_TINY, "--threads", threads, "--out", str(tmp_path / threads)]
        assert main(argv) == 0
    one = (tmp_path / "1" / "results.csv").read_bytes()
    assert one == (tmp_path / "2" / "results.csv").read_bytes()
    assert len(one.splitlines()) > 1
    capsys.readouterr()


@pytest.mark.parametrize("cores, pools", [
    (1, []), (2, [2]), (3, [2]),  # _TINY has two jobs, so never more workers
])
def test_simulate_defaults_to_one_worker_per_usable_core(monkeypatch, pool_recorder, tmp_path,
                                                          capsys, cores, pools):
    monkeypatch.setattr(cli, "usable_cores", lambda: cores)
    assert main(["simulate", *_TINY, "--out", str(tmp_path / "default")]) == 0
    assert pool_recorder == pools
    assert f"at most {cores} worker(s) (one per usable core)\n" in capsys.readouterr().err
    assert main(["simulate", *_TINY, "--threads", "1", "--out", str(tmp_path / "1")]) == 0
    assert pool_recorder == pools  # one worker runs in this process
    assert "at most 1 worker(s)\n" in capsys.readouterr().err
    for name in ("results.csv", "manifest.json"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_manifest_replay_keeps_hash_and_results(tmp_path, capsys):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["simulate", *_TINY, "--out", str(first)]) == 0
    assert main(["simulate", "--config", str(first / "manifest.json"), "--out", str(replay)]) == 0
    a, b = _read_json(first / "manifest.json"), _read_json(replay / "manifest.json")
    assert a["config_hash"] == b["config_hash"]
    assert a["versions"]["blas_threads"] == b["versions"]["blas_threads"] == 1
    assert a["versions"]["blas"] == b["versions"]["blas"] and a["versions"]["blas"].startswith("OpenBLAS ")
    assert a["resolved_params"] == b["resolved_params"]
    assert (first / "results.csv").read_bytes() == (replay / "results.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("name, text, message", [
    pytest.param("run.json", "[]", "config must be a JSON object", id="top_level_list"),
    pytest.param("run.json", '{"overrides": [1, 2]}',
                 "section 'overrides' must be a JSON object", id="overrides_list"),
    pytest.param("run.json", '{"overrides": "p1=20"}',
                 "section 'overrides' must be a JSON object", id="overrides_string"),
    pytest.param("run.json", '{"run": ["figA7"]}', "section 'run' must be a JSON object",
                 id="run_list"),
    pytest.param("run.ini", "[run]\npreset = figA7\nreplications = 1\n\n[overrides]\np1 = 20\n"
                 "p2 = 16\nT = 8\ngamma_y_grid = 0.0\ngamma_x_grid = -0.1\n",
                 "invalid JSON config", id="ini"),
    pytest.param("run.json", '{"runs": {"preset": "figA7"}}', "unknown config section 'runs'",
                 id="unknown_section"),
])
def test_malformed_config_exits_2(tmp_path, capsys, name, text, message):
    config = tmp_path / name
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ") and message in err
    assert not out.exists()


def test_command_line_beats_the_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "run": {"preset": "figA7", "seed": 3, "replications": 1},
        "overrides": {"seed": 2, "p1": 20, "p2": 16, "T": 8,
                      "gamma_y_grid": "0.0", "gamma_x_grid": "-0.1"},
    }))
    base = ["simulate", "--config", str(config)]
    for name, extra, seed in [("config", [], 3), ("override", ["--override", "seed=5"], 5),
                              ("flag", ["--override", "seed=5", "--seed", "7"], 7)]:
        assert main(base + extra + ["--out", str(tmp_path / name)]) == 0
        manifest = _read_json(tmp_path / name / "manifest.json")
        assert manifest["run"]["seed"] == manifest["resolved_params"]["seed"] == seed, name
    capsys.readouterr()


@pytest.mark.parametrize("preset, override", [
    ("figA1", "sigma=-1"),
    ("figA1", "sigma=nan"),
    ("fig1", "sigma_x=-1"),
    ("fig1", "T=0"),
    ("fig1", "m1=60"),
    ("fig1", "log_cx=1000"),
    ("fig1", "log_cy_grid=nan"),
    ("fig1", "log_cx=400"),  # finite, but the draw's Grams would overflow
    ("figA7", "gamma_x_grid=100"),
    ("figA1", "sigma=1e200"),
    ("fig2", "imbalance=0.5,0.5"),  # positive, sums to 1, but two weights for five clusters
])
def test_invalid_design_override_exits_3_before_any_output(tmp_path, capsys, preset, override):
    out = tmp_path / "out"
    argv = ["simulate", "--preset", preset, "--replications", "1", "--override", override,
            "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: infeasible design: ")
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--ranks", "a,b"],
    ["--ranks", "0,5"],
    ["--omega", "-1"],
    ["--omega", "nan"],
    ["--omega", "inf"],
    ["--num-factors", "0"],
    ["--seed", "-1"],
])
def test_invalid_fit_option_values_exit_2(tmp_path, fit_inputs, capsys, extra):
    out = tmp_path / "fit"
    with pytest.raises(SystemExit) as exc:
        main(_fit_argv(fit_inputs[3], out) + extra)
    assert exc.value.code == 2
    assert f"argument {extra[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--replications", "0"],
    ["--replications", "-1"],
    ["--threads", "0"],
    ["--threads", "abc"],
    ["--seed", "-1"],
])
def test_invalid_simulate_option_values_exit_2(tmp_path, capsys, extra):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *_TINY, "--out", str(out)] + extra)
    assert exc.value.code == 2
    assert f"error: argument {extra[0]}" in _last_line(capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    pytest.param("run", "replications", 0, "replications must be >= 1, got 0",
                 id="run-replications-0"),
    pytest.param("run", "replications", "x", "'x'", id="run-replications-x"),
    pytest.param("run", "threads", "abc", "unknown run key 'threads'", id="run-threads-abc"),
    pytest.param("run", "threads", 0, "unknown run key 'threads'", id="run-threads-0"),
    pytest.param("run", "out", "elsewhere", "unknown run key 'out'", id="run-out-elsewhere"),
    pytest.param("run", "seed", -1, "seed must be >= 0, got -1", id="run-seed--1"),
    pytest.param("run", "seed", 1.5, "'1.5'", id="run-seed-1.5"),
    pytest.param("overrides", "replications", 0, "replications must be >= 1, got 0",
                 id="overrides-replications-0"),
])
def test_invalid_simulate_config_values_exit_2(tmp_path, capsys, section, key, value, message):
    config = {"run": {"preset": "figA7"},
              "overrides": {"replications": 1, "p1": 20, "p2": 16, "T": 8,
                            "gamma_y_grid": "0.0", "gamma_x_grid": "-0.1"}}
    config[section][key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("split", ["index:abc", "index:0", "index", "rolling:abc", "rolling:0",
                                   "rolling:", "month:3"])
def test_malformed_eval_split_exits_2(tmp_path, fit_inputs, capsys, split):
    with pytest.raises(SystemExit) as exc:
        main(_eval_argv(fit_inputs[3], tmp_path, split))
    assert exc.value.code == 2
    assert "error: argument --split" in _last_line(capsys.readouterr().err)


def test_eval_membership_skipping_a_cluster_exits_5(tmp_path, fit_inputs, capsys):
    (tmp_path / "membership_mode1.csv").write_text(
        "id,cluster\n" + "".join(f"{j + 1},{1 + 2 * (j % 2)}\n" for j in range(30)))
    assert main(_eval_argv(fit_inputs[3], tmp_path, "index:12")) == 5
    assert _last_line(capsys.readouterr().err).startswith("error: cannot parse")


@pytest.mark.parametrize("text, message", [
    ("asset,group\n1,1\n2,2\n", "expected an 'id,cluster' membership file"),
    ("id,cluster\n2,1\n1,2\n", "ids must be 1..p in order"),
], ids=["wrong-header", "ids-out-of-order"])
def test_eval_malformed_membership_exits_5(tmp_path, fit_inputs, capsys, text, message):
    (tmp_path / "membership_mode1.csv").write_text(text)
    assert main(_eval_argv(fit_inputs[3], tmp_path, "index:12")) == 5
    assert _last_line(capsys.readouterr().err).endswith(f"membership_mode1.csv: {message}")
    assert not (tmp_path / "eval.json").exists()


def test_eval_header_only_membership_exits_5(tmp_path, fit_inputs, capsys):
    (tmp_path / "membership_mode1.csv").write_text("id,cluster\n")
    assert main(_eval_argv(fit_inputs[3], tmp_path, "index:12")) == 5
    assert "empty membership" in _last_line(capsys.readouterr().err)


def test_eval_membership_shorter_than_the_panel_exits_4(tmp_path, fit_inputs, capsys):
    (tmp_path / "membership_mode1.csv").write_text("id,cluster\n1,1\n2,2\n")
    assert main(_eval_argv(fit_inputs[3], tmp_path, "index:12")) == 4
    assert _last_line(capsys.readouterr().err) == (
        "error: inconsistent inputs: membership length does not match panel rows")


def test_eval_split_beyond_the_panel_exits_4(tmp_path, fit_inputs, capsys):
    design, paths = fit_inputs[0], fit_inputs[3]
    out = tmp_path / "fit"
    assert main(_fit_argv(paths, out)) == 0
    for split in (f"index:{design.T}", f"rolling:{design.T}"):
        assert main(_eval_argv(paths, out, split)) == 4
        assert _last_line(capsys.readouterr().err).startswith("error: inconsistent inputs")


def test_eval_of_a_panel_the_market_explains_exactly_exits_4(tmp_path, fit_inputs, capsys):
    paths = fit_inputs[3]
    market = io.read_matrix_csv(paths["market.csv"])
    io.write_matrix_csv(paths["returns.csv"], np.repeat(market, 6, axis=0))
    (tmp_path / "membership_mode1.csv").write_text(
        "id,cluster\n" + "".join(f"{j + 1},{1 + j % 2}\n" for j in range(6)))
    assert main(_eval_argv(paths, tmp_path, "index:12")) == 4
    assert capsys.readouterr().err == (
        "error: inconsistent inputs: market benchmark explains the panel exactly\n")
    assert not (tmp_path / "eval.json").exists()
