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
_TINY = ["--preset", "figA7", "--replications", "1", "--override", "p1=20",
         "--override", "p2=16", "--override", "T=8",
         "--override", "gamma_y_grid=0.0", "--override", "gamma_x_grid=-0.1"]


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


def test_worker_count_does_not_change_results(tmp_path, capsys):
    for threads in ("1", "2"):
        argv = ["simulate", *_TINY, "--threads", threads, "--out", str(tmp_path / threads)]
        assert main(argv) == 0
    one = (tmp_path / "1" / "results.csv").read_bytes()
    assert one == (tmp_path / "2" / "results.csv").read_bytes()
    assert len(one.splitlines()) > 1
    capsys.readouterr()


@pytest.mark.parametrize("blas_threads, cores, pools", [
    ("1", 1, []), ("1", 2, [2]), ("1", 3, [2]),  # _TINY has two jobs, so never more workers
    (None, 2, []), ("2", 2, []),  # workers with OpenBLAS's own threads would contend
])
def test_simulate_defaults_to_one_worker_per_usable_core(monkeypatch, pool_recorder, tmp_path,
                                                          capsys, blas_threads, cores, pools):
    monkeypatch.setattr(cli, "usable_cores", lambda: cores)
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    assert main(["simulate", *_TINY, "--out", str(tmp_path / "default")]) == 0
    assert pool_recorder == pools
    workers = cores if blas_threads == "1" else 1
    assert f"at most {workers} worker(s) (one per usable core" in capsys.readouterr().err
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
    ["--lloyd-iters", "0"],
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
