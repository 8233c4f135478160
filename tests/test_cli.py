import json

import numpy as np
import pytest

from pmtc import io
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
    assert summary["pchooi_iterations"] == est.pchooi_iterations
    assert summary["pchooi_converged"] is est.pchooi_converged is True
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


def test_factors_observed_without_factors_exits_2(tmp_path, fit_inputs):
    paths = fit_inputs[3]
    argv = ["fit", "--tensor", paths["x.pmtc"], "--returns", paths["returns.csv"],
            "--ranks", "5,5", "--factors-observed", "--out", str(tmp_path / "fit")]
    assert main(argv) == 2


def test_returns_with_wrong_row_count_exits_4(tmp_path, fit_inputs):
    data, paths = fit_inputs[1], fit_inputs[3]
    io.write_matrix_csv(paths["returns.csv"], data.y[:-1])
    assert main(_fit_argv(paths, tmp_path / "fit")) == 4


@pytest.mark.parametrize("damage", ["missing", "bad_magic"])
def test_unreadable_tensor_exits_5(tmp_path, fit_inputs, damage, capsys):
    paths = fit_inputs[3]
    if damage == "missing":
        paths["x.pmtc"] = str(tmp_path / "absent.pmtc")
    else:
        with open(paths["x.pmtc"], "r+b") as fh:
            fh.write(b"NOPE")
    assert main(_fit_argv(paths, tmp_path / "fit")) == 5
    assert _last_line(capsys.readouterr().err).count(paths["x.pmtc"]) == 1


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


def test_manifest_replay_keeps_hash_and_results(tmp_path, capsys):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["simulate", *_TINY, "--out", str(first)]) == 0
    assert main(["simulate", "--config", str(first / "manifest.json"), "--out", str(replay)]) == 0
    a, b = _read_json(first / "manifest.json"), _read_json(replay / "manifest.json")
    assert a["config_hash"] == b["config_hash"]
    assert a["resolved_params"] == b["resolved_params"]
    assert (first / "results.csv").read_bytes() == (replay / "results.csv").read_bytes()
    capsys.readouterr()


def test_ini_config_keeps_key_case_and_matches_json(tmp_path, capsys):
    overrides = {"p1": "20", "p2": "16", "T": "8", "gamma_y_grid": "0.0", "gamma_x_grid": "-0.1"}
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\npreset = figA7\nreplications = 1\n\n[overrides]\n"
                   + "".join(f"{k} = {v}\n" for k, v in overrides.items()))
    js = tmp_path / "run.json"
    js.write_text(json.dumps({"run": {"preset": "figA7", "replications": 1},
                              "overrides": overrides}))
    for config in (ini, js):
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / config.suffix)]
        assert main(argv) == 0
    csv = (tmp_path / ".ini" / "results.csv").read_bytes()
    assert csv == (tmp_path / ".json" / "results.csv").read_bytes()
    assert len(csv.splitlines()) > 1
    capsys.readouterr()


@pytest.mark.parametrize("extra", [
    ["--ranks", "a,b"],
    ["--ranks", "0,5"],
    ["--omega", "-1"],
    ["--omega", "nan"],
    ["--omega", "inf"],
    ["--lloyd-iters", "0"],
    ["--num-factors", "0", "--factors-latent"],
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


@pytest.mark.parametrize("section, key, value", [
    ("run", "replications", "0"),
    ("run", "replications", "x"),
    ("run", "threads", "abc"),
    ("run", "threads", "0"),
    ("run", "seed", "-1"),
    ("overrides", "replications", "0"),
])
def test_invalid_simulate_config_values_exit_2(tmp_path, capsys, section, key, value):
    config = {"run": {"preset": "figA7"},
              "overrides": {"replications": "1", "p1": "20", "p2": "16", "T": "8",
                            "gamma_y_grid": "0.0", "gamma_x_grid": "-0.1"}}
    config[section][key] = value
    ini = tmp_path / "run.ini"
    ini.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in config.items()))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
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
