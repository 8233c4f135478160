"""Command-line front end.

Subcommands: ``simulate`` (preset experiment grids), ``fit`` (estimate
memberships and loadings on user data), ``eval`` (total R-squared under a
split or rolling scheme).  Each run writes a ``manifest.json`` that can be
fed back through ``--config`` to reproduce it bit-identically, under the
same ``config_hash``.  Each grid preset writes both its clustering-error and
its loading-error panels (Figs 2/3, A3/A4, A5/A6, A7/A8 from ``fig2``,
``figA3``, ``figA5``, ``figA7``).

Exit codes: 2 invalid config or option value, 3 infeasible design, 4 shape
mismatch, 5 an input file that is missing, cannot be parsed, or holds a
non-finite value.  Summary tables go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, io
from .experiments import run_experiment, write_panels, write_results_csv
from .pipeline import evaluate_rolling, evaluate_split, fit_pmtc, rank_normalize
from .presets import PRESET_NAMES, build_preset
from .simulate import InfeasibleDesignError
from .tensor import one_blas_thread, usable_cores

_EXIT_CONFIG = 2
_EXIT_INFEASIBLE = 3
_EXIT_SHAPE = 4
_EXIT_UNREADABLE = 5

_RUN_KEYS = ("preset", "seed", "replications")  # the run section manifest.json writes
_META_KEYS = {"versions", "config_hash", "resolved_params"}
_DEFAULT_THREADS = "one per usable core with OPENBLAS_NUM_THREADS=1, else 1"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(_EXIT_UNREADABLE, f"cannot read config: {exc}")
    except ValueError as exc:  # also an INI file: a config is JSON only
        raise CliError(_EXIT_CONFIG, f"invalid JSON config: {exc}")
    if not isinstance(data, dict):
        raise CliError(_EXIT_CONFIG, "config must be a JSON object")
    for section, value in data.items():
        if section not in {"run", "overrides"} | _META_KEYS:
            raise CliError(_EXIT_CONFIG, f"unknown config section {section!r}")
        if section in ("run", "overrides") and not isinstance(value, dict):
            raise CliError(_EXIT_CONFIG, f"config section {section!r} must be a JSON object")
    for key in data.get("run", {}):
        if key not in _RUN_KEYS:
            raise CliError(_EXIT_CONFIG, f"unknown run key {key!r}")
    return data


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value!r}")
        return n
    return parse


def _ranks(value: str) -> str:
    """A comma-separated list of positive cluster counts, kept as given."""
    for part in value.split(","):
        _int_at_least(1)(part)
    return value


def _omega(value: str) -> float | str:
    if value == "auto":
        return value
    try:
        w = float(value)
    except ValueError:
        w = math.nan
    if not (math.isfinite(w) and w >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0 or 'auto', got {value!r}")
    return w


def _split(value: str) -> str:
    """``index:K`` or ``rolling[:W]`` with K, W >= 1, kept as given."""
    kind, _, n = value.partition(":")
    if value != "rolling":
        if kind not in ("index", "rolling"):
            raise argparse.ArgumentTypeError(f"expected index:K or rolling[:W], got {value!r}")
        _int_at_least(1)(n)
    return value


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(_EXIT_CONFIG, f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _versions() -> dict:
    import scipy

    return {
        "pmtc": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _write_manifest(out_dir: str, run: dict, overrides: dict, resolved: dict,
                    hashed: dict) -> None:
    """Write manifest.json; ``config_hash`` is the digest of ``hashed``."""
    manifest = {"run": run, "overrides": overrides}
    manifest["resolved_params"] = {k: list(v) if isinstance(v, tuple) else v
                                   for k, v in resolved.items()}
    manifest["versions"] = _versions()
    manifest["config_hash"] = hashlib.sha256(
        json.dumps(hashed, sort_keys=True).encode()
    ).hexdigest()
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    config = _read_config(args.config) if args.config else {}
    run_cfg = config.get("run", {})
    flags = {key: getattr(args, key) for key in ("seed", "replications")}
    # later sources win: the config's overrides, its run section, --override, then
    # --seed and --replications; presets._resolve refuses a bad value
    overrides = {**config.get("overrides", {}),
                 **{key: run_cfg[key] for key in flags if key in run_cfg},
                 **_parse_overrides(args.override),
                 **{key: value for key, value in flags.items() if value is not None}}

    preset = args.preset or run_cfg.get("preset")
    if not preset:
        raise CliError(_EXIT_CONFIG, "no preset given (use --preset or a config file)")

    try:
        run = build_preset(preset, overrides)
    except KeyError as exc:
        raise CliError(_EXIT_CONFIG, str(exc.args[0]))
    except InfeasibleDesignError as exc:  # a ValueError, but its own exit code
        raise CliError(_EXIT_INFEASIBLE, f"infeasible design: {exc}")
    except (ValueError, TypeError) as exc:
        raise CliError(_EXIT_CONFIG, f"invalid configuration: {exc}")

    os.makedirs(args.out, exist_ok=True)
    # workers running OpenBLAS's own threads would contend for the cores
    threads = args.threads or (usable_cores() if one_blas_thread() else 1)
    print(f"preset {preset}: {len(run.tasks)} grid points x {run.replications} replications, "
          f"{len(run.methods)} methods, at most {threads} worker(s)"
          f"{'' if args.threads else f' ({_DEFAULT_THREADS})'}", file=sys.stderr)
    rows = run_experiment(run.tasks, run.methods, run.replications,
                          threads=threads, progress=args.progress)
    write_results_csv(rows, os.path.join(args.out, "results.csv"))
    panel_files = write_panels(rows, run.tasks, run.panels, run.methods, args.out)
    # the hash covers what determines the results, so a replay of this
    # manifest (which folds seed and replications into the overrides) keeps it
    _write_manifest(args.out, {"preset": preset, "seed": run.params["seed"],
                              "replications": run.replications},
                    overrides, run.params, {"preset": preset, "params": run.params})

    print(f"preset: {preset}   replications: {run.replications}")
    print("panel,method,mean")
    by_pm: dict[tuple[str, str], list[float]] = {}
    for panel in run.panels:
        ids = {t.experiment_id for t in run.tasks if t.scenario == panel.scenario}
        for r in rows:
            if r.experiment_id in ids and r.metric == panel.metric and r.mode == panel.mode:
                by_pm.setdefault((panel.name, r.method), []).append(r.value)
    for (name, method), vals in sorted(by_pm.items()):
        print(f"{name},{method},{np.mean(vals):.6g}")
    print(f"results: {args.out}/results.csv ({len(rows)} rows), "
          f"{len(panel_files)} panel files, manifest.json", file=sys.stderr)
    return 0


def _load(path, reader):
    """``reader(path)``; a float array must hold finite values only."""
    try:
        data = reader(path)
    except OSError as exc:
        raise CliError(_EXIT_UNREADABLE, f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:
        raise CliError(_EXIT_UNREADABLE, f"cannot parse {path}: {exc}")
    if isinstance(data, np.ndarray) and data.dtype.kind == "f":
        # a NaN or inf makes the sum non-finite (one pass, no full-size
        # temporary); only then, or on overflow, are the entries tested
        with np.errstate(over="ignore", invalid="ignore"):
            total = data.sum()
        if not np.isfinite(total) and not np.isfinite(data).all():
            where = ", ".join(map(str, np.argwhere(~np.isfinite(data))[0]))
            raise CliError(_EXIT_UNREADABLE, f"cannot use {path}: non-finite value at ({where})")
    return data


def _cmd_fit(args) -> int:
    x = _load(args.tensor, io.read_tensor)
    y = _load(args.returns, io.read_matrix_csv)
    factors = _load(args.factors, io.read_matrix_csv) if args.factors else None  # else latent
    ranks = tuple(int(v) for v in args.ranks.split(","))
    if args.rank_normalize:
        x = rank_normalize(x)
    try:
        est = fit_pmtc(
            x, y, ranks,
            factors=factors,
            num_factors=args.num_factors,
            omega=args.omega, seed=args.seed, demean=args.demean == "on",
        )
    except ValueError as exc:
        raise CliError(_EXIT_SHAPE, f"inconsistent inputs: {exc}")

    os.makedirs(args.out, exist_ok=True)
    for i, m in enumerate(est.memberships):
        io.write_membership_csv(os.path.join(args.out, f"membership_mode{i + 1}.csv"), m)
    fe = est.factor_estimate
    io.write_loadings_csv(os.path.join(args.out, "loadings.csv"), fe.loadings)
    io.write_loadings_csv(os.path.join(args.out, "loadings_per_asset.csv"),
                          fe.loadings, est.memberships[0])
    summary = {
        "ranks": list(ranks),
        "omega": est.start.omega,
        "factor_mode": fe.mode,
        "num_factors": fe.num_factors,
        "cluster_sizes": [m.cluster_sizes.tolist() for m in est.memberships],
        "pchooi_iterations": est.start.pchooi_iterations,
        "pchooi_converged": est.start.pchooi_converged,
        "lloyd_sweeps": est.lloyd.iterations_used, "lloyd_converged": est.lloyd.converged,
    }
    with open(os.path.join(args.out, "fit_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    run = {"seed": args.seed}
    overrides = {
        "command": "fit", "tensor": args.tensor, "returns": args.returns,
        "factors": args.factors or "", "num_factors": args.num_factors, "ranks": args.ranks,
        "omega": args.omega, "rank_normalize": bool(args.rank_normalize),
        "factor_mode": fe.mode, "demean": args.demean,
    }
    _write_manifest(args.out, run, overrides, summary, {"run": run, "overrides": overrides})

    print("mode,clusters,sizes")
    for i, m in enumerate(est.memberships):
        print(f"{i + 1},{m.num_clusters},{'|'.join(map(str, m.cluster_sizes))}")
    print(f"wrote estimate bundle to {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    member = _load(os.path.join(args.estimate, "membership_mode1.csv"),
                   io.read_membership_csv)
    y = _load(args.returns, io.read_matrix_csv)
    factors = _load(args.factors, io.read_matrix_csv)
    market = _load(args.market, io.read_matrix_csv).ravel()
    demean = args.demean == "on"
    try:
        kind, _, n = args.split.partition(":")
        if kind == "rolling":
            report = evaluate_rolling(y, factors, market, member, window=int(n or 12),
                                      demean=demean)
        else:
            report = evaluate_split(y, factors, market, member, int(n), demean=demean)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(_EXIT_SHAPE, f"inconsistent inputs: {exc}")

    with open(os.path.join(args.estimate, "eval.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("window,ins_r2_pct,oos_r2_pct")
    print(f"{args.split},{100 * report['ins_r2']:.4f},{100 * report['oos_r2']:.4f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmtc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a preset experiment grid")
    sim.add_argument("--preset", choices=PRESET_NAMES)
    sim.add_argument("--config", help="JSON config (or a previous manifest.json)")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--seed", type=_int_at_least(0))
    sim.add_argument("--replications", type=_int_at_least(1))
    sim.add_argument("--threads", type=_int_at_least(1), help=f"default: {_DEFAULT_THREADS}")
    sim.add_argument("--override", action="append", metavar="KEY=VALUE")
    sim.add_argument("--progress", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit memberships and loadings to data files")
    fit.add_argument("--tensor", required=True, help="binary tensor container")
    fit.add_argument("--returns", required=True, help="p1 x T returns CSV")
    fit.add_argument("--factors", help="m1 x T observed-factor CSV (latent factors without it)")
    fit.add_argument("--ranks", required=True, type=_ranks,
                     help="comma-separated cluster counts r1,r2[,..]")
    fit.add_argument("--num-factors", type=_int_at_least(1))
    fit.add_argument("--omega", type=_omega, default=1.0,
                     help="coupling weight (a finite number >= 0, or 'auto')")
    fit.add_argument("--demean", choices=("on", "off"), default="on")
    fit.add_argument("--rank-normalize", action="store_true",
                     help="cross-sectional rank normalization of the tensor")
    fit.add_argument("--seed", type=_int_at_least(0), default=0)
    fit.add_argument("--out", default="fit_out")
    fit.set_defaults(func=_cmd_fit)

    ev = sub.add_parser("eval", help="total R-squared of an estimate bundle")
    ev.add_argument("--estimate", required=True, help="directory written by fit")
    ev.add_argument("--returns", required=True)
    ev.add_argument("--factors", required=True)
    ev.add_argument("--market", required=True, help="length-T market-excess CSV")
    ev.add_argument("--split", required=True, type=_split, help="index:K or rolling[:window]")
    ev.add_argument("--demean", choices=("on", "off"), default="on")
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InfeasibleDesignError as exc:
        print(f"error: infeasible design: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
