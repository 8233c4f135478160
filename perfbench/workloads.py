"""The benchmark's workloads: setup, one timed operation, and output checks.

``fig2-lowsnr`` and ``fig2-highsnr`` run one six-method replication of the
fig2 design per operation, through ``presets.build_preset``,
``experiments.run_experiment`` and ``experiments.write_results_csv``.
Operation ``i`` runs replication ``i % min_ops``, whose draw uses seed
``seed + rep`` as in the harness, so a run that outlasts ``min_ops``
operations repeats replications and checks that they reproduce bit for bit.

``fit-file`` runs ``pmtc fit`` in-process through ``cli.main`` on files
written once during setup, and reads every output file back.

All calls go through module attributes (``experiments.run_experiment``, not
an imported name) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
import shutil

import numpy as np

from pmtc import cli, experiments, io, metrics, presets, simulate
from pmtc.factors import per_asset_loadings

PAPER_SHAPE = (200, 200, 120)  # fig2 default design
SMOKE_SHAPE = (100, 100, 60)  # figA7 design, used for warm-up and the self-test

COUPLED = "X+Y: PMTSC+PMTLloyd"
HSC = "X: HSC+PMTLloyd"


class OutputError(Exception):
    """An operation's output is missing, non-finite or does not parse back."""


class _Workload:
    """State shared by the workloads: the run's settings, one output digest
    and one accuracy record per distinct replication."""

    def __init__(self, seed: int, shape, work_dir: str, min_ops: int,
                 limits: dict[str, float]):
        self.seed = seed
        self.shape = shape
        self.work_dir = work_dir
        self.min_ops = min_ops
        self.limits = limits
        self._digests: dict[int, str] = {}
        self._accuracy: dict[int, dict[str, float]] = {}

    def digest(self) -> str:
        return hashlib.sha256("".join(
            self._digests[k] for k in sorted(self._digests)).encode()).hexdigest()

    def accuracy(self) -> dict[str, float]:
        """Mean of each accuracy figure over the distinct replications."""
        if not self._accuracy:
            return {}
        keys = next(iter(self._accuracy.values()))
        return {k: float(np.mean([acc[k] for acc in self._accuracy.values()])) for k in keys}


class Fig2(_Workload):
    """Closed loop over six-method replications of the fig2 design."""

    def __init__(self, gamma_x: float, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gamma_x = gamma_x
        self._keys = None

    def _replicate(self, rep: int, shape, path: str) -> list:
        p1, p2, t = shape
        run = presets.build_preset("fig2", {
            "p1": p1, "p2": p2, "T": t, "seed": self.seed + rep, "replications": 1,
            "gamma_x_grid": str(self.gamma_x), "gamma_y_grid": (),
        })
        rows = experiments.run_experiment(run.tasks, run.methods, run.replications, threads=1)
        experiments.write_results_csv(rows, path)
        return rows

    def setup(self) -> None:
        """Warm-up: one replication at the smoke shape."""
        self._replicate(0, SMOKE_SHAPE, os.path.join(self.work_dir, "warmup.csv"))

    def prepare(self, i: int) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._csv(i))

    def _csv(self, i: int) -> str:
        return os.path.join(self.work_dir, f"results-{i}.csv")

    def op(self, i: int):
        return self._replicate(i % self.min_ops, self.shape, self._csv(i))

    def check(self, i: int, rows) -> int:
        """Validate one operation's rows and results.csv; return the number of
        results.csv cells that ``float()`` cannot parse."""
        values = {(r.method, r.mode, r.metric): float(r.value) for r in rows}
        if not all(math.isfinite(v) for v in values.values()):
            raise OutputError("non-finite metric value")
        if self._keys is None:
            needed = {(m, 1, "cer") for m in experiments.CLUSTER_METHODS}
            needed |= {(COUPLED, 2, "cer"), (COUPLED, 1, "loading_err_observed")}
            missing = needed - values.keys()
            if missing:
                raise OutputError(f"missing rows {sorted(missing)}")
            self._keys = set(values)
        elif set(values) != self._keys:
            raise OutputError("row set differs between replications")
        with open(self._csv(i)) as fh:
            lines = fh.read().splitlines()
        if len(lines) != len(rows) + 1:
            raise OutputError(f"results.csv has {len(lines) - 1} rows, expected {len(rows)}")
        unparseable = 0
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != 6:
                raise OutputError(f"results.csv row has {len(cells)} cells: {line!r}")
            for cell in (cells[2], cells[3], cells[5]):
                try:
                    float(cell)
                except ValueError:
                    unparseable += 1
        digest = hashlib.sha256(repr(sorted(
            (k, v.hex()) for k, v in values.items())).encode()).hexdigest()
        rep = i % self.min_ops
        if self._digests.setdefault(rep, digest) != digest:
            raise OutputError(f"replication {rep} did not reproduce")
        self._accuracy.setdefault(rep, {
            "cer_mode1": values[(COUPLED, 1, "cer")],
            "cer_mode2": values[(COUPLED, 2, "cer")],
            "cer_hsc_mode1": values[(HSC, 1, "cer")],
            "loading_err": values[(COUPLED, 1, "loading_err_observed")],
        })
        return unparseable


class FitFile(_Workload):
    """Closed loop over ``pmtc fit`` calls on one paper-scale draw."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths = self.truth = None

    def _write_inputs(self, shape, tag: str):
        p1, p2, t = shape
        data, truth = simulate.gen_pmtc(simulate.SimDesign(
            dims=(p1, p2), T=t, gamma_x=-0.5, gamma_y=-0.1, seed=self.seed))
        paths = [os.path.join(self.work_dir, f"{tag}-{name}")
                 for name in ("x.pmtc", "returns.csv", "factors.csv")]
        io.write_tensor(paths[0], data.x)
        io.write_matrix_csv(paths[1], data.y)
        io.write_matrix_csv(paths[2], truth.f)
        return paths, truth

    def _fit(self, paths, out_dir: str) -> int:
        argv = ["fit", "--tensor", paths[0], "--returns", paths[1], "--factors", paths[2],
                "--ranks", "5,5", "--out", out_dir]
        sink = _stdio.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def setup(self) -> None:
        """Write the input files, then warm up with one fit at the smoke shape."""
        self.paths, self.truth = self._write_inputs(self.shape, "input")
        warm, _ = self._write_inputs(SMOKE_SHAPE, "warmup")
        self._fit(warm, os.path.join(self.work_dir, "warmup-out"))

    def _out(self, i: int) -> str:
        return os.path.join(self.work_dir, f"fit-{i}")

    def prepare(self, i: int) -> None:
        shutil.rmtree(self._out(i), ignore_errors=True)

    def op(self, i: int) -> int:
        return self._fit(self.paths, self._out(i))

    def check(self, i: int, code: int) -> int:
        """Read every output file back; return 0 (no results.csv is written)."""
        if code != 0:
            raise OutputError(f"pmtc fit exited with code {code}")
        out = self._out(i)
        try:
            m1 = io.read_membership_csv(os.path.join(out, "membership_mode1.csv"))
            m2 = io.read_membership_csv(os.path.join(out, "membership_mode2.csv"))
            loadings = io.read_matrix_csv(os.path.join(out, "loadings.csv"))[:, 1:]
            per_asset = io.read_matrix_csv(os.path.join(out, "loadings_per_asset.csv"))
            for name in ("fit_summary.json", "manifest.json"):
                with open(os.path.join(out, name)) as fh:
                    json.load(fh)
        except (OSError, ValueError) as exc:
            raise OutputError(f"fit output does not parse back: {exc}") from exc
        if not (np.all(np.isfinite(loadings)) and np.all(np.isfinite(per_asset))):
            raise OutputError("non-finite loadings")
        if (m1.size, m2.size) != tuple(self.shape[:2]):
            raise OutputError("membership sizes do not match the tensor")
        # manifest.json records the input paths and library versions, so it is
        # parsed above but left out of the digest.
        h = hashlib.sha256()
        for name in ("membership_mode1.csv", "membership_mode2.csv", "loadings.csv",
                     "loadings_per_asset.csv", "fit_summary.json"):
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
        digest = h.hexdigest()
        if self._digests.setdefault(0, digest) != digest:
            raise OutputError("fit outputs differ between calls on the same input")
        truth = self.truth
        err = per_asset_loadings(loadings, m1) - per_asset_loadings(truth.b, truth.memberships[0])
        self._accuracy.setdefault(0, {
            "cer_mode1": metrics.cer(m1, truth.memberships[0])[0],
            "cer_mode2": metrics.cer(m2, truth.memberships[1])[0],
            "loading_err": float(np.linalg.norm(err)),
        })
        return 0


WORKLOADS = ("fig2-lowsnr", "fig2-highsnr", "fit-file")


def make(name: str, seed: int, shape, work_dir: str):
    """Build a workload.  ``limits`` cap its mean CERs for ``correct``: the
    coupled method recovers mode 1 in both fig2 regimes, and the tensor-only
    path recovers mode 1 above the noise edge; ``pmtc fit`` at omega=1 lets
    the noise-dominated tensor in, so it only has to beat chance clearly
    (about 0.73 here, where mode 2 sits)."""
    if name == "fig2-lowsnr":
        return Fig2(-0.5, seed, shape, work_dir, min_ops=3, limits={"cer_mode1": 0.2})
    if name == "fig2-highsnr":
        return Fig2(0.1, seed, shape, work_dir, min_ops=4,
                    limits={"cer_mode1": 0.2, "cer_mode2": 0.2, "cer_hsc_mode1": 0.2})
    if name == "fit-file":
        return FitFile(seed, shape, work_dir, min_ops=2, limits={"cer_mode1": 0.5})
    raise KeyError(name)
