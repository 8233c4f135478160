"""Monte Carlo harness: run method grids over replicated designs, stream
per-replication metrics to CSV, and aggregate figure-panel tables.

Method names follow the experiment legends:

* clustering:  "Y: SC", "X: HSC+HLloyd", "X: HSC+PMTLloyd", "X+Y: PMTSC",
  "X+Y: PMTSC+HLloyd", "X+Y: PMTSC+PMTLloyd"
* subspace:    "PCHOOI", "HOOI", "SVD-Y"

Replication seeds derive as ``design.seed + replication``; results are
gathered in task/replication order, so output files are byte-identical for
any worker count.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .factors import estimate_latent, estimate_observed, per_asset_loadings
from .pchooi import hooi, pchooi
from .pipeline import cluster, refine
from .pmtsc import spectral_cluster_rows
from .simulate import (
    BlockDesign,
    LowRankDesign,
    SimDesign,
    gen_coupled_lowrank,
    gen_pmtc,
    gen_tensor_block,
)
from .tensor import UnfoldingGrams, lsvd, subspace_distance

__all__ = [
    "CLUSTER_METHODS",
    "SUBSPACE_METHODS",
    "Task",
    "Row",
    "run_experiment",
    "write_results_csv",
    "PanelSpec",
    "write_panels",
]

CLUSTER_METHODS = (
    "Y: SC",
    "X: HSC+HLloyd",
    "X: HSC+PMTLloyd",
    "X+Y: PMTSC",
    "X+Y: PMTSC+HLloyd",
    "X+Y: PMTSC+PMTLloyd",
)
SUBSPACE_METHODS = ("PCHOOI", "HOOI", "SVD-Y")
_COUPLED = {"Y: SC", "X+Y: PMTSC", "X+Y: PMTSC+HLloyd", "X+Y: PMTSC+PMTLloyd"}


@dataclass(frozen=True)
class Task:
    """One grid point: a design plus panel metadata (scenario key and x value)."""

    experiment_id: str
    design: SimDesign | BlockDesign | LowRankDesign
    scenario: str = ""
    x_value: float = 0.0


@dataclass(frozen=True)
class Row:
    experiment_id: str
    method: str
    replication: int
    mode: int
    metric: str
    value: float

    def __post_init__(self):
        # metrics return numpy scalars; a plain float keeps repr() parseable
        object.__setattr__(self, "value", float(self.value))


def _check_methods(methods, task: Task) -> None:
    for m in methods:
        if m not in CLUSTER_METHODS + SUBSPACE_METHODS:
            raise ValueError(f"unknown method name {m!r}")
        if isinstance(task.design, BlockDesign) and m in _COUPLED | set(SUBSPACE_METHODS):
            raise ValueError(f"method {m!r} needs a coupled panel; task {task.experiment_id!r} has none")
        if isinstance(task.design, LowRankDesign) and m not in SUBSPACE_METHODS:
            raise ValueError(f"method {m!r} is a clustering method; task {task.experiment_id!r} is a subspace design")
        if isinstance(task.design, SimDesign) and m in SUBSPACE_METHODS:
            raise ValueError(f"method {m!r} is a subspace method; task {task.experiment_id!r} is a clustering design")


def _loading_rows(rows, task, method, rep, y, m1_hat, truth, num_factors):
    b_obs = estimate_observed(y, m1_hat, truth.f, demean=True).loadings
    err = per_asset_loadings(b_obs, m1_hat) - per_asset_loadings(truth.b, truth.memberships[0])
    rows.append(Row(task.experiment_id, method, rep, 1, "loading_err_observed",
                    float(np.linalg.norm(err))))
    if num_factors <= m1_hat.num_clusters:
        est = estimate_latent(y, m1_hat, num_factors)
        u_hat = lsvd(m1_hat.one_hot() @ est.loadings, num_factors)
        u_true = lsvd(truth.memberships[0].one_hot() @ truth.b, num_factors)
        rows.append(Row(task.experiment_id, method, rep, 1, "loading_err_latent",
                        subspace_distance(u_hat, u_true)))


def _cluster_rows(rows, task, method, rep, init, final, truth, core_rows, s_y):
    for i, m_final in enumerate(final):
        c, _ = metrics.cer(m_final, truth.memberships[i])
        rows.append(Row(task.experiment_id, method, rep, i + 1, "cer", c))
        _, perm0 = metrics.cer(init[i], truth.memberships[i])
        loss = metrics.misclustering_loss(
            m_final, truth.memberships[i], core_rows[i],
            s_y if i == 0 else None, mode=i + 1, perm=perm0,
        )
        rows.append(Row(task.experiment_id, method, rep, i + 1, "loss", loss))


def _method_memberships(x, y, ranks, seed: int, methods) -> dict[str, tuple[list, list]]:
    """Initial and final memberships of every clustering method on one draw.

    Each family is one :func:`pmtc.pipeline.cluster` call: the coupled
    methods with ``omega="auto"``, the ``X: HSC`` methods on the tensor alone.
    A family's ``HLloyd`` variant refines the same warm start with the oblique
    projection and the same coupling weight.  All methods share one set of
    unfolding Grams, so each mode's full-tensor Gram is formed once per draw.
    """
    x = np.ascontiguousarray(x, dtype=float)
    grams = UnfoldingGrams(x)
    xy = hsc = None  # (panel, Clustering)
    if any(m.startswith("X+Y:") for m in methods):
        xy = y, cluster(x, y, ranks, "auto", seed, grams=grams)
    if any(m.startswith("X: HSC") for m in methods):
        hsc = None, cluster(x, None, ranks, 1.0, seed, grams=grams)

    out = {}
    for method in methods:
        if method == "Y: SC":
            m1 = spectral_cluster_rows(y, ranks[0], seed=seed)
            out[method] = [m1], [m1]
            continue
        panel, fit = xy if method.startswith("X+Y:") else hsc
        init, final = fit.start.memberships, fit.final
        if method.endswith("HLloyd"):
            final, _ = refine(x, panel, init, fit.omega, projection="oblique")
        elif method == "X+Y: PMTSC":
            final = init
        out[method] = init, final
    return out


def _run_cluster_task(task: Task, rep: int, methods) -> list[Row]:
    design = replace(task.design, seed=task.design.seed + rep)
    coupled = isinstance(design, SimDesign)
    if coupled:
        data, truth = gen_pmtc(design)
        x, y = data.x, data.y
    else:
        x, truth = gen_tensor_block(design)
        y = None
    ranks = design.ranks
    d = len(ranks)
    core_rows = [metrics.rescaled_core_rows(truth.core, truth.memberships, i + 1)
                 for i in range(d)]

    memberships = _method_memberships(x, y, ranks, design.seed, methods)
    rows: list[Row] = []
    for method in methods:
        init, final = memberships[method]
        _cluster_rows(rows, task, method, rep, init, final, truth, core_rows, truth.s_y)
        if coupled:
            _loading_rows(rows, task, method, rep, y, final[0], truth, design.m1)
    return rows


def _run_subspace_task(task: Task, rep: int, methods) -> list[Row]:
    design = replace(task.design, seed=task.design.seed + rep)
    data, truth = gen_coupled_lowrank(design)
    grams = UnfoldingGrams(data.x)  # PCHOOI and HOOI start from the same Grams
    rows: list[Row] = []
    for method in methods:
        if method == "PCHOOI":
            bases = pchooi(data.x, data.y, design.ranks, grams=grams).bases
        elif method == "HOOI":
            bases = hooi(data.x, design.ranks, grams=grams).bases
        else:  # SVD-Y
            bases = [lsvd(data.y, design.ranks[0])]
        for i, u in enumerate(bases):
            rows.append(Row(task.experiment_id, method, rep, i + 1, "subspace_dist",
                            subspace_distance(u, truth.bases[i])))
    return rows


def _run_one(job) -> list[Row]:
    task, rep, methods = job
    if isinstance(task.design, LowRankDesign):
        return _run_subspace_task(task, rep, methods)
    return _run_cluster_task(task, rep, methods)


def run_experiment(
    tasks: list[Task],
    methods,
    replications: int,
    threads: int = 1,
    progress: bool = False,
) -> list[Row]:
    """Run every method on every task for the given number of replications.

    All methods within a replication share the same draw, so comparisons are
    paired.  ``threads`` sets the worker-process count; results are identical
    for any value.
    """
    methods = tuple(methods)
    for task in tasks:
        _check_methods(methods, task)
    jobs = [(task, rep, methods) for task in tasks for rep in range(replications)]
    rows: list[Row] = []

    def collect(results) -> None:
        for n, chunk in enumerate(results):
            rows.extend(chunk)
            if progress:
                print(f"  completed {n + 1}/{len(jobs)} replication jobs", file=sys.stderr)

    if threads <= 1:
        collect(map(_run_one, jobs))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            collect(pool.map(_run_one, jobs, chunksize=1))
    return rows


def write_results_csv(rows: list[Row], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("experiment_id,method,replication,mode,metric,value\n")
        for r in rows:
            fh.write(
                f"{r.experiment_id},{r.method},{r.replication},{r.mode},{r.metric},{repr(r.value)}\n"
            )


@dataclass(frozen=True)
class PanelSpec:
    """One figure panel: mean ``metric`` at ``mode`` for every task in
    ``scenario``, x-axis named ``x_name``, one column per method."""

    name: str
    scenario: str
    mode: int
    metric: str
    x_name: str


def write_panels(rows, tasks, panels, methods, out_dir) -> list[str]:
    """Aggregate replication rows into one CSV per panel; returns file names."""
    by_key: dict[tuple, list[float]] = {}
    for r in rows:
        by_key.setdefault((r.experiment_id, r.method, r.mode, r.metric), []).append(r.value)
    written = []
    for panel in panels:
        chosen = [t for t in tasks if t.scenario == panel.scenario]
        path = f"{out_dir}/{panel.name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(",".join([panel.x_name] + list(methods)) + "\n")
            for t in chosen:
                cells = [repr(t.x_value)]
                for m in methods:
                    vals = by_key.get((t.experiment_id, m, panel.mode, panel.metric))
                    cells.append("" if not vals else repr(float(np.mean(vals))))
                fh.write(",".join(cells) + "\n")
        written.append(path)
    return written
