"""Monte Carlo harness: run method grids over replicated designs, stream
per-replication metrics to CSV, and aggregate figure-panel tables.

Method names follow the experiment legends:

* clustering:  "Y: SC", "X: HSC+HLloyd", "X: HSC+PMTLloyd", "X+Y: PMTSC",
  "X+Y: PMTSC+HLloyd", "X+Y: PMTSC+PMTLloyd"
* subspace:    "PCHOOI", "HOOI", "SVD-Y"

A replication writes only what the figure panels plot: ``cer`` per mode,
``loading_err_observed`` and ``loading_err_latent`` (coupled designs), or
``subspace_dist`` per mode (subspace methods).

Replication seeds derive as ``design.seed + replication``; results are
gathered in task/replication order, so output files are byte-identical for
any worker count.  ``DESIGN_METHODS`` holds the methods each kind of design
supports.  A clustering draw fits all of them, whichever ``methods`` a run
asks for, on the calling thread, one helper thread and the process's
kernel thread (``_draw_and_fit``); no thread changes an output.
"""

from __future__ import annotations

import queue
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
from .tensor import lsvd, sharing_cores, slab_grams, subspace_distance

__all__ = [
    "CLUSTER_METHODS",
    "SUBSPACE_METHODS",
    "DESIGN_METHODS",
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
# the methods each kind of design supports: a block draw has no panel
DESIGN_METHODS = {
    SimDesign: CLUSTER_METHODS,
    BlockDesign: ("X: HSC+HLloyd", "X: HSC+PMTLloyd"),
    LowRankDesign: SUBSPACE_METHODS,
}


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


def _cluster_rows(rows, task, method, rep, final, truth):
    for i, m_final in enumerate(final):
        c, _ = metrics.cer(m_final, truth.memberships[i])
        rows.append(Row(task.experiment_id, method, rep, i + 1, "cer", c))


def _draw_and_fit(design: SimDesign | BlockDesign, methods):
    """Draw one replication of ``design`` and fit every clustering method it
    supports; return the draw, its ground truth, and the final memberships
    of each of ``methods``, in their order.

    Each family has one warm start, a :func:`pmtc.pipeline.cluster` call: the
    coupled methods with ``omega="auto"`` (a coupled design's), the
    ``X: HSC`` methods on the tensor alone.  Each Lloyd method is one
    :func:`pmtc.pipeline.refine` of its family's start, with the oblique
    projection for ``HLloyd`` and the orthogonal one for ``PMTLloyd``.
    When ``auto`` drops the tensor (omega=0), the coupled mode-1 warm start
    is ``Y: SC``'s estimate by construction, so ``Y: SC`` takes it.

    One helper thread serves the whole draw, in two phases.  While this
    thread draws the tensor one mode-1 slab at a time, the helper sums the
    unfolding Grams of clustered modes 2, 3, ... (the ones a spectral start
    or ``auto``'s test reads first) from the finished slabs (see
    :func:`pmtc.tensor.slab_grams`).  Then the helper fits the coupled family
    while this thread fits ``X: HSC`` (the BLAS and LAPACK kernels release
    the GIL).  Both run inside :func:`pmtc.tensor.sharing_cores`, so while
    both run they keep their mode products whole, and the one left running
    splits its full-size products with the process's kernel thread.  Both
    families read the streamed Grams and only ``auto``'s test forms mode
    1's, so each mode's full-tensor Gram is formed at most once per draw.
    The streamed Grams are the same sums in the same order as when formed
    after the draw, and each family makes the same calls on the same inputs
    as it would alone, so the memberships are the same bit for bit either
    way.  The helper has finished when this returns or raises, so only the
    kernel thread, idle, outlives the call.
    """
    coupled = isinstance(design, SimDesign)
    slabs = queue.SimpleQueue()

    def handed_over():
        while (slab := slabs.get()) is not None:
            yield slab

    def family(panel, omega, name):
        """The warm start named ``name``, and the memberships of it and its refinements."""
        with sharing_cores():
            start = cluster(x, panel, design.ranks, omega, design.seed, grams=grams)
            return start, {
                name: start.memberships,
                f"{name}+HLloyd": refine(x, panel, start, projection="oblique")[0],
                f"{name}+PMTLloyd": refine(x, panel, start, projection="orthogonal")[0],
            }

    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(slab_grams, handed_over(), range(1, len(design.ranks)))
        try:
            data, truth = (gen_pmtc if coupled else gen_tensor_block)(design, on_slab=slabs.put)
        finally:
            slabs.put(None)  # the end of the stream, also when the draw raised
        x, y = (data.x, data.y) if coupled else (data, None)
        grams = pending.result()
        if coupled:
            pending = helper.submit(family, y, "auto", "X+Y: PMTSC")
        fitted = family(None, 1.0, "X: HSC")[1]
        if coupled:
            start, fitted_xy = pending.result()
            fitted.update(fitted_xy)
            fitted["Y: SC"] = [start.memberships[0] if start.omega == 0.0
                               else spectral_cluster_rows(y, design.ranks[0], seed=design.seed)]
    return data, truth, {m: fitted[m] for m in methods}


def _run_cluster_task(task: Task, rep: int, methods) -> list[Row]:
    """Draw one replication of ``task`` and score ``methods`` on it."""
    design = replace(task.design, seed=task.design.seed + rep)
    data, truth, fitted = _draw_and_fit(design, methods)
    rows: list[Row] = []
    for method, final in fitted.items():
        _cluster_rows(rows, task, method, rep, final, truth)
        if isinstance(design, SimDesign):
            _loading_rows(rows, task, method, rep, data.y, final[0], truth, design.m1)
    return rows


def _run_subspace_task(task: Task, rep: int, methods) -> list[Row]:
    design = replace(task.design, seed=task.design.seed + rep)
    data, truth = gen_coupled_lowrank(design)
    grams = slab_grams(data.x, range(1, len(design.ranks)))  # PCHOOI's and HOOI's starts
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
    paired.  Every method must be one that each task's design supports
    (``DESIGN_METHODS``).  A clustering draw fits all of those, and
    ``methods`` selects the ones whose rows are returned, in its order.
    ``threads`` caps the worker-process count, which is never more than the
    number of jobs (one per task and replication); with one worker the jobs
    run in this process.  A clustering draw runs on up to two threads at a
    time (``_draw_and_fit``): the two families, or one family and the kernel
    thread, which worker processes never use.  So a run keeps up to
    ``2 * threads`` threads busy; results are the same for any value.
    """
    methods = tuple(methods)
    for task in tasks:
        for m in methods:
            if m not in DESIGN_METHODS[type(task.design)]:
                raise ValueError(f"method {m!r} is not one that task {task.experiment_id!r}'s "
                                 f"{type(task.design).__name__} supports")
    jobs = [(task, rep, methods) for task in tasks for rep in range(replications)]
    rows: list[Row] = []

    def collect(results) -> None:
        for n, chunk in enumerate(results):
            rows.extend(chunk)
            if progress:
                print(f"  completed {n + 1}/{len(jobs)} replication jobs", file=sys.stderr)

    workers = min(threads, len(jobs))
    if workers <= 1:
        collect(map(_run_one, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
