"""Monte Carlo harness: run method grids over replicated designs, stream
per-replication metrics to CSV, and aggregate figure-panel tables.

Method names follow the experiment legends:

* clustering:  "Y: SC", "X: HSC+HLloyd", "X: HSC+PMTLloyd", "X+Y: PMTSC",
  "X+Y: PMTSC+HLloyd", "X+Y: PMTSC+PMTLloyd"
* subspace:    "PCHOOI", "HOOI", "SVD-Y"

A replication writes only what the figure panels plot: ``cer`` per mode,
``loading_err_observed`` and ``loading_err_latent`` (coupled designs), or
``subspace_dist`` per mode (subspace methods).

A job is a design and a replication: one draw, with seed
``design.seed + replication``, scored for every method the design supports
(``DESIGN_METHODS``).  ``run_experiment`` then picks each task's rows, in
the order its ``methods`` name them, so a design two tasks share is drawn
once and written under both ids, and output files are byte-identical for
any worker count.  ``_draw_and_fit`` says which thread fits what, and no
thread changes an output.
"""

from __future__ import annotations

import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .factors import estimate_latent, estimate_observed, per_asset_loadings
from .pchooi import pchooi
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


def _loading_scores(y, m1_hat, truth, num_factors):
    b_obs = estimate_observed(y, m1_hat, truth.f, demean=True).loadings
    err = per_asset_loadings(b_obs, m1_hat) - per_asset_loadings(truth.b, truth.memberships[0])
    yield 1, "loading_err_observed", np.linalg.norm(err)
    if num_factors <= m1_hat.num_clusters:
        est = estimate_latent(y, m1_hat, num_factors)
        u_hat = lsvd(m1_hat.one_hot() @ est.loadings, num_factors)
        u_true = lsvd(truth.memberships[0].one_hot() @ truth.b, num_factors)
        yield 1, "loading_err_latent", subspace_distance(u_hat, u_true)


def _cluster_scores(final, truth):
    for i, m_final in enumerate(final):
        c, _ = metrics.cer(m_final, truth.memberships[i])
        yield i + 1, "cer", c


def _draw_and_fit(design: SimDesign | BlockDesign):
    """A clustering job: draw one replication of ``design``, fit every method
    it supports, whichever rows a run keeps, and return the draw, its ground
    truth and each method's final memberships, in ``DESIGN_METHODS`` order.

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
    kernel thread (see :mod:`pmtc.tensor`), idle, outlives the call.
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
    return data, truth, {m: fitted[m] for m in DESIGN_METHODS[type(design)]}


def _run_one(job) -> dict[str, list[tuple]]:
    """Draw one replication of a design and score every method it supports:
    ``{method: [(mode, metric, value), ...]}``."""
    design, rep = job
    design = replace(design, seed=design.seed + rep)
    if isinstance(design, LowRankDesign):
        data, truth = gen_coupled_lowrank(design)
        grams = slab_grams(data.x, range(1, len(design.ranks)))  # PCHOOI's and HOOI's starts
        fitted = {
            "PCHOOI": pchooi(data.x, data.y, design.ranks, grams=grams).bases,
            "HOOI": pchooi(data.x, None, design.ranks, grams=grams).bases,
            "SVD-Y": [lsvd(data.y, design.ranks[0])],
        }
        return {method: [(i + 1, "subspace_dist", subspace_distance(u, truth.bases[i]))
                         for i, u in enumerate(bases)]
                for method, bases in fitted.items()}
    data, truth, fitted = _draw_and_fit(design)
    scores = {}
    for method, final in fitted.items():
        scores[method] = list(_cluster_scores(final, truth))
        if isinstance(design, SimDesign):
            scores[method] += _loading_scores(data.y, final[0], truth, design.m1)
    return scores


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
    (``DESIGN_METHODS``).  A job is a design and a replication, and it scores
    every method the design supports; here each task's rows are picked from
    its jobs, replication by replication, in the order ``methods`` names
    them.  So tasks that share a design share its draws and their rows.
    ``threads`` caps the worker-process count, which is never more than the
    number of jobs.  With one worker the jobs run in this process.  Each
    clustering draw keeps up to two threads busy (see ``_draw_and_fit``), so
    a run keeps up to ``2 * threads``; results are the same for any value.
    """
    methods = tuple(methods)
    for task in tasks:
        for m in methods:
            if m not in DESIGN_METHODS[type(task.design)]:
                raise ValueError(f"method {m!r} is not one that task {task.experiment_id!r}'s "
                                 f"{type(task.design).__name__} supports")
    # designs are frozen dataclasses, and equal designs give equal draws
    jobs = list(dict.fromkeys((task.design, rep)
                              for task in tasks for rep in range(replications)))
    scores = {}

    def collect(results) -> None:
        for n, (job, got) in enumerate(zip(jobs, results)):
            scores[job] = got
            if progress:
                print(f"  completed {n + 1}/{len(jobs)} replication jobs", file=sys.stderr)

    workers = min(threads, len(jobs))
    if workers <= 1:
        collect(map(_run_one, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a run that starts a pool loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_run_one, jobs, chunksize=1))
    # metrics return numpy scalars; a plain float keeps repr() parseable
    return [Row(task.experiment_id, method, rep, mode, metric, float(value))
            for task in tasks for rep in range(replications) for method in methods
            for mode, metric, value in scores[task.design, rep][method]]


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
