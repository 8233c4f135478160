"""What the traced run wraps, and the per-layer metrics derived from its spans.

Times and counts are per operation (totals over the traced operations
divided by their number), so they compare directly with ``op_s``.  Fractions
are per call.  ``pchooi.pchooi.iterations`` is the most iterations any one
call ran, which is 50 (the cap) when a call stops without converging.
``gflop`` and ``bytes`` of a mode product are computed from the array
shapes (2*r*n*cols flops; input, matrix and result bytes), not measured.  ``tensor.lsvd.gram_frac`` is the share of calls whose input is
wide enough (cols >= 4*rows and cols >= 64) for the Gram eigendecomposition
path of ``lsvd``.  ``tensor.matricize.copy_bytes`` counts results that do
not share memory with their input.
"""

from __future__ import annotations

import numpy as np

from spans import Recorder, Stats


def _mode_product(args, kwargs, result):
    x, mode, u = np.asarray(args[0]), args[1], np.asarray(args[2])
    flops = 2.0 * u.shape[0] * u.shape[1] * (x.size // x.shape[mode])
    return {"gflop": flops / 1e9, "bytes": float(x.nbytes + u.nbytes + result.nbytes)}


def _matricize(args, kwargs, result):
    shared = isinstance(args[0], np.ndarray) and np.may_share_memory(result, args[0])
    return {"copy_bytes": 0.0 if shared else float(result.nbytes)}


def _lsvd(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"gram": float(cols >= 4 * rows and cols >= 64)}


_IO_WRITES = ("write_tensor", "write_matrix_csv", "write_membership_csv", "write_loadings_csv")

TARGETS = [
    ("pmtc.pchooi", "pchooi", "pchooi.pchooi",
     lambda a, k, r: {"iterations": float(r.iterations_used), "converged": float(r.converged)}),
    ("pmtc.pchooi", "tensor_informative", "pchooi.tensor_informative",
     lambda a, k, r: {"true": float(bool(r))}),
    ("pmtc.tensor", "mode_product", "tensor.mode_product", _mode_product),
    ("pmtc.tensor", "matricize", "tensor.matricize", _matricize),
    ("pmtc.tensor", "lsvd", "tensor.lsvd", _lsvd),
    ("pmtc.kmeans", "kmeans_relaxed", "kmeans.kmeans_relaxed", None),
    ("pmtc.pmtsc", "pmtsc", "pmtsc.pmtsc", None),
    ("pmtc.pmtsc", "spectral_cluster_rows", "pmtsc.spectral_cluster_rows", None),
    ("pmtc.pmtlloyd", "pmtlloyd", "pmtlloyd.pmtlloyd",
     lambda a, k, r: {"sweeps": float(r[1].iterations_used), "converged": float(r[1].converged)}),
    ("pmtc.simulate", "gen_pmtc", "simulate.gen_pmtc", None),
    ("pmtc.io", "read_tensor", "io.read_tensor", lambda a, k, r: {"bytes": float(r.nbytes)}),
    ("pmtc.io", "read_matrix_csv", "io.read_matrix_csv", None),
    *[("pmtc.io", name, "io.write", None) for name in _IO_WRITES],
    ("pmtc.pipeline", "fit_pmtc", "pipeline.fit_pmtc", None),
    ("pmtc.cli", "main", "cli.main", None),
    # the harness's scoring calls; metrics used inside gen_pmtc are left out of metrics.s
    ("pmtc.metrics", "cer", "metrics.cer", None),
    ("pmtc.metrics", "misclustering_loss", "metrics.misclustering_loss", None),
    ("pmtc.metrics", "rescaled_core_rows", "metrics.rescaled_core_rows", None),
    ("pmtc.factors", "estimate_observed", "factors.estimate_observed", None),
    ("pmtc.factors", "estimate_latent", "factors.estimate_latent", None),
    ("pmtc.factors", "per_asset_loadings", "factors.per_asset_loadings", None),
]


def per_layer(rec: Recorder, ops: set[str], setups: int, unparseable_cells: float,
              traced_op_s: float, untraced_op_s: float, accuracy: dict[str, float]) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    s = rec.summary(ops)
    n = len(ops)

    def st(name: str) -> Stats:
        return s.get(name, Stats())

    def frac(num: float, den: int) -> float:
        return num / den if den else 0.0

    pc, ti = st("pchooi.pchooi"), st("pchooi.tensor_informative")
    mp, mz, sv = st("tensor.mode_product"), st("tensor.matricize"), st("tensor.lsvd")
    ll = st("pmtlloyd.pmtlloyd")
    rt = st("io.read_tensor")
    setup_gen = rec.summary({"setup"}).get("simulate.gen_pmtc", Stats())
    return {
        "pchooi.pchooi.calls": (pc.calls / n, "count"),
        "pchooi.pchooi.self_s": (pc.self_s / n, "s"),
        "pchooi.pchooi.iterations": (pc.peak("iterations"), "count"),
        "pchooi.pchooi.converged_frac": (frac(pc.count("converged"), pc.calls), "ratio"),
        "pchooi.tensor_informative.s": (ti.inclusive_s / n, "s"),
        "pchooi.tensor_informative.true_frac": (frac(ti.count("true"), ti.calls), "ratio"),
        "tensor.mode_product.calls": (mp.calls / n, "count"),
        "tensor.mode_product.self_s": (mp.self_s / n, "s"),
        "tensor.mode_product.gflop": (mp.count("gflop") / n, "GFLOP"),
        "tensor.mode_product.bytes": (mp.count("bytes") / n, "bytes"),
        "tensor.matricize.calls": (mz.calls / n, "count"),
        "tensor.matricize.self_s": (mz.self_s / n, "s"),
        "tensor.matricize.copy_bytes": (mz.count("copy_bytes") / n, "bytes"),
        "tensor.lsvd.calls": (sv.calls / n, "count"),
        "tensor.lsvd.self_s": (sv.self_s / n, "s"),
        "tensor.lsvd.gram_frac": (frac(sv.count("gram"), sv.calls), "ratio"),
        "kmeans.kmeans_relaxed.calls": (st("kmeans.kmeans_relaxed").calls / n, "count"),
        "kmeans.kmeans_relaxed.s": (st("kmeans.kmeans_relaxed").inclusive_s / n, "s"),
        "pmtsc.pmtsc.self_s": (st("pmtsc.pmtsc").self_s / n, "s"),
        "pmtsc.spectral_cluster_rows.s": (st("pmtsc.spectral_cluster_rows").inclusive_s / n, "s"),
        "pmtlloyd.pmtlloyd.calls": (ll.calls / n, "count"),
        "pmtlloyd.pmtlloyd.self_s": (ll.self_s / n, "s"),
        "pmtlloyd.pmtlloyd.sweeps": (frac(ll.count("sweeps"), ll.calls), "count"),
        "pmtlloyd.pmtlloyd.converged_frac": (frac(ll.count("converged"), ll.calls), "ratio"),
        "simulate.gen_pmtc.s": (st("simulate.gen_pmtc").inclusive_s / n, "s"),
        "simulate.gen_pmtc.setup_s": (setup_gen.inclusive_s / setups, "s"),
        "io.read_tensor.s": (rt.inclusive_s / n, "s"),
        "io.read_tensor.bytes": (rt.count("bytes") / n, "bytes"),
        "io.read_matrix_csv.s": (st("io.read_matrix_csv").inclusive_s / n, "s"),
        "io.write.s": (st("io.write").inclusive_s / n, "s"),
        "pipeline.fit_pmtc.self_s": (st("pipeline.fit_pmtc").self_s / n, "s"),
        "cli.main.self_s": (st("cli.main").self_s / n, "s"),
        "metrics.s": (rec.group_s(ops, "metrics.", "simulate.gen_pmtc") / n, "s"),
        "factors.s": (rec.group_s(ops, "factors.", "simulate.gen_pmtc") / n, "s"),
        "experiments.results_csv.unparseable_cells": (unparseable_cells, "count"),
        "trace.op_s": (traced_op_s, "s"),
        "trace.overhead_s": (traced_op_s - untraced_op_s, "s"),
        "accuracy.cer_mode1": (accuracy["cer_mode1"], "ratio"),
        "accuracy.cer_mode2": (accuracy["cer_mode2"], "ratio"),
        "accuracy.loading_err": (accuracy["loading_err"], "norm"),
    }
