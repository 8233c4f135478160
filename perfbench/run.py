"""pmtc benchmark: one workload per run, closed loop, one operation at a time.

    python3 perfbench/run.py --workload fig2-lowsnr --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Setup (inputs and a warm-up operation) is repeated ``SETUP_REPEATS`` times.
Then operations run back to back for ``--seconds`` seconds, and at least
the workload's ``min_ops`` times.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` the same untraced loop
runs first, then a second loop with every public function of the package
wrapped in spans, and the last line carries the per-layer metrics.  Spans
are written to ``perfbench/_work/trace-<workload>-seed<seed>.jsonl``.

Preceding stdout lines hold the environment record, the output checks and
the accuracy figures as JSON, then every metric as ``name value unit``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"

# One BLAS thread: on 2 cores it ran the low-SNR replication faster than two
# threads (7.3-7.9 s against 8.2-8.6 s) and leaves the other core to the OS.
BLAS_THREADS = 1
SETUP_REPEATS = 3
# Stop a loop after this long even below min_ops, so a run ends within 180 s.
MAX_LOOP_S = 70.0


def pin_blas_threads() -> None:
    """Pin BLAS threads; effective only before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package() -> float:
    """Import numpy and pmtc from ``src/``; return the seconds it took."""
    start = time.perf_counter()
    if not (ROOT / "src" / "pmtc" / "__init__.py").is_file():
        raise ImportError(f"no pmtc package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import pmtc  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _loop(wl, seconds: float, rec=None):
    """Run operations back to back; return per-operation times, the number
    that failed, the results.csv cells that did not parse, and the ops run."""
    times, failed, unparseable, ops = [], 0, 0, []
    start = time.perf_counter()
    while len(times) < wl.min_ops or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        i = len(times)
        wl.prepare(i)
        if rec is not None:
            rec.op = f"op{i}"
            ops.append(rec.op)
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:
            out = None
            traceback.print_exc()
        times.append(time.perf_counter() - t0)
        if rec is not None:
            rec.op = "check"
        if out is None:
            failed += 1
            continue
        try:
            unparseable += wl.check(i, out)
        except Exception:
            failed += 1
            traceback.print_exc()
    return times, failed, unparseable, ops


def measure(workload: str, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0, shape=None) -> dict:
    """Run one workload and return its checks and result object.

    ``import_s`` is added to the set-up time; ``shape`` defaults to the paper
    scale.
    """
    import layers
    import workloads
    from spans import Recorder

    shape = shape or workloads.PAPER_SHAPE
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    rec = Recorder() if trace else None
    try:
        wl = workloads.make(workload, seed, shape, work_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if rec is None:
                wl.setup()
            else:
                with rec.patched(layers.TARGETS):
                    wl.setup()
            setup_times.append(time.perf_counter() - t0)

        times, failed, unparseable, _ = _loop(wl, seconds)
        attempted = len(times)
        op_s = statistics.median(times)
        if rec is not None:
            with rec.patched(layers.TARGETS):
                traced, t_failed, t_unparseable, ops = _loop(wl, seconds, rec)
            attempted += len(traced)
            failed += t_failed
            unparseable += t_unparseable
            rec.write(WORK_ROOT / f"trace-{workload}-seed{seed}.jsonl")
        accuracy = wl.accuracy()
        problems = [f"{k} = {accuracy[k]:.4f} above {limit}"
                    for k, limit in wl.limits.items() if k in accuracy and accuracy[k] > limit]
        checks = {
            "digest": wl.digest(),
            "failed_frac": failed / attempted,
            "op_times_s": times,
            "results_csv_unparseable_cells": unparseable,
            "accuracy": accuracy,
            "accuracy_problems": problems,
        }
        correct = failed == 0 and not problems and len(accuracy) > 0
        if rec is None:
            metrics = {
                "op_s": (op_s, "s"),
                "setup_s": (import_s + statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            metrics = layers.per_layer(
                rec, set(ops), SETUP_REPEATS, unparseable / attempted,
                statistics.median(traced), op_s, accuracy)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "checks": checks,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment()}))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps({"checks": out["checks"]}))
    for name, m in out["result"]["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
