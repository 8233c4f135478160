"""Benchmark self-test: each workload at the smoke shape (figA7, 100x100x60).

Runs every workload named in BENCHMARK.json with ``--seconds 0`` (so each
runs its minimum number of operations), once untraced and once traced, and
checks that both runs are correct, that every end-to-end metric (untraced)
and every per-layer metric (traced) is emitted, finite and with a unit, and
that the two runs of one seed produce the same output digest.  Takes about
half a minute on 2 cores.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys

import run


def _problems(out: dict, specs: list[dict]) -> list[str]:
    result = out["result"]
    found = []
    if not result["correct"]:
        found.append(f"not correct: {out['checks']}")
    emitted = result["metrics"]
    for spec in specs:
        m = emitted.get(spec["name"])
        if m is None:
            found.append(f"{spec['name']} missing")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            found.append(f"{spec['name']} = {m['value']!r} is not finite")
        elif m["unit"] != spec["unit"]:
            found.append(f"{spec['name']} has unit {m['unit']!r}, expected {spec['unit']!r}")
    extra = set(emitted) - {spec["name"] for spec in specs}
    if extra:
        found.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return found


def main() -> int:
    run.pin_blas_threads()
    run.import_package()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        plain = run.measure(name, 7, 0, False, shape=workloads.SMOKE_SHAPE)
        traced = run.measure(name, 7, 0, True, shape=workloads.SMOKE_SHAPE)
        found = _problems(plain, spec["end_to_end"]) + _problems(traced, spec["per_layer"])
        if plain["checks"]["digest"] != traced["checks"]["digest"]:
            found.append("output digest differs between two runs of one seed")
        print(f"{name}: {'ok' if not found else 'FAILED'} "
              f"(op_s {plain['result']['metrics']['op_s']['value']:.3f})")
        failures += [f"{name}: {p}" for p in found]
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
