"""Named experiment presets mapping to the simulation-study figure panels.

``build_preset`` resolves a preset name plus overrides into the task grid,
method list, panel specs, and replication count consumed by the harness.
Override keys are validated against the preset's parameter table; unknown
keys are rejected.

Each design grid is one preset and is run once: the coupled grids ``fig2``,
``figA3``, ``figA5`` and ``figA7`` write both their clustering-error panels
(Figs 2, A3, A5, A7) and their loading-error panels (Figs 3, A4, A6, A8).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .experiments import DESIGN_METHODS, PanelSpec, Task
from .simulate import BlockDesign, InfeasibleDesignError, LowRankDesign, SimDesign

__all__ = ["PresetRun", "PRESET_NAMES", "build_preset"]


@dataclass(frozen=True)
class PresetRun:
    tasks: list[Task]
    methods: tuple[str, ...]
    panels: list[PanelSpec]
    replications: int
    params: dict


def _grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(round(float(v), 6) for v in np.linspace(lo, hi, n))


def _parse_grid(value) -> tuple[float, ...]:
    if isinstance(value, str):  # "" is the empty grid, as [] is in a JSON config
        return tuple(float(v) for v in value.split(",")) if value else ()
    return tuple(float(v) for v in np.atleast_1d(value))


_COMMON = {"replications": 100, "seed": 0}
# the coupled block-model presets' design, before each one's own entries
_COUPLED = {
    **_COMMON,
    "p1": 200, "p2": 200, "T": 120, "r1": 5, "r2": 5, "m1": 5,
    "gamma_x": -0.5, "gamma_y": -0.1,
    "imbalance": None,
}

_PARAMS = {
    "fig1": {
        **_COMMON,
        "p1": 50, "p2": 50, "T": 40, "m1": 5, "m2": 5,
        "sigma_x": 1.0, "sigma_y": 1.0,
        "log_cx": 1.0, "log_cy": 2.0,
        "log_cy_grid": _grid(1.0, 3.0, 9),
        "log_cx_grid": _grid(0.0, 2.0, 9),
    },
    "fig2": {
        **_COUPLED,
        "gamma_y_grid": _grid(-0.45, 0.10, 12),
        "gamma_x_grid": _grid(-0.70, -0.30, 9),
    },
    "figA1": {
        **_COMMON,
        "sigma": 1.0,
        "scale_grid": (0.04, 0.06, 0.08, 0.10, 0.12, 0.16, 0.20),
    },
    "figA3": {
        **_COUPLED,
        "gamma_x": -0.55, "gamma_y": -0.20,
        "gamma_y_grid": _grid(-0.45, 1.0, 12),
        "gamma_x_grid": _grid(-0.70, -0.04, 12),
    },
    "figA5": {
        **_COUPLED,
        "gamma_y_grid": _grid(-0.40, 0.10, 11),
        "gamma_x_grid": _grid(-0.70, 0.40, 12),
        "imbalance": (0.1, 0.1, 0.15, 0.2, 0.45),
    },
    "figA7": {
        **_COUPLED,
        "p1": 100, "p2": 100, "T": 60,
        "gamma_y_grid": _grid(-0.45, 0.10, 12),
        "gamma_x_grid": _grid(-0.70, -0.30, 9),
    },
}
PRESET_NAMES = tuple(sorted(_PARAMS))


def _resolve(name: str, overrides: dict | None) -> dict:
    if name not in _PARAMS:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    params = dict(_PARAMS[name])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise KeyError(f"unknown override {key!r} for preset {name}")
        if key == "imbalance":  # a grid or None, whichever its default is
            params[key] = None if value in (None, "", "none") else _parse_grid(value)
        elif isinstance(params[key], tuple):  # the others take their default's type
            params[key] = _parse_grid(value)
        elif isinstance(params[key], int):  # via str, so that 1.5 is refused, not truncated
            params[key] = int(str(value))
        else:
            params[key] = float(value)
    for key, least in (("replications", 1), ("seed", 0)):
        if params[key] < least:
            raise ValueError(f"{key} must be >= {least}, got {params[key]}")
    return params


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _exp(key: str, log_c: float) -> float:
    """``math.exp(log_c)``, refusing an exponent whose scale is no finite float."""
    if not (math.isfinite(log_c) and log_c < _LOG_FLOAT_MAX):
        raise InfeasibleDesignError(
            f"{key} must be finite and below {_LOG_FLOAT_MAX:.2f}, got {log_c}")
    return math.exp(log_c)


def _lowrank_tasks(name: str, q: dict) -> tuple[list[Task], list[PanelSpec]]:
    base = dict(
        dims=(q["p1"], q["p2"]), T=q["T"], ranks=(q["m1"], q["m2"]),
        sigma_x=q["sigma_x"], sigma_y=q["sigma_y"], seed=q["seed"],
    )
    tasks = []
    for v in q["log_cy_grid"]:
        d = LowRankDesign(c_x=_exp("log_cx", q["log_cx"]), c_y=_exp("log_cy_grid", v), **base)
        tasks.append(Task(f"{name}:log_cy={v}", d, "vary_log_cy", v))
    for v in q["log_cx_grid"]:
        d = LowRankDesign(c_x=_exp("log_cx_grid", v), c_y=_exp("log_cy", q["log_cy"]), **base)
        tasks.append(Task(f"{name}:log_cx={v}", d, "vary_log_cx", v))
    panels = [PanelSpec(f"{name}_u{mode}_vs_{x}", f"vary_{x}", mode, "subspace_dist", x)
              for mode in (1, 2) for x in ("log_cy", "log_cx")]
    return tasks, panels


def _pmtc_tasks(name: str, q: dict) -> tuple[list[Task], list[PanelSpec]]:
    balance = None if q["imbalance"] is None else (tuple(q["imbalance"]),) * 2
    base = dict(
        dims=(q["p1"], q["p2"]), T=q["T"], ranks=(q["r1"], q["r2"]), m1=q["m1"],
        mu_b=SimDesign.mu_b if q["m1"] == 5 else (1.0,),
        balance=balance, seed=q["seed"],
    )
    tasks = []
    for v in q["gamma_y_grid"]:
        d = SimDesign(gamma_x=q["gamma_x"], gamma_y=v, **base)
        tasks.append(Task(f"{name}:gamma_y={v}", d, "vary_gamma_y", v))
    for v in q["gamma_x_grid"]:
        d = SimDesign(gamma_x=v, gamma_y=q["gamma_y"], **base)
        tasks.append(Task(f"{name}:gamma_x={v}", d, "vary_gamma_x", v))
    # misclustering-rate panels per mode, then loading-error panels, each against both
    kinds = [("cer_mode1", 1, "cer"), ("cer_mode2", 2, "cer"),
             ("obs_err", 1, "loading_err_observed"), ("latent_err", 1, "loading_err_latent")]
    panels = [PanelSpec(f"{name}_{kind}_vs_{x}", f"vary_{x}", mode, metric, x)
              for kind, mode, metric in kinds for x in ("gamma_y", "gamma_x")]
    return tasks, panels


def _blockmodel_tasks(name: str, q: dict) -> tuple[list[Task], list[PanelSpec]]:
    settings = [
        ("balanced_p80", dict(dims=(80,) * 3, ranks=(5,) * 3, balance=None)),
        ("balanced_p100", dict(dims=(100,) * 3, ranks=(5,) * 3, balance=None)),
        ("imbalanced_15_85", dict(dims=(100,) * 3, ranks=(2,) * 3, balance=(0.15, 0.85))),
        ("imbalanced_25_75", dict(dims=(100,) * 3, ranks=(2,) * 3, balance=(0.25, 0.75))),
    ]
    tasks, panels = [], []
    for scen, kw in settings:
        for v in q["scale_grid"]:
            d = BlockDesign(sigma=q["sigma"], core_scale=v, seed=q["seed"], **kw)
            tasks.append(Task(f"{name}:{scen}:scale={v}", d, scen, v))
        panels.append(PanelSpec(f"{name}_cer_{scen}", scen, 1, "cer", "core_scale"))
    return tasks, panels


# the design kind and the builder of each preset that is not a coupled grid
_BUILDERS = {"fig1": (LowRankDesign, _lowrank_tasks), "figA1": (BlockDesign, _blockmodel_tasks)}


def build_preset(name: str, overrides: dict | None = None) -> PresetRun:
    q = _resolve(name, overrides)
    design, builder = _BUILDERS.get(name, (SimDesign, _pmtc_tasks))
    tasks, panels = builder(name, q)
    if not tasks:  # a run that can write no row is most likely a mistyped override
        raise ValueError(f"preset {name} has no grid point: every grid it reads is empty")
    return PresetRun(tasks, DESIGN_METHODS[design], panels, q["replications"], q)
