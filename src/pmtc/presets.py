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

from .experiments import CLUSTER_METHODS, SUBSPACE_METHODS, PanelSpec, Task
from .simulate import BlockDesign, InfeasibleDesignError, LowRankDesign, SimDesign

__all__ = ["PresetRun", "PRESET_NAMES", "build_preset"]


@dataclass(frozen=True)
class PresetRun:
    name: str
    tasks: list[Task]
    methods: tuple[str, ...]
    panels: list[PanelSpec]
    replications: int
    params: dict


def _grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(round(float(v), 6) for v in np.linspace(lo, hi, n))


def _parse_grid(value) -> tuple[float, ...]:
    if isinstance(value, str):
        return tuple(float(v) for v in value.split(","))
    return tuple(float(v) for v in np.atleast_1d(value))


_COMMON = {"replications": 100, "seed": 0}

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
        **_COMMON,
        "p1": 200, "p2": 200, "T": 120, "r1": 5, "r2": 5, "m1": 5,
        "gamma_x": -0.5, "gamma_y": -0.1,
        "gamma_y_grid": _grid(-0.45, 0.10, 12),
        "gamma_x_grid": _grid(-0.70, -0.30, 9),
        "imbalance": None,
    },
    "figA1": {
        **_COMMON,
        "sigma": 1.0,
        "scale_grid": (0.04, 0.06, 0.08, 0.10, 0.12, 0.16, 0.20),
    },
    "figA3": {
        **_COMMON,
        "p1": 200, "p2": 200, "T": 120, "r1": 5, "r2": 5, "m1": 5,
        "gamma_x": -0.55, "gamma_y": -0.20,
        "gamma_y_grid": _grid(-0.45, 1.0, 12),
        "gamma_x_grid": _grid(-0.70, -0.04, 12),
        "imbalance": None,
    },
    "figA5": {
        **_COMMON,
        "p1": 200, "p2": 200, "T": 120, "r1": 5, "r2": 5, "m1": 5,
        "gamma_x": -0.5, "gamma_y": -0.1,
        "gamma_y_grid": _grid(-0.40, 0.10, 11),
        "gamma_x_grid": _grid(-0.70, 0.40, 12),
        "imbalance": (0.1, 0.1, 0.15, 0.2, 0.45),
    },
    "figA7": {
        **_COMMON,
        "p1": 100, "p2": 100, "T": 60, "r1": 5, "r2": 5, "m1": 5,
        "gamma_x": -0.5, "gamma_y": -0.1,
        "gamma_y_grid": _grid(-0.45, 0.10, 12),
        "gamma_x_grid": _grid(-0.70, -0.30, 9),
        "imbalance": None,
    },
}
PRESET_NAMES = tuple(sorted(_PARAMS))

_GRID_KEYS = {"log_cy_grid", "log_cx_grid", "gamma_y_grid", "gamma_x_grid", "scale_grid"}
_INT_KEYS = {"replications", "seed", "p1", "p2", "T", "r1", "r2", "m1", "m2"}


def _resolve(name: str, overrides: dict | None) -> dict:
    if name not in _PARAMS:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    params = dict(_PARAMS[name])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise KeyError(f"unknown override {key!r} for preset {name}")
        if key in _GRID_KEYS:
            params[key] = _parse_grid(value)
        elif key in _INT_KEYS:  # via str, so that 1.5 is refused, not truncated
            params[key] = int(str(value))
        elif key == "imbalance":
            params[key] = None if value in (None, "", "none") else _parse_grid(value)
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


def _lowrank_tasks(name: str, q: dict) -> list[Task]:
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
    return tasks


def _pmtc_tasks(name: str, q: dict) -> list[Task]:
    balance = None if q["imbalance"] is None else (tuple(q["imbalance"]),) * 2
    base = dict(
        dims=(q["p1"], q["p2"]), T=q["T"], ranks=(q["r1"], q["r2"]), m1=q["m1"],
        mu_b=(1.0, 1.0, 1.0, 0.0, 0.0) if q["m1"] == 5 else (1.0,),
        balance=balance, seed=q["seed"],
    )
    tasks = []
    for v in q["gamma_y_grid"]:
        d = SimDesign(gamma_x=q["gamma_x"], gamma_y=v, **base)
        tasks.append(Task(f"{name}:gamma_y={v}", d, "vary_gamma_y", v))
    for v in q["gamma_x_grid"]:
        d = SimDesign(gamma_x=v, gamma_y=q["gamma_y"], **base)
        tasks.append(Task(f"{name}:gamma_x={v}", d, "vary_gamma_x", v))
    return tasks


def _pmtc_panels(name: str) -> list[PanelSpec]:
    """Misclustering-rate panels per mode, then loading-error panels, each
    against gamma_y and gamma_x."""
    kinds = [("cer_mode1", 1, "cer"), ("cer_mode2", 2, "cer"),
             ("obs_err", 1, "loading_err_observed"), ("latent_err", 1, "loading_err_latent")]
    return [PanelSpec(f"{name}_{kind}_vs_{x}", f"vary_{x}", mode, metric, x)
            for kind, mode, metric in kinds for x in ("gamma_y", "gamma_x")]


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


def build_preset(name: str, overrides: dict | None = None) -> PresetRun:
    q = _resolve(name, overrides)
    if name == "fig1":
        tasks = _lowrank_tasks(name, q)
        panels = [
            PanelSpec("fig1_u1_vs_log_cy", "vary_log_cy", 1, "subspace_dist", "log_cy"),
            PanelSpec("fig1_u1_vs_log_cx", "vary_log_cx", 1, "subspace_dist", "log_cx"),
            PanelSpec("fig1_u2_vs_log_cy", "vary_log_cy", 2, "subspace_dist", "log_cy"),
            PanelSpec("fig1_u2_vs_log_cx", "vary_log_cx", 2, "subspace_dist", "log_cx"),
        ]
        methods = SUBSPACE_METHODS
    elif name == "figA1":
        tasks, panels = _blockmodel_tasks(name, q)
        methods = ("X: HSC+HLloyd", "X: HSC+PMTLloyd")
    else:
        tasks = _pmtc_tasks(name, q)
        panels = _pmtc_panels(name)
        methods = CLUSTER_METHODS
    return PresetRun(name, tasks, methods, panels, q["replications"], q)
