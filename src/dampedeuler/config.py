"""Strict JSON run-configuration parsing.

A run is described by one JSON document with fixed sections; unknown keys are
rejected and every numeric range is validated, so a config that parses is a
config that runs. The resolved document (defaults filled in) is echoed into
summary.json to make runs reproducible from their outputs alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

from .dynamics import RHO_PRESETS, U_PRESETS, ICRecipe, SimConfig
from .elliptic import PressureSolveParams
from .fields import GridSpec
from .littlewood_paley import BesovIndex
from .diagnostics import SmallnessParams


class ConfigError(ValueError):
    """Invalid run configuration; key names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


_DEFAULTS = {
    "physics": {"alpha": 1.0, "gamma": 1},
    "grid": {"n": 64, "dealias_fraction": GridSpec.dealias_fraction},
    "time": {"dt": 1e-3, "t_end": 1.0, "record_every": 1},
    "ic": {
        "u_preset": ICRecipe.u_preset,
        "u_params": {},
        "rho_preset": ICRecipe.rho_preset,
        "rho_params": {},
        "seed": ICRecipe.seed,
    },
    "pressure": asdict(PressureSolveParams()),
    "track": {"besov_indices": [[1, "inf", 1]]},
    "smallness": asdict(SmallnessParams()),
}


def _require_number(doc: dict, section: str, key: str, lo=None, hi=None, integer=False):
    value = doc[section][key]
    path = f"{section}.{key}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(path, f"must be <= {hi}, got {value}")
    return int(value) if integer else float(value)


def _merge_defaults(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for section in doc:
        if section not in _DEFAULTS:
            raise ConfigError(section, "unknown section")
        if not isinstance(doc[section], dict):
            raise ConfigError(section, "section must be a JSON object")
        for key in doc[section]:
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
    merged = {}
    for section, defaults in _DEFAULTS.items():
        merged[section] = {**defaults, **doc.get(section, {})}
    return merged


def _parse_extended(value, path: str) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f'expected a number or "inf", got {value!r}')
    return float(value)


def parse_besov_indices(raw, path="track.besov_indices") -> tuple[BesovIndex, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a non-empty list of [s, p, r] triples")
    out = []
    for i, triple in enumerate(raw):
        if not isinstance(triple, list) or len(triple) != 3:
            raise ConfigError(f"{path}[{i}]", f"expected [s, p, r], got {triple!r}")
        s = triple[0]
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ConfigError(f"{path}[{i}]", f"s must be a number, got {s!r}")
        p = _parse_extended(triple[1], f"{path}[{i}]")
        r = _parse_extended(triple[2], f"{path}[{i}]")
        if p < 1 or r < 1:
            raise ConfigError(f"{path}[{i}]", "p and r must be >= 1")
        out.append(BesovIndex(float(s), p, r))
    return tuple(out)


def resolve_config(doc: dict) -> dict:
    """Validate a raw JSON document and fill defaults; raises ConfigError."""
    merged = _merge_defaults(doc)

    _require_number(merged, "physics", "alpha", lo=0.0)
    gamma = _require_number(merged, "physics", "gamma", integer=True)
    if gamma not in (0, 1):
        raise ConfigError("physics.gamma", f"must be 0 or 1, got {gamma}")

    n = _require_number(merged, "grid", "n", integer=True, lo=8)
    if n & (n - 1):
        raise ConfigError("grid.n", f"must be a power of two, got {n}")
    frac = _require_number(merged, "grid", "dealias_fraction", hi=1.0)
    if frac <= 0:
        raise ConfigError("grid.dealias_fraction", "must be in (0, 1]")
    if int(frac * (n // 2)) < 2:
        raise ConfigError("grid.dealias_fraction", "dealias cutoff below 2")

    dt = _require_number(merged, "time", "dt")
    if dt <= 0:
        raise ConfigError("time.dt", f"must be positive, got {dt}")
    _require_number(merged, "time", "t_end", lo=0.0)
    _require_number(merged, "time", "record_every", integer=True, lo=1)

    ic = merged["ic"]
    if ic["u_preset"] not in U_PRESETS:
        raise ConfigError("ic.u_preset", f"unknown preset {ic['u_preset']!r}")
    if ic["rho_preset"] not in RHO_PRESETS:
        raise ConfigError("ic.rho_preset", f"unknown preset {ic['rho_preset']!r}")
    for key in ("u_params", "rho_params"):
        if not isinstance(ic[key], dict):
            raise ConfigError(f"ic.{key}", "must be a JSON object")
    if isinstance(ic["seed"], bool) or not isinstance(ic["seed"], int):
        raise ConfigError("ic.seed", f"must be an integer, got {ic['seed']!r}")

    tol = _require_number(merged, "pressure", "tol")
    if tol <= 0:
        raise ConfigError("pressure.tol", "must be positive")
    _require_number(merged, "pressure", "max_iter", integer=True, lo=1)

    parse_besov_indices(merged["track"]["besov_indices"])

    for key in ("K", "eta", "delta"):
        val = _require_number(merged, "smallness", key)
        if val <= 0:
            raise ConfigError(f"smallness.{key}", "must be positive")
    eta_2d = _require_number(merged, "smallness", "eta_2d")
    if eta_2d <= 5.0:
        raise ConfigError("smallness.eta_2d", "must exceed 5")

    return merged


def build_sim_config(resolved: dict) -> SimConfig:
    """Turn a resolved config document into a SimConfig."""
    grid = GridSpec(
        n=int(resolved["grid"]["n"]),
        dealias_fraction=float(resolved["grid"]["dealias_fraction"]),
    )
    ic = ICRecipe(
        u_preset=resolved["ic"]["u_preset"],
        u_params=dict(resolved["ic"]["u_params"]),
        rho_preset=resolved["ic"]["rho_preset"],
        rho_params=dict(resolved["ic"]["rho_params"]),
        seed=int(resolved["ic"]["seed"]),
    )
    try:
        return SimConfig(
            alpha=float(resolved["physics"]["alpha"]),
            gamma=int(resolved["physics"]["gamma"]),
            grid=grid,
            dt=float(resolved["time"]["dt"]),
            t_end=float(resolved["time"]["t_end"]),
            ic=ic,
            pressure=PressureSolveParams(
                tol=float(resolved["pressure"]["tol"]),
                max_iter=int(resolved["pressure"]["max_iter"]),
            ),
            besov_indices=parse_besov_indices(resolved["track"]["besov_indices"]),
            record_every=int(resolved["time"]["record_every"]),
        )
    except ValueError as exc:
        raise ConfigError("<config>", str(exc)) from exc


def smallness_params(resolved: dict) -> SmallnessParams:
    return SmallnessParams(**{key: float(value) for key, value in resolved["smallness"].items()})


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return resolve_config(doc)
