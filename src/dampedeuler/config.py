"""Strict JSON run-configuration parsing.

A run is described by one JSON document with fixed sections. This module
checks the document itself (unknown keys, value types, finite numbers, the
shape of each Besov triple). The range rules live in the types that own each
parameter (SimConfig, GridSpec, PressureSolveParams, BesovIndex,
SmallnessParams, dynamics.preset_factories); resolve_config builds them and
names the dotted key of any ParameterError they raise, so a config that
resolves is a config that runs. The resolved document (defaults filled in)
is echoed into summary.json to make runs reproducible from their outputs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict

from .dynamics import ICRecipe, SimConfig, preset_factories
from .elliptic import PressureSolveParams
from .fields import GridSpec, ParameterError, _number
from .littlewood_paley import BesovIndex
from .diagnostics import SmallnessParams


class ConfigError(ParameterError):
    """Invalid run configuration; name is the dotted key of the offending entry."""


_DEFAULTS = {
    "physics": {"alpha": 1.0, "gamma": 1},
    "grid": {"n": 64},
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


_JSON_TYPES = {str: "string", dict: "object", list: "array"}


def _require_type(doc: dict, section: str, key: str) -> None:
    """The value must have its default's JSON type; numbers must be finite,
    and integers where the default is one."""
    default, value = _DEFAULTS[section][key], doc[section][key]
    if isinstance(default, (int, float)):
        with named_keys():
            _number(key, value, integer=isinstance(default, int))
    elif not isinstance(value, type(default)):
        raise ConfigError(f"{section}.{key}", f"expected a JSON {_JSON_TYPES[type(default)]}, got {value!r}")


@contextmanager
def named_keys():
    """Re-raise a ParameterError from the block as a ConfigError naming the
    parameter's dotted key; every key sits in exactly one section."""
    try:
        yield
    except ConfigError:  # already names its key
        raise
    except ParameterError as exc:
        section = next(s for s, keys in _DEFAULTS.items() if exc.name in keys)
        raise ConfigError(f"{section}.{exc.name}", exc.message) from None


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
        for key in defaults:
            _require_type(merged, section, key)
    return merged


def parse_besov_indices(raw, path="track.besov_indices") -> tuple[BesovIndex, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a non-empty list of [s, p, r] triples")
    out = []
    for i, triple in enumerate(raw):
        where = f"{path}[{i}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise ConfigError(where, f"expected [s, p, r], got {triple!r}")
        try:
            out.append(BesovIndex(_number("s", triple[0]), _number("p", triple[1], inf_ok=True),
                                  _number("r", triple[2], inf_ok=True)))
        except ParameterError as exc:
            raise ConfigError(where, f"{exc.name} {exc.message}") from None
    return tuple(out)


def resolve_config(doc: dict) -> dict:
    """Check a raw JSON document, fill defaults and build the run's objects
    from it, which apply the range rules; raises ConfigError naming the key.
    Returns the merged document."""
    merged = _merge_defaults(doc)
    with named_keys():
        preset_factories(build_sim_config(merged))
    smallness_params(merged)
    return merged


def _section(resolved: dict, section: str) -> dict:
    """A resolved section with each value cast to the type of its default."""
    return {key: type(_DEFAULTS[section][key])(value) for key, value in resolved[section].items()}


def build_sim_config(resolved: dict) -> SimConfig:
    """Turn a resolved config document into a SimConfig."""
    with named_keys():
        return SimConfig(
            **_section(resolved, "physics"),
            **_section(resolved, "time"),
            grid=GridSpec(**_section(resolved, "grid")),
            ic=ICRecipe(**_section(resolved, "ic")),
            pressure=PressureSolveParams(**_section(resolved, "pressure")),
            besov_indices=parse_besov_indices(resolved["track"]["besov_indices"]),
        )


def smallness_params(resolved: dict) -> SmallnessParams:
    with named_keys():
        return SmallnessParams(**_section(resolved, "smallness"))


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return resolve_config(doc)
