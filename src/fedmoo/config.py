"""Config file parsing: a strict YAML key-value schema for experiments and sweeps.

Unknown keys anywhere in the tree are a hard error, reported with the dotted
field path, so a typo cannot silently fall back to a default; so is a value of
the wrong type.  Files are read with the YAML 1.1 safe loader plus the YAML
1.2 floats with an exponent that PyYAML leaves as strings (``1e-3``,
``1.0e3``), so every number is a number once loaded; the parser only checks
types, and a quoted number is a string.  Summaries echo the mapping as
loaded.  Defaults live on :class:`~fedmoo.core.ExperimentConfig`.  An
experiment is fully replayable from its config file plus nothing else: all
randomness derives from the ``seed`` field.

Top-level keys::

    name                 optional run name (default "run"): one path component, the
                         run's directory under the output root
    M, S, d              client count, objective count, model dimension
    indicator            "identity" | "all_ones" | explicit S x M 0/1 rows
    K, T                 local steps per round, communication rounds
    eta_global           server step size (> 0)
    eta_local            client step size (>= 0)
    mode                 "full_gradient" | "stochastic"
    batch_size           int or "full"; stochastic mode only
    seed                 64-bit integer
    sample_sharing       "per_client" (default) | "per_objective"; stochastic mode only
    normalize_delta_by_K bool, default true
    init                 "zeros" (default) or explicit d-vector
    client_weights       optional M positive weights for imbalanced averaging
    problem              problem section, see below

The problem section names the suite by ``kind``; its other keys and their
types are :data:`fedmoo.problems.SUITES`, and the suite builders' docstrings
document them.  Each key is a keyword argument of the builder, which holds
its default, and ``seed`` defaults to the top-level seed.

Sweep files hold ``base`` (inline config map or path to one), ``axis`` (one
of K, batch_size, eta_local, M, heterogeneity) and ``values``.
"""

from __future__ import annotations

import copy
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .core import ConfigError, ExperimentConfig, IndicatorMatrix, ProblemConfig
from .problems import SUITES

__all__ = ["parse_config", "load_config", "SweepSpec", "load_sweep", "apply_axis"]


class _Loader(yaml.SafeLoader):
    """The safe loader, also reading ``1e-3``, ``1e3``, ``1.0e3`` and ``.5e3`` as floats."""


# PyYAML 1.1 floats need a dot and a signed exponent; YAML 1.2 needs neither
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _load_yaml(path):
    with open(path) as fh:
        return yaml.load(fh, Loader=_Loader)


# Required in files, though ExperimentConfig has defaults for seed and problem.
_REQUIRED = {"M", "S", "d", "indicator", "K", "T", "eta_global", "eta_local", "seed", "problem"}

# Top-level keys checked by type alone; the others have their own parsing.
_SCALARS = {"name": str, "M": int, "S": int, "d": int, "K": int, "T": int,
            "eta_global": float, "eta_local": float, "mode": str, "seed": int,
            "sample_sharing": str, "normalize_delta_by_K": bool}

SWEEP_AXES = ("K", "batch_size", "eta_local", "M", "heterogeneity")

_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _check_type(val, kind, where):
    """``val`` checked to be of ``kind``; floats come back as float."""
    if kind is float:
        return _number(val, where)
    if kind is list:
        return val if val == "auto" else _numbers(val, where)
    # bool is a subclass of int, but not a valid integer field
    if not (isinstance(val, kind) and isinstance(val, bool) == (kind is bool)):
        raise ConfigError(where, f"expected {_KIND_NAMES[kind]}, got {val!r}")
    return val


def _number(value, path) -> float:
    """A finite number (an int or a float, not a bool) as a float."""
    # the bound also excludes inf, nan and ints beyond the float range
    if (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def _numbers(value, path) -> list:
    """A list of numbers, or of such lists, each entry through :func:`_number`."""
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list of numbers, got {value!r}")
    return [_numbers(v, path) if isinstance(v, list) else _number(v, path) for v in value]


def _join(path, key):
    return f"{path}.{key}" if path else key


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError(path or "<root>", f"expected a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")


def _parse_indicator(value, S, M):
    if value == "identity":
        if S != M:
            raise ConfigError("indicator", f"'identity' needs S == M, got S={S}, M={M}")
        return IndicatorMatrix.identity(S)
    if value == "all_ones":
        return IndicatorMatrix.all_ones(S, M)
    if isinstance(value, list):
        if not all(isinstance(row, list) for row in value) or len(set(map(len, value))) > 1:
            raise ConfigError("indicator", f"expected rows of equal length, got {value!r}")
        return IndicatorMatrix(np.array([[_check_type(v, int, "indicator") for v in row]
                                         for row in value]))
    raise ConfigError("indicator", f"expected 'identity', 'all_ones' or a matrix, got {value!r}")


def _check_name(name):
    """A run name is one path component, so its run directory stays under the output root."""
    if name in ("", ".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ConfigError("name", f"must be one path component, got {name!r}")


def parse_config(mapping: dict) -> ExperimentConfig:
    """Validate a loaded key-value tree and build the experiment config.

    Only the keys present are passed on; absent optional keys take the
    defaults of :class:`~fedmoo.core.ExperimentConfig`.
    """
    _check_keys(mapping, {f.name for f in fields(ExperimentConfig)}, "")
    for key in _REQUIRED:
        if key not in mapping:
            raise ConfigError(key, "required key is missing")

    kwargs = {key: _check_type(mapping[key], kind, key)
              for key, kind in _SCALARS.items() if key in mapping}
    for key in ("S", "M"):
        if kwargs[key] < 1:
            raise ConfigError(key, f"must be >= 1, got {kwargs[key]}")
    kwargs["indicator"] = _parse_indicator(mapping["indicator"], kwargs["S"], kwargs["M"])
    if "name" in kwargs:
        _check_name(kwargs["name"])
    if kwargs.get("mode", ExperimentConfig.mode) == "full_gradient":
        for key in ("batch_size", "sample_sharing"):
            if key in mapping:
                raise ConfigError(key, "applies only to mode 'stochastic'")
    batch = mapping.get("batch_size")
    if batch not in (None, "full"):
        if isinstance(batch, bool) or not isinstance(batch, int):
            raise ConfigError("batch_size", f"expected an integer or 'full', got {batch!r}")
        kwargs["batch_size"] = batch
    if mapping.get("init", "zeros") != "zeros":
        kwargs["init"] = _numbers(mapping["init"], "init")
    if mapping.get("client_weights") is not None:
        kwargs["client_weights"] = _numbers(mapping["client_weights"], "client_weights")

    prob_raw = mapping["problem"]
    if not isinstance(prob_raw, dict):
        raise ConfigError("problem", "expected a mapping")
    if "kind" not in prob_raw:
        raise ConfigError("problem.kind", "required key is missing")
    kind = _check_type(prob_raw["kind"], str, "problem.kind")
    if kind not in SUITES:
        raise ConfigError("problem.kind",
                          f"unknown problem kind {kind!r}; expected one of {sorted(SUITES)}")
    types = SUITES[kind][1]
    params = {k: v for k, v in prob_raw.items() if k != "kind"}
    _check_keys(params, types, "problem")
    kwargs["problem"] = ProblemConfig(
        kind, {k: _check_type(v, types[k], f"problem.{k}") for k, v in params.items()})

    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("", str(exc)) from exc


def load_config(path) -> tuple[ExperimentConfig, dict]:
    """Load and validate a config file; returns (config, the mapping as loaded, for echo)."""
    raw = _load_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"{path}: expected a key-value mapping")
    return parse_config(raw), raw


def member_dir(axis: str, value) -> str:
    """Name of a sweep member's output directory under the sweep root."""
    return f"{axis}={value}"


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep: a base config plus the list of values to substitute."""

    base: dict
    axis: str
    values: tuple

    def member_configs(self) -> list[tuple[object, ExperimentConfig, dict]]:
        """(value, parsed config, raw mapping) for every sweep member."""
        out = []
        for value in self.values:
            raw = apply_axis(self.base, self.axis, value)
            out.append((value, parse_config(raw), raw))
        return out


def apply_axis(base_raw: dict, axis: str, value) -> dict:
    """Substitute one sweep-axis value into a copy of the base mapping."""
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    raw = copy.deepcopy(base_raw)
    if axis == "heterogeneity":
        raw.setdefault("problem", {})["heterogeneity"] = value
    elif axis == "M":
        if isinstance(raw.get("indicator"), list):
            raise ConfigError("indicator",
                              "sweeping M needs an indicator pattern ('identity'/'all_ones'), "
                              "not an explicit matrix")
        raw["M"] = value
    else:
        raw[axis] = value
    raw["name"] = f"{raw.get('name', ExperimentConfig.name)}-{axis}={value}"
    return raw


def load_sweep(path) -> SweepSpec:
    """Load a sweep file; ``base`` may be inline or a path relative to the file."""
    raw = _load_yaml(path)
    _check_keys(raw, {"base", "axis", "values"}, "")
    for key in ("base", "axis", "values"):
        if key not in raw:
            raise ConfigError(key, "required key is missing")
    base = raw["base"]
    if isinstance(base, str):
        base = _load_yaml(os.path.join(os.path.dirname(os.path.abspath(path)), base))
    if not isinstance(base, dict):
        raise ConfigError("base", "expected an inline config mapping or a path")
    values = raw["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("values", "expected a nonempty list")
    dirs = [member_dir(raw["axis"], value) for value in values]
    repeated = [name for i, name in enumerate(dirs) if name in dirs[:i]]
    if repeated:
        raise ConfigError("values", f"two values share the member directory {repeated[0]}")
    return SweepSpec(base=base, axis=raw["axis"], values=tuple(values))
