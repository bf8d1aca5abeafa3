"""Config file parsing: a strict YAML key-value schema for experiments and sweeps.

Unknown keys anywhere in the tree are a hard error, reported with the dotted
field path, so a typo cannot silently fall back to a default; so is a value of
the wrong type.  Numeric fields also take the strings PyYAML makes of numbers
such as ``1e-3``.  An experiment is fully replayable from its config file
plus nothing else: all randomness derives from the ``seed`` field.

Top-level keys::

    name                 optional run name (default "run")
    M, S, d              client count, objective count, model dimension
    indicator            "identity" | "all_ones" | explicit S x M 0/1 rows
    K, T                 local steps per round, communication rounds
    eta_global           server step size (> 0)
    eta_local            client step size (>= 0)
    mode                 "full_gradient" | "stochastic"
    batch_size           int or "full"; stochastic mode only
    seed                 64-bit integer
    sample_sharing       "per_client" (default) | "per_objective"
    normalize_delta_by_K bool, default true
    init                 "zeros" (default) or explicit d-vector
    snapshot_every       int >= 0, default 0 (no snapshots)
    client_weights       optional M positive weights for imbalanced averaging
    problem              problem section, see below

Problem sections (``kind`` selects the suite)::

    kind: quadratic      centers ("auto" or S x d rows), curvature,
                         heterogeneity, curvature_spread, n_per_client,
                         data_spread, seed
    kind: nonconvex      n_terms, ridge, heterogeneity, amp_noise,
                         n_per_client, seed
    kind: classification n_per_client, partition ("iid" | "label_skew"),
                         labels_per_client, n_components, feature_scale,
                         ridge, noise, seed

Sweep files hold ``base`` (inline config map or path to one), ``axis`` (one
of K, batch_size, eta_local, M, heterogeneity) and ``values``.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import numpy as np
import yaml

from .core import ConfigError, ExperimentConfig, IndicatorMatrix, ProblemConfig

__all__ = ["parse_config", "load_config", "SweepSpec", "load_sweep", "apply_axis"]

_TOP_KEYS = {
    "name", "M", "S", "d", "indicator", "K", "T", "eta_global", "eta_local",
    "mode", "batch_size", "seed", "sample_sharing", "normalize_delta_by_K",
    "init", "snapshot_every", "client_weights", "problem",
}
_REQUIRED = {"M", "S", "d", "indicator", "K", "T", "eta_global", "eta_local", "seed", "problem"}

# Problem keys per kind and their types; ``list`` is "auto" or rows of numbers.
_PROBLEM_KEYS = {
    "quadratic": {"centers": list, "curvature": float, "heterogeneity": float,
                  "curvature_spread": float, "n_per_client": int, "data_spread": float,
                  "seed": int},
    "nonconvex": {"n_terms": int, "ridge": float, "heterogeneity": float, "amp_noise": float,
                  "n_per_client": int, "seed": int},
    "classification": {"n_per_client": int, "partition": str, "labels_per_client": int,
                       "task_overlap": float, "independent_labels": bool,
                       "n_components": int, "feature_scale": float, "ridge": float,
                       "noise": float, "seed": int},
}

SWEEP_AXES = ("K", "batch_size", "eta_local", "M", "heterogeneity")

_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _need(mapping, key, path, kind, required=True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(_join(path, key), "required key is missing")
        return default
    val = mapping[key]
    where = _join(path, key)
    if kind is float:
        return _number(val, where)
    if kind is list:
        return val if val == "auto" else _numbers(val, where)
    # bool is a subclass of int, but not a valid integer field
    if not (isinstance(val, kind) and isinstance(val, bool) == (kind is bool)):
        raise ConfigError(where, f"expected {_KIND_NAMES[kind]}, got {val!r}")
    return val


def _number(value, path) -> float:
    """The one coercion of numeric fields: a YAML number or a string holding one."""
    # PyYAML reads 1e-3 (no dot) and 1.0e3 (no exponent sign) as strings
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            number = float(value)
        except ValueError:
            pass
        else:
            if np.isfinite(number):
                return number
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def _numbers(value, path) -> list:
    """A list of numbers, or of such lists, each entry through :func:`_number`."""
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list of numbers, got {value!r}")
    return [_numbers(v, path) if isinstance(v, list) else _number(v, path) for v in value]


def _as_parsed(raw, parsed):
    """``raw`` with every string that was parsed as a number replaced by that number."""
    if isinstance(raw, str):
        return parsed if isinstance(parsed, float) else raw
    if isinstance(raw, dict) and isinstance(parsed, dict):
        return {k: _as_parsed(v, parsed.get(k)) for k, v in raw.items()}
    if isinstance(raw, list) and isinstance(parsed, list):
        return [_as_parsed(r, p) for r, p in zip(raw, parsed)]
    return raw


def _echo(raw: dict, config: ExperimentConfig) -> dict:
    """The mapping echoed into summaries: as written, except that numbers YAML
    read as strings, and every ``init`` entry, are echoed as parsed."""
    echo = _as_parsed(raw, config.to_dict())
    if config.init is not None:
        echo["init"] = [float(v) for v in config.init]
    return echo


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
        return IndicatorMatrix(np.asarray(value))
    raise ConfigError("indicator", f"expected 'identity', 'all_ones' or a matrix, got {value!r}")


def parse_config(mapping: dict) -> ExperimentConfig:
    """Validate a parsed key-value tree and build the experiment config."""
    _check_keys(mapping, _TOP_KEYS, "")
    for key in _REQUIRED:
        if key not in mapping:
            raise ConfigError(key, "required key is missing")

    S = _need(mapping, "S", "", int)
    M = _need(mapping, "M", "", int)
    d = _need(mapping, "d", "", int)
    if S < 1 or M < 1 or d < 1:
        raise ConfigError("S", f"S, M, d must all be >= 1, got S={S}, M={M}, d={d}")
    indicator = _parse_indicator(mapping["indicator"], S, M)

    mode = _need(mapping, "mode", "", str, required=False, default="full_gradient")
    mode = mode.replace("-", "_")
    batch = mapping.get("batch_size")
    if batch == "full":
        batch = None
    elif batch is not None and (isinstance(batch, bool) or not isinstance(batch, int)):
        raise ConfigError("batch_size", f"expected an integer or 'full', got {batch!r}")

    init = mapping.get("init", "zeros")
    init = None if init == "zeros" else _numbers(init, "init")
    client_weights = mapping.get("client_weights")
    if client_weights is not None:
        client_weights = _numbers(client_weights, "client_weights")

    prob_raw = mapping["problem"]
    if not isinstance(prob_raw, dict):
        raise ConfigError("problem", "expected a mapping")
    kind = _need(prob_raw, "kind", "problem", str)
    if kind not in _PROBLEM_KEYS:
        raise ConfigError("problem.kind",
                          f"unknown problem kind {kind!r}; expected one of "
                          f"{sorted(_PROBLEM_KEYS)}")
    types = _PROBLEM_KEYS[kind]
    params = {k: v for k, v in prob_raw.items() if k != "kind"}
    _check_keys(params, types, "problem")
    problem = ProblemConfig(kind, {k: _need(params, k, "problem", types[k]) for k in params})

    try:
        return ExperimentConfig(
            M=M, S=S, indicator=indicator, d=d,
            K=_need(mapping, "K", "", int),
            T=_need(mapping, "T", "", int),
            eta_global=_need(mapping, "eta_global", "", float),
            eta_local=_need(mapping, "eta_local", "", float),
            mode=mode,
            batch_size=batch,
            seed=_need(mapping, "seed", "", int),
            sample_sharing=_need(mapping, "sample_sharing", "", str,
                                 required=False, default="per_client"),
            normalize_delta_by_K=_need(mapping, "normalize_delta_by_K", "", bool,
                                       required=False, default=True),
            problem=problem,
            init=init,
            snapshot_every=_need(mapping, "snapshot_every", "", int,
                                 required=False, default=0),
            client_weights=client_weights,
            name=_need(mapping, "name", "", str, required=False, default="run"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("", str(exc)) from exc


def load_config(path) -> tuple[ExperimentConfig, dict]:
    """Load and validate a config file; returns (config, mapping for echo)."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"{path}: expected a key-value mapping")
    config = parse_config(raw)
    return config, _echo(raw, config)


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
            config = parse_config(raw)
            out.append((value, config, _echo(raw, config)))
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
    raw["name"] = f"{raw.get('name', 'run')}-{axis}={value}"
    return raw


def load_sweep(path) -> SweepSpec:
    """Load a sweep file; ``base`` may be inline or a path relative to the file."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    _check_keys(raw, {"base", "axis", "values"}, "")
    for key in ("base", "axis", "values"):
        if key not in raw:
            raise ConfigError(key, "required key is missing")
    base = raw["base"]
    if isinstance(base, str):
        base_path = os.path.join(os.path.dirname(os.path.abspath(path)), base)
        with open(base_path) as fh:
            base = yaml.safe_load(fh)
    if not isinstance(base, dict):
        raise ConfigError("base", "expected an inline config mapping or a path")
    values = raw["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("values", "expected a nonempty list")
    return SweepSpec(base=base, axis=raw["axis"], values=tuple(values))
