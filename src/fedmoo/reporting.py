"""Serialization of trajectories: per-round CSV, run summaries, rate reports.

The rounds.csv schema is fixed and versioned: one header plus one row per
round, columns ``t, lambda_1..lambda_S, d_norm_sq, dbar_norm_sq,
running_min_dbar, loss_1..loss_S, delta_Q, fw_gap, lambda_drift``.  Metrics
that are absent for a run (no optimality-gap reference, drift logging off)
stay as empty fields so the column set never varies.  Numbers are written in
shortest round-trip form, so re-reading a file reproduces the exact float
values and derived summaries match the originals bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .federation import TrajectoryLog
from .metrics import fit_rate, rounds_to_threshold, running_min

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_EPS",
    "rounds_header",
    "write_rounds_csv",
    "read_rounds_csv",
    "summarize_columns",
    "build_summary",
    "write_summary_json",
]

FORMAT_VERSION = 1
DEFAULT_EPS = (1e-1, 1e-2, 1e-3)


def _fmt(value) -> str:
    if value is None:
        return ""
    v = float(value)
    return "" if np.isnan(v) else repr(v)


def rounds_header(n_objectives: int) -> str:
    lams = ",".join(f"lambda_{s + 1}" for s in range(n_objectives))
    losses = ",".join(f"loss_{s + 1}" for s in range(n_objectives))
    return f"t,{lams},d_norm_sq,dbar_norm_sq,running_min_dbar,{losses},delta_Q,fw_gap,lambda_drift"


def write_rounds_csv(path, traj: TrajectoryLog) -> None:
    """Write one row per round; a run that diverged in round 1 writes the header only."""
    if traj.records:
        S = traj.records[0].weights.shape[0]
    elif traj.config is not None:
        S = traj.config.S
    else:
        raise ValueError("trajectory has no rounds and no config to size the header")
    run_min = running_min([r.dbar_norm_sq for r in traj.records])
    lines = [rounds_header(S)]
    for rec, rm in zip(traj.records, run_min):
        cells = [str(rec.t)]
        cells += [_fmt(w) for w in rec.weights]
        cells += [_fmt(rec.d_norm_sq), _fmt(rec.dbar_norm_sq), _fmt(rm)]
        cells += [_fmt(v) for v in rec.losses]
        cells += [_fmt(rec.delta_q), _fmt(rec.fw_gap), _fmt(rec.lambda_drift)]
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rounds_csv(path) -> dict:
    """Parse rounds.csv back into column arrays (empty fields become NaN)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    n_lam = sum(1 for h in header if h.startswith("lambda_") and h[7:].isdigit())
    n_loss = sum(1 for h in header if h.startswith("loss_"))
    expected = rounds_header(n_lam)
    if ",".join(header) != expected or n_lam != n_loss:
        raise ValueError(f"{path}: unrecognized rounds.csv header")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    grid = np.array([[float(c) if c else np.nan for c in row]
                     for row in rows]).reshape(len(rows), len(header))
    cols = {
        "t": grid[:, 0].astype(np.int64),
        "lambda": grid[:, 1:1 + n_lam],
        "d_norm_sq": grid[:, 1 + n_lam],
        "dbar_norm_sq": grid[:, 2 + n_lam],
        "running_min_dbar": grid[:, 3 + n_lam],
        "losses": grid[:, 4 + n_lam:4 + n_lam + n_loss],
        "delta_Q": grid[:, 4 + n_lam + n_loss],
        "fw_gap": grid[:, 5 + n_lam + n_loss],
        "lambda_drift": grid[:, 6 + n_lam + n_loss],
    }
    return cols


def _metric_series(cols: dict, f_min=None) -> dict:
    """Named scalar series the summaries and reports are built from."""
    series = {
        "dbar_norm_sq": cols["dbar_norm_sq"],
        "running_min_dbar": cols["running_min_dbar"],
    }
    if not np.isnan(cols["delta_Q"]).all():
        series["delta_Q"] = cols["delta_Q"]
    if f_min is not None:
        series["loss_gap_max"] = (cols["losses"] - np.asarray(f_min)[None, :]).max(axis=1)
    return series


_FIT_MODEL = {
    "dbar_norm_sq": "power",
    "running_min_dbar": "power",
    "delta_Q": "exponential",
    "loss_gap_max": "exponential",
}


def summarize_columns(cols: dict, f_min=None, eps_list=DEFAULT_EPS) -> dict:
    """Thresholds and rate fits per metric series; the single source reports reuse.

    Rate fits use the second half of the trajectory (transients skipped) and
    are omitted for windows shorter than 5 rounds or series with NaNs.
    """
    T = len(cols["t"])
    window = (max(1, T // 2), T)
    out = {"rounds": T, "thresholds": {}, "rate_fits": {}}
    for name, values in _metric_series(cols, f_min).items():
        if np.isnan(values).any():
            continue
        out["thresholds"][name] = {repr(float(eps)): rounds_to_threshold(values, eps)
                                   for eps in eps_list}
        if window[1] - window[0] + 1 >= 5:
            fit = fit_rate(values, window, model=_FIT_MODEL[name], name=name)
            out["rate_fits"][name] = {
                "model": fit.model,
                "slope": fit.slope,
                "residual": fit.residual,
                "window": list(fit.window),
                "clipped": fit.clipped,
            }
    return out


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def build_summary(traj: TrajectoryLog, raw_config: dict, problem,
                  eps_list=DEFAULT_EPS) -> dict:
    """Run summary; ``final`` is None when the run diverged before completing a round."""
    run_min = running_min([r.dbar_norm_sq for r in traj.records])
    cols = {
        "t": np.array([r.t for r in traj.records]),
        "dbar_norm_sq": np.array([r.dbar_norm_sq for r in traj.records]),
        "running_min_dbar": run_min,
        "delta_Q": np.array([np.nan if r.delta_q is None else r.delta_q
                             for r in traj.records]),
        "losses": np.array([r.losses for r in traj.records]).reshape(-1, problem.S),
    }
    f_min = None if problem.f_min is None else np.asarray(problem.f_min)
    summary = {
        "version": __version__,
        "format_version": FORMAT_VERSION,
        "config": _jsonable(raw_config),
        "termination": traj.termination,
        "final": None,
        "f_min": _jsonable(f_min),
        "weighted_output": _jsonable(traj.weighted_output),
    }
    if traj.records:
        last = traj.records[-1]
        summary["final"] = {
            "t": last.t,
            "d_norm_sq": last.d_norm_sq,
            "dbar_norm_sq": last.dbar_norm_sq,
            "running_min_dbar": float(run_min[-1]),
            "delta_Q": last.delta_q,
            "losses": _jsonable(last.losses),
            "point": _jsonable(traj.final_point),
        }
    summary.update(_jsonable(summarize_columns(cols, f_min=f_min, eps_list=eps_list)))
    return summary


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
