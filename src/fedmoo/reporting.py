"""Serialization of trajectories: per-round CSV, run summaries, rate reports.

The rounds.csv schema is :data:`COLUMNS`, fixed and versioned: one header
plus one row per round, ``t, lambda_1..lambda_S, d_norm_sq, dbar_norm_sq,
running_min_dbar, loss_1..loss_S, delta_Q, fw_gap, lambda_drift``.  The
writer, the reader and the summaries all work from the column arrays of
:func:`round_columns`.  The one metric a run can lack, ``delta_Q`` (no
optimality-gap reference), is NaN on the record and in the columns, an empty
field in the file and null in the summary, so the column set never varies.
Numbers are written in shortest round-trip form, so reading a file back gives
exactly the arrays it was written from.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .core import STREAM_VERSION
from .federation import TrajectoryLog
from .metrics import fit_rate, rounds_to_threshold, running_min

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_EPS",
    "COLUMNS",
    "format_cell",
    "rounds_header",
    "round_columns",
    "write_rounds_csv",
    "read_rounds_csv",
    "summarize_columns",
    "build_summary",
    "write_summary_json",
]

FORMAT_VERSION = 1
DEFAULT_EPS = (1e-1, 1e-2, 1e-3)

# rounds.csv columns in file order: key -> stem of the per-objective columns
# it widens to (<stem>_1..<stem>_S), or None for one column named by its key.
COLUMNS = {"t": None, "lambda": "lambda", "d_norm_sq": None, "dbar_norm_sq": None,
           "running_min_dbar": None, "losses": "loss", "delta_Q": None, "fw_gap": None,
           "lambda_drift": None}

# The RoundRecord attribute behind each column whose key differs from it;
# running_min_dbar is derived from dbar_norm_sq, not stored.
_RECORD_ATTRS = {"lambda": "weights", "delta_Q": "delta_q"}

# The columns summary.json's ``final`` repeats, in its order.
_FINAL_KEYS = ("t", "d_norm_sq", "dbar_norm_sq", "running_min_dbar", "delta_Q", "losses")


def format_cell(value) -> str:
    """A CSV cell: the shortest repr that round-trips, empty for NaN."""
    return "" if np.isnan(value) else repr(float(value))


def _json_value(value):
    """``value`` as JSON data: arrays as lists and every non-finite float as null,
    since JSON (RFC 8259) has no NaN or infinity."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def rounds_header(n_objectives: int) -> str:
    return ",".join(f"{stem}_{s + 1}" if stem else key
                    for key, stem in COLUMNS.items()
                    for s in range(n_objectives if stem else 1))


def round_columns(traj: TrajectoryLog) -> dict:
    """The rounds.csv columns of a trajectory, exactly as :func:`read_rounds_csv` returns them.

    ``t`` is int64 and every other column float64; ``lambda`` and ``losses``
    are (T, S) even when S is 1 or T is 0; absent metrics are NaN.
    """
    records = traj.records
    if not records and traj.config is None:
        raise ValueError("trajectory has no rounds and no config to size the header")
    S = records[0].weights.shape[0] if records else traj.config.S
    cols = {key: np.array([getattr(r, _RECORD_ATTRS.get(key, key)) for r in records],
                          dtype=np.int64 if key == "t" else np.float64)
            for key in COLUMNS if key != "running_min_dbar"}
    cols["running_min_dbar"] = running_min(cols["dbar_norm_sq"])
    return {key: cols[key].reshape(-1, S) if stem else cols[key]
            for key, stem in COLUMNS.items()}


def write_rounds_csv(path, traj: TrajectoryLog) -> None:
    """Write one row per round; a run that diverged in round 1 writes the header only."""
    cols = round_columns(traj)
    cells = np.column_stack([cols[key] for key in COLUMNS if key != "t"])
    lines = [rounds_header(cols["lambda"].shape[1])]
    lines += [",".join([str(t), *map(format_cell, row)]) for t, row in zip(cols["t"], cells)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rounds_csv(path) -> dict:
    """Parse rounds.csv back into the column arrays of :func:`round_columns`."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",") if lines else []
    S = sum(1 for h in header if h.startswith("lambda_") and h[7:].isdigit())
    if S < 1 or lines[0] != rounds_header(S):
        raise ValueError(f"{path}: unrecognized rounds.csv header")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    grid = np.array([[float(c) if c else np.nan for c in row]
                     for row in rows]).reshape(len(rows), len(header))
    widths = [S if stem else 1 for stem in COLUMNS.values()]
    blocks = np.split(grid, np.cumsum(widths)[:-1], axis=1)
    cols = {key: block if stem else block[:, 0]
            for (key, stem), block in zip(COLUMNS.items(), blocks)}
    cols["t"] = cols["t"].astype(np.int64)
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


def summarize_columns(cols: dict, f_min=None) -> dict:
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
                                   for eps in DEFAULT_EPS}
        if window[1] - window[0] + 1 >= 5:
            fit = fit_rate(values, window, model=_FIT_MODEL[name])
            out["rate_fits"][name] = {
                "model": fit.model,
                "slope": fit.slope,
                "residual": fit.residual,
                "window": list(fit.window),
                "clipped": fit.clipped,
            }
    return out


def build_summary(traj: TrajectoryLog, raw_config: dict, problem) -> dict:
    """Run summary; ``final`` is None when the run diverged before completing a round.

    ``format_version`` versions the file layout and ``stream_version`` the
    random streams (:data:`fedmoo.core.STREAM_VERSION`) that drew the run's
    minibatches, so a summary says which draws it reproduces.

    ``final`` is the last row of :func:`round_columns` over ``_FINAL_KEYS``,
    plus the final point, each non-finite float as null.  ``raw_config``, the
    mapping the config parser accepted, holds only YAML values and is echoed
    as given.
    """
    cols = round_columns(traj)
    f_min = None if problem.f_min is None else np.asarray(problem.f_min)
    summary = {
        "version": __version__,
        "format_version": FORMAT_VERSION,
        "stream_version": STREAM_VERSION,
        "config": raw_config,
        "termination": traj.termination,
        "final": None,
        "f_min": None if f_min is None else f_min.tolist(),
        "weighted_output": (None if traj.weighted_output is None
                            else traj.weighted_output.tolist()),
    }
    if traj.records:
        summary["final"] = _json_value({**{key: cols[key][-1] for key in _FINAL_KEYS},
                                        "point": traj.final_point})
    summary.update(summarize_columns(cols, f_min=f_min))
    return summary


def write_summary_json(path, summary: dict) -> None:
    """Write a run or sweep summary with every non-finite float as null."""
    with open(path, "w") as fh:
        json.dump(_json_value(summary), fh, indent=2, allow_nan=False)
        fh.write("\n")
