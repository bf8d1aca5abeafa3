"""Convergence metrics and rate diagnostics.

For non-convex runs the stationarity measure is ||dbar_t||^2: the round's
simplex weights (solved from accumulated client updates) applied to the true
full gradients at the round's start point.  For strongly convex runs the
measure is the weighted optimality gap delta_Q, evaluated against the exact
minimizer of the round's own weighted scalarization so it is nonnegative by
construction.  Rate fits are plain least squares on log-metric series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import roundoff_bound, validate_simplex
from .minnorm import solve_min_norm

__all__ = [
    "RateFit",
    "dbar_norm_sq",
    "delta_q",
    "lambda_drift",
    "fit_rate",
    "rounds_to_threshold",
    "running_min",
]

_CLIP_FLOOR = 1e-300


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of a metric series on a window of rounds.

    ``model="power"`` fits log y against log t (slope is the decay exponent);
    ``model="exponential"`` fits log y against t.  ``residual`` is the RMS of
    the log-domain fit residuals; ``clipped`` flags that nonpositive series
    values were clamped before taking logs.
    """

    model: str
    slope: float
    residual: float
    window: tuple[int, int]
    clipped: bool = False

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def dbar_norm_sq(weights, x, problem) -> float:
    """||weights^T grad F(x)||^2 with exact full gradients of all objectives."""
    w = validate_simplex(weights)
    u = w @ problem.gradient_matrix(x)
    return float(u @ u)


def delta_q(weights, x, problem) -> float:
    """Weighted optimality gap sum_s w_s [f_s(x) - f_s(x_*)] at x_* = x_*(weights).

    Requires the problem to expose the closed-form scalarization minimizer.
    Nonnegative by definition of x_*; negative roundoff within
    1e-12 * max(1, w . (|f(x)| + |f(x_*)|)) is clamped to zero, anything
    beyond that raises.
    """
    w = validate_simplex(weights)
    if not problem.has_pareto_reference:
        raise ValueError(f"{problem.name} provides no scalarization minimizer for delta_q")
    f_x, f_star = problem.losses(x), problem.losses(problem.pareto_point(w))
    gap = float(w @ (f_x - f_star))
    if gap < -roundoff_bound(float(w @ (np.abs(f_x) + np.abs(f_star)))):
        raise AssertionError(f"delta_q={gap} below roundoff tolerance; "
                             "scalarization minimizer is inconsistent")
    return max(gap, 0.0)


def lambda_drift(weights, x, problem) -> float:
    """L1 distance between the round's weights and the full-gradient optimum.

    Re-solves the min-norm problem on the true gradients at x.  Diagnostic
    only: the full-gradient weights need not be unique, so this is logged and
    never asserted against.
    """
    w = validate_simplex(weights)
    ref = solve_min_norm(problem.gradient_matrix(x))
    return float(np.abs(w - ref.weights).sum())


def fit_rate(series, window, model: str = "power") -> RateFit:
    """Fit a decay rate to per-round scalars on the inclusive round window.

    ``series[i]`` is the value at round t = i + 1.  Windows shorter than 5
    points are refused; zeros and negatives are clipped to 1e-300 (flagged)
    so transiently exact zeros do not poison the log fit.
    """
    y = np.asarray(series, dtype=np.float64)
    t_lo, t_hi = int(window[0]), int(window[1])
    if not 1 <= t_lo <= t_hi <= y.shape[0]:
        raise ValueError(f"window {window} outside rounds [1, {y.shape[0]}]")
    if t_hi - t_lo + 1 < 5:
        raise ValueError(f"window {window} has fewer than 5 points")
    if model not in ("power", "exponential"):
        raise ValueError(f"model must be 'power' or 'exponential', got {model!r}")
    t = np.arange(t_lo, t_hi + 1, dtype=np.float64)
    vals = y[t_lo - 1:t_hi]
    clipped = bool((vals < _CLIP_FLOOR).any())
    logy = np.log(np.maximum(vals, _CLIP_FLOOR))
    xs = np.log(t) if model == "power" else t
    slope, intercept = np.polyfit(xs, logy, 1)
    resid = logy - (slope * xs + intercept)
    return RateFit(model, float(slope), float(np.sqrt(np.mean(resid ** 2))),
                   (t_lo, t_hi), clipped)


def rounds_to_threshold(series, epsilon: float) -> int | None:
    """First round t (1-based) with series value <= epsilon, or None."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    y = np.asarray(series, dtype=np.float64)
    hits = np.flatnonzero(y <= epsilon)
    return int(hits[0]) + 1 if hits.size else None


def running_min(series) -> np.ndarray:
    """Cumulative minimum, the min_{tau <= t} form of the stationarity metric."""
    return np.minimum.accumulate(np.asarray(series, dtype=np.float64))
