"""Min-norm point in the convex hull of S direction vectors.

Solves min over the probability simplex of ||lambda^T G||^2, the quadratic
subproblem that turns per-objective update vectors into a single common
descent direction.  The solver is Wolfe's min-norm-point method on the
S x S Gram matrix: an active-set loop whose steps solve small KKT systems,
exact after finitely many cycles.  The Frank-Wolfe duality gap, computed
from the direction vectors themselves, gives the optimality certificate on
termination.  A brute-force simplex-lattice oracle is provided for
independent verification in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_direction_set, roundoff_bound, validate_simplex

__all__ = [
    "MinNormSolution",
    "solve_min_norm",
    "closed_form_two",
    "grid_oracle",
    "fw_gap",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class MinNormSolution:
    """Solution of the simplex-constrained min-norm problem.

    ``direction = weights @ G`` and ``norm_sq = ||direction||^2``.  ``fw_gap``
    is the Frank-Wolfe duality gap at the returned point; ``converged`` is
    ``fw_gap <= tol``, and ``termination`` says why the solve stopped.
    """

    weights: np.ndarray
    direction: np.ndarray
    norm_sq: float
    fw_gap: float
    iterations: int
    converged: bool
    termination: str


def fw_gap(G, weights) -> float:
    """Frank-Wolfe duality gap of ``weights`` for min ||lambda^T G||^2.

    Equals 2 * max_s <u, u - G_s> with u = weights^T G.  Zero exactly at the
    optimum; for any feasible point it upper-bounds the suboptimality
    ||u||^2 - ||u*||^2.  Clamped at zero against roundoff, within the
    relative bound of :func:`fedmoo.core.roundoff_bound`; beyond it, raises.
    """
    _, _, raw, scale = _duality_gap(as_direction_set(G), validate_simplex(weights))
    if raw < -roundoff_bound(scale):
        raise AssertionError(f"negative duality gap {raw} indicates an infeasible point")
    return max(raw, 0.0)


def _duality_gap(g, lam):
    """u = lam^T G, ||u||^2, the raw gap 2 (||u||^2 - min_s <G_s, u>), and the
    summed magnitude of the gap's two terms, which scales its roundoff."""
    u = lam @ g
    norm_sq = float(u @ u)
    low = float((g @ u).min())
    return u, norm_sq, 2.0 * (norm_sq - low), 2.0 * (norm_sq + abs(low))


def _affine_min(Q, support) -> np.ndarray:
    """Weights of the min-norm point in the affine hull of the supported vertices.

    Solves the KKT system of min a^T Q_P a subject to sum(a) = 1; two
    vertices use the segment closed form.  A singular system (duplicate or
    affinely dependent vertices) gives NaN weights: least squares on it drops
    the constraint once ``Q`` is large, so :func:`_affine_step` solves it
    from the rows instead.
    """
    if len(support) == 2:
        i, j = support
        # Python floats, so an overflow gives inf or NaN weights and no warning
        denom = Q.item(i, i) - 2.0 * Q.item(i, j) + Q.item(j, j)
        if denom > 0.0:
            second = (Q.item(i, i) - Q.item(i, j)) / denom
            return np.array([1.0 - second, second])
    p = len(support)
    kkt = np.ones((p + 1, p + 1))
    # Q[np.ix_(support, support)] at a third of its cost
    kkt[:p, :p] = Q.take(support, 0).take(support, 1)
    kkt[p, p] = 0.0
    rhs = np.zeros(p + 1)
    rhs[p] = 1.0
    try:
        return np.linalg.solve(kkt, rhs)[:p]
    except np.linalg.LinAlgError:
        return np.full(p, np.nan)


def _affine_step(Q, g, support, from_rows, entering=False):
    """Weights of the min-norm point in the affine hull of the supported
    vertices, and whether they came from the direction vectors ``g``.

    Solves from the Gram matrix (:func:`_affine_min`) until that fails, then
    from ``g`` for the rest of the run: the least-squares problem
    min ||G_0 + b^T (G_P - G_0)||, whose conditioning is that of the vertex
    set rather than its square.  The Gram solve fails when its weights are
    not finite (the closed form or the KKT system overflowed, or the KKT
    system is singular) or, for a vertex ``entering`` the support as its
    last, when roundoff hides that vertex's weight, which is positive in
    exact arithmetic.  The weights from ``g`` are finite: a finite ``Q``
    bounds every entry of ``g`` by ~1.34e154, so ``G_P - G_0`` is finite, and
    least squares on a finite matrix returns finite weights.
    """
    if not from_rows:
        alpha = _affine_min(Q, support)
        if np.isfinite(alpha).all() and (alpha[-1] > 0.0 or not entering):
            return alpha, False
    base = g[support[0]]
    b = np.linalg.lstsq((g[support[1:]] - base).T, -base, rcond=None)[0]
    return np.concatenate([[1.0 - b.sum()], b]), True


def _overflow(n, d) -> MinNormSolution:
    """The ``overflow`` end of a solve: NaN weights and direction, infinite norm and gap."""
    return MinNormSolution(np.full(n, np.nan), np.full(d, np.nan), np.inf, np.inf, 0, False,
                           "overflow")


def solve_min_norm(G, tol: float = DEFAULT_TOL, max_iter: int | None = None) -> MinNormSolution:
    """Minimize ||lambda^T G||^2 over the probability simplex.

    Wolfe's min-norm-point method (Wolfe 1976) on the S x S Gram matrix
    ``Q = G G^T``, starting from the shortest vertex.  Each major cycle
    checks the duality gap, then adds the vertex s minimizing
    ``<G_s, u>`` with u = lambda^T G (ties broken by lowest index) to the
    support.  Minor cycles then move to the min-norm point of the support's
    affine hull, found from its small KKT system; when that point leaves the
    simplex, the step stops where the first weight reaches zero and that
    vertex is dropped.  In exact arithmetic the objective strictly decreases
    per major cycle and the method ends at the exact optimum after finitely
    many cycles, where Frank-Wolfe only converges asymptotically.  When the
    Gram system overflows, is singular or its roundoff hides an entering
    weight, the affine steps are solved from ``G`` itself for the rest of
    the run.

    Terminates when the duality gap drops to ``tol``, when roundoff hides
    the remaining descent (``stalled``: the entering vertex is already
    supported or gets no weight), or after ``max_iter`` updates, each an
    affine solve (default ``10*S*d + 1000``).  The returned direction, norm
    and gap are computed from ``G`` itself, and ``converged`` certifies that
    gap, so a ``gap_tol`` stop on the Gram matrix's roundoff can be unconverged.
    Only an overflowing Gram matrix ends a solve as ``overflow``, with NaN
    weights and direction and no floating-point warning: once ``Q`` is
    finite, so is every affine step from ``G`` (see :func:`_affine_step`).
    The objective does not increase, beyond roundoff, from one update to the
    next, so neither does ``norm_sq`` as ``max_iter`` grows.
    """
    g = as_direction_set(G)
    n, d = g.shape
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter is None:
        max_iter = 10 * n * d + 1000
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    if n == 1:
        lam = np.ones(1)
        u = g[0].copy()
        return MinNormSolution(lam, u, float(u @ u), 0.0, 0, True, "single_objective")

    with np.errstate(over="ignore", invalid="ignore"):  # reported as "overflow" below
        Q = g @ g.T
    if not np.isfinite(Q).all():  # overflowed inner products cannot rank the vertices
        return _overflow(n, d)
    first = int(Q.diagonal().argmin())
    lam = np.zeros(n)
    lam[first] = 1.0
    support = [first]
    from_rows = False
    iterations = 0
    while True:
        scores = Q @ lam
        norm_sq = float(lam @ scores)
        j = int(scores.argmin())
        if 2.0 * (norm_sq - float(scores[j])) <= tol:
            termination = "gap_tol"
            break
        if iterations >= max_iter:
            termination = "max_iter"
            break
        if j in support:  # in exact arithmetic a supported vertex has the gap at zero
            termination = "stalled"
            break
        support.append(j)
        iterations += 1
        alpha, from_rows = _affine_step(Q, g, support, from_rows, entering=True)
        if alpha[-1] <= 0.0:  # in exact arithmetic the entering vertex gets positive weight
            termination = "stalled"
            break
        while not (positive := (alpha > 0.0).all()) and iterations < max_iter:
            # minor cycle: step toward alpha until the first weight hits zero, drop it
            cur = lam[support]
            leaving = np.flatnonzero(alpha <= 0.0)
            ratios = cur[leaving] / (cur[leaving] - alpha[leaving])
            step = cur + ratios.min() * (alpha - cur)
            step[leaving[np.argmin(ratios)]] = 0.0
            keep = step > 0.0
            lam[support] = np.where(keep, step, 0.0)
            support = [s for s, k in zip(support, keep) if k]
            iterations += 1
            alpha, from_rows = _affine_step(Q, g, support, from_rows)
        if positive:
            lam[support] = alpha

    lam /= lam.sum()
    u, norm_sq, final_gap, _ = _duality_gap(g, lam)
    final_gap = max(final_gap, 0.0)  # lam is feasible
    converged = final_gap <= tol
    return MinNormSolution(lam, u, norm_sq, final_gap, iterations, converged, termination)


def closed_form_two(g1, g2) -> MinNormSolution:
    """Exact min-norm point for two direction vectors.

    The minimizer over the segment between g1 and g2 puts weight
    ``clip(<g1 - g2, g1> / ||g1 - g2||^2, 0, 1)`` on g2.  Equal vectors,
    two zero vectors included, get the symmetric tie-break (0.5, 0.5).
    """
    a = np.asarray(g1, dtype=np.float64)
    b = np.asarray(g2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("expected two 1-D vectors of equal length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite direction entries")
    diff = a - b
    denom = float(diff @ diff)
    lam2 = 0.5 if denom == 0.0 else min(1.0, max(0.0, float(diff @ a) / denom))
    lam = np.array([1.0 - lam2, lam2])
    lam /= lam.sum()
    u = lam @ np.vstack([a, b])
    gap = fw_gap(np.vstack([a, b]), lam)
    return MinNormSolution(lam, u, float(u @ u), gap, 0, True, "closed_form")


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def _lattice_min(G: np.ndarray, lattice: np.ndarray) -> tuple[np.ndarray, float]:
    v = lattice @ G
    nsq = np.einsum("ij,ij->i", v, v)
    best = int(np.argmin(nsq))
    return lattice[best], float(nsq[best])


def grid_oracle(G, step: float, refine_to: float | None = None):
    """Brute-force lattice minimizer of ||lambda^T G||^2, for verification only.

    Enumerates every simplex lattice point with resolution ``1/round(1/step)``
    and returns the best (weights, norm_sq).  Limited to S <= 4 objectives;
    the lattice size explodes beyond that.  ``refine_to`` optionally re-scans
    a one-coarse-cell neighborhood of the lattice minimizer at the finer
    resolution, which is how acceptance checks sharpen the reference value
    without enumerating the full fine lattice.
    """
    g = as_direction_set(G)
    n = g.shape[0]
    if n > 4:
        raise ValueError("oracle limited to S <= 4")
    if not 0 < step <= 0.5:
        raise ValueError(f"step must be in (0, 0.5], got {step}")
    cells = round(1.0 / step)
    lattice = _compositions(cells, n) / cells
    best_lam, best_nsq = _lattice_min(g, lattice)

    if refine_to is not None and refine_to < 1.0 / cells and n > 1:
        fine = round(1.0 / refine_to)
        center = np.rint(best_lam * fine).astype(np.int64)
        width = int(np.ceil(fine / cells))
        span = np.arange(-width, width + 1)
        grids = np.meshgrid(*([span] * (n - 1)), indexing="ij")
        offsets = np.stack([o.ravel() for o in grids], axis=1)
        head = center[:-1] + offsets
        tail = fine - head.sum(axis=1)
        ok = (head >= 0).all(axis=1) & (tail >= 0)  # head >= 0 also gives tail <= fine
        if ok.any():
            fine_lattice = np.hstack([head[ok], tail[ok, None]]) / fine
            lam2, nsq2 = _lattice_min(g, fine_lattice)
            if nsq2 < best_nsq:
                best_lam, best_nsq = lam2, nsq2

    return validate_simplex(best_lam), best_nsq
