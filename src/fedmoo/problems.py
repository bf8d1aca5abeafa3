"""Synthetic multi-objective problem suites with per-client data shards.

Each suite exposes per-(objective, client) losses and exact gradients, an
unbiased minibatch gradient sampler, and the curvature constants the round
engine's step-size bounds need.  The quadratic suite additionally carries a
closed-form map from simplex weights to the exact minimizer of the weighted
scalarization, which is what makes the optimality-gap metric computable.

Heterogeneity is controlled by explicit knobs: client centers or coefficients
are spread around the objective's base parameters, and data shards can be
partitioned i.i.d. or with label skew (each client seeing at most a fixed
number of distinct labels).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ExperimentConfig, IndicatorMatrix

__all__ = [
    "Problem",
    "QuadraticProblem",
    "TanhRidgeProblem",
    "LogisticTasksProblem",
    "quadratic_suite",
    "toy_nonconvex_suite",
    "synthetic_classification_suite",
    "PartitionPlan",
    "partition",
    "SUITES",
    "build_problem",
]

# |d/dz tanh'(z)| peaks at 4 / (3 sqrt(3)); scales the tanh Hessian bound.
_TANH_CURV = 4.0 / (3.0 * np.sqrt(3.0))

# Sub-seeds separating the independent generation stages of a suite; stage ``tag``
# draws from ``default_rng([seed mod 2**64, tag, *key])``:
#   11 quadratic client-center offsets, then curvatures; 12 tanh; 13 classification;
#   14 partition; 15 quadratic "auto" centers; 16 quadratic anchors, keyed by objective.
_TAG_QUAD, _TAG_TANH, _TAG_CLS, _TAG_PART, _TAG_CENTERS, _TAG_ANCHORS = 11, 12, 13, 14, 15, 16


def _rng(seed, tag: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2**64 - 1), tag, *key])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _scalar(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, the form of a numeric operand
    on the per-call path (see ``Problem``)."""
    return _read_only(np.array(value, dtype=np.float64))


_ZERO, _ONE, _MINUS_ONE = _scalar(0.0), _scalar(1.0), _scalar(-1.0)


@functools.lru_cache(maxsize=64)
def _count(n: int) -> np.ndarray:
    """The sample count ``n`` as a read-only 0-d float64, for dividing by it."""
    return _scalar(n)


def _check_at_least(bound, **values):
    for key, value in values.items():
        if not value >= bound:
            raise ValueError(f"{key} must be >= {bound}, got {value}")


class Problem:
    """Base class for federated multi-objective problems.

    Subclasses implement the per-(objective, client) surface: ``loss``,
    ``stoch_grad`` and ``shard_size``.  ``grad`` is the exact ``stoch_grad``
    (``indices=None``), so each suite writes its gradient formula once.
    ``stoch_grad`` computes the gradient of exactly the indices it is given,
    repeats and all, even when they are as many as the shard holds; ``None``
    is the one exact batch.  The round engine alone decides when a batch is
    exact: it passes ``None`` for a batch that covers the shard.  The
    global objective for s is the average of ``loss(s, i, .)`` over the owner
    set, accumulated in ascending client order so that every consumer sees
    bit-identical values.  A subclass may override ``global_loss`` and
    ``global_grad`` with closed forms, but never ``losses`` or
    ``gradient_matrix``: the benchmark counts calls to those two on this
    class, and an override would hide them.  A suite's public arrays are
    read-only after construction; each built-in suite builds a table of
    per-shard operands from them, so ``stoch_grad`` reads one entry instead
    of indexing the arrays on every call.  Every numeric scalar such a call
    passes to a ufunc is a read-only 0-d float64 array, not a Python float:
    NumPy 2 converts a Python scalar operand on every call, which at d=200
    made ``np.multiply(out, q, out)`` 1.45 us instead of 1.01 us.

    ``grad`` and ``stoch_grad`` take an optional ``out``: a float64 (d,)
    array that never overlaps ``x``.  A suite may write the gradient into it
    and return it, or ignore it and return its own array; callers use the
    returned array either way.  Without ``out`` the gradient is a new array.
    """

    name = "problem"

    def __init__(self, indicator: IndicatorMatrix, d: int):
        self.indicator = indicator
        self.S = indicator.n_objectives
        self.M = indicator.n_clients
        self.d = d
        self.mu = 0.0
        self.smoothness = 0.0
        self.grad_bound: float | None = None
        self.stoch_grad_bound: float | None = None
        self.f_min: np.ndarray | None = None

    # per-shard surface -------------------------------------------------
    def loss(self, s: int, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, s: int, i: int, x: np.ndarray, out=None) -> np.ndarray:
        """Exact shard gradient."""
        return self.stoch_grad(s, i, x, None, out)

    def stoch_grad(self, s: int, i: int, x: np.ndarray, indices, out=None) -> np.ndarray:
        """Gradient of the shard samples at ``indices``; ``indices=None`` is exact."""
        raise NotImplementedError

    def shard_size(self, i: int) -> int:
        raise NotImplementedError

    # global objectives --------------------------------------------------
    def global_loss(self, s: int, x: np.ndarray) -> float:
        owners = self.indicator.owner_sets[s]
        acc = 0.0
        for i in owners:
            acc += self.loss(s, i, x)
        return acc / len(owners)

    def global_grad(self, s: int, x: np.ndarray) -> np.ndarray:
        owners = self.indicator.owner_sets[s]
        acc = np.zeros(self.d)
        g = np.empty(self.d)  # every owner's gradient, in turn
        for i in owners:
            acc += self.grad(s, i, x, g)
        acc /= len(owners)
        return acc

    def losses(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.global_loss(s, x) for s in range(self.S)])

    def gradient_matrix(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.global_grad(s, x) for s in range(self.S)])

    # optional closed forms ----------------------------------------------
    def pareto_point(self, weights: np.ndarray) -> np.ndarray:
        """Exact minimizer of the weighted scalarization, when one exists."""
        raise NotImplementedError(f"{self.name} has no closed-form scalarization minimizer")

    @property
    def has_pareto_reference(self) -> bool:
        return type(self).pareto_point is not Problem.pareto_point


class QuadraticProblem(Problem):
    """Per-shard quadratic bowls q_si/2 ||x - c_si||^2 with anchor-point data.

    Client centers are spread around each objective's base center with the
    mean offset removed, so the base centers are exactly the global minima of
    the homogeneous suite.  Every shard holds ``n_per_client`` anchor points
    whose mean is exactly the client center; a minibatch gradient replaces the
    center by the sampled anchors' mean, giving an exactly unbiased estimate.

    Objective s's (M, n, d) anchors are a function of ``(seed, s)`` alone
    (``_draw_anchors``).  The constructor draws them one objective at a time,
    keeps only the closed-form loss constants and frees each one, so exact
    gradients never hold anchors.  ``anchors`` draws them again on first use.
    """

    name = "quadratic"

    def __init__(self, indicator, centers, client_centers, client_curv, n_per_client,
                 data_spread, seed):
        S, M, d = client_centers.shape
        super().__init__(indicator, d)
        self.centers = _read_only(centers)
        # read-only: the operand and loss tables below view them
        self.client_centers = _read_only(client_centers)
        self.client_curv = _read_only(client_curv)
        self.n_per_client = n_per_client
        self.data_spread = data_spread
        self.seed = seed
        self._anchors = None
        self._anchors_lock = threading.Lock()
        # mean_j ||a_j - c||^2 completes the closed-form shard loss, one objective at a time
        self._anchor_const = np.empty((S, M))
        # _loss_table[s] = (C, a, h): the owners' center rows, anchor constants and halved
        # curvatures, as views when the owners are consecutive, so that global_loss reads
        # one entry; built before f_min, which global_loss computes
        self._loss_table = []
        mean_curv, eff_centers = np.empty(S), np.empty((S, d))
        for s, owners in enumerate(indicator.owner_sets):
            dev = self._draw_anchors(s)
            dev -= client_centers[s, :, None, :]  # the freshly drawn anchors become deviations
            self._anchor_const[s] = np.einsum("mjd,mjd->m", dev, dev) / n_per_client
            del dev  # free it before the next objective is drawn
            rows = _as_slice(np.asarray(owners, dtype=np.int64))
            curv, rows_centers = client_curv[s, rows], client_centers[s, rows]
            self._loss_table.append((_read_only(rows_centers),
                                     _read_only(self._anchor_const[s, rows]),
                                     _read_only(0.5 * curv)))
            mean_curv[s] = curv.mean()
            # curvature-weighted effective center of the global objective
            eff_centers[s] = (curv[:, None] * rows_centers).sum(0) / curv.sum()
            self.smoothness = max(self.smoothness, float(curv.max()))
        _read_only(self._anchor_const)
        self.mean_curv = _read_only(mean_curv)
        self.eff_centers = _read_only(eff_centers)
        self.mu = float(mean_curv.min())
        self.f_min = _read_only(np.array([self.global_loss(s, self.eff_centers[s])
                                          for s in range(self.S)]))
        # _operands[s][i] = (q_si, c_si): the shard's curvature (a 0-d view) and center
        # row, so that stoch_grad reads one entry
        self._operands = [[(client_curv[s, i, ...], client_centers[s, i])
                           for i in range(M)] for s in range(S)]

    def _draw_anchors(self, s: int) -> np.ndarray:
        """Objective s's (M, n, d) anchors, drawn from the generator keyed by ``(seed,
        s)``: standard normals scaled by ``data_spread`` around the client centers,
        then shifted so that each shard's mean is exactly its center."""
        centers = self.client_centers[s, :, None, :]
        a = _rng(self.seed, _TAG_ANCHORS, s).standard_normal(
            (self.M, self.n_per_client, self.d))
        a *= self.data_spread
        a += centers
        a -= a.mean(axis=1, keepdims=True) - centers
        return a

    @property
    def anchors(self) -> list:
        """The S (M, n, d) anchor arrays, one per objective.

        Drawn on first use, once per problem even when several threads ask
        at once, and kept: every later read returns the same list.
        """
        if self._anchors is None:
            with self._anchors_lock:
                if self._anchors is None:
                    self._anchors = [self._draw_anchors(s) for s in range(self.S)]
        return self._anchors

    def loss(self, s, i, x):
        diff = x - self.client_centers[s, i]
        return 0.5 * self.client_curv[s, i] * (float(diff @ diff) + self._anchor_const[s, i])

    def stoch_grad(self, s, i, x, indices, out=None):
        curv, center = self._operands[s][i]
        if indices is not None:
            center = self.anchors[s][i, indices].mean(axis=0)
        out = np.subtract(x, center, out)
        return np.multiply(out, curv, out)

    def global_loss(self, s, x):
        """The closed-form shard losses of all owners at once, then their mean."""
        centers, const, half_curv = self._loss_table[s]
        diff = x - centers
        sq = np.einsum("id,id->i", diff, diff)
        sq += const
        sq *= half_curv
        return float(np.add.reduce(sq)) / len(sq)

    def shard_size(self, i):
        return self.n_per_client

    def pareto_point(self, weights):
        w = np.asarray(weights, dtype=np.float64) * self.mean_curv
        return (w @ self.eff_centers) / w.sum()


def quadratic_suite(d, A: IndicatorMatrix, *, centers="auto", curvature=1.0,
                    heterogeneity=0.0, curvature_spread=0.0, n_per_client=32,
                    data_spread=1.0, seed=0) -> QuadraticProblem:
    """Build the strongly convex quadratic suite.

    Keys: ``centers`` is ``"auto"`` (unit-norm rows drawn from ``seed``) or
    S x d base centers; ``curvature`` (> 0) is the base curvature;
    ``heterogeneity`` (>= 0) is the spread of client centers around each base
    center; ``curvature_spread`` (in [0, 1)) lets per-shard curvatures vary
    around ``curvature``, which makes accumulated local updates genuinely
    biased and so gives the local-step error floor something to show;
    ``n_per_client`` anchor points per shard lie ``data_spread`` (>= 0)
    around the client center.  With ``heterogeneity`` and ``curvature_spread``
    at zero all shards of an objective are identical.  Objective s's (M,
    n_per_client, d) anchors come from a generator keyed by ``(seed, s)``
    alone, so no other draw (center offsets, curvatures, another objective)
    moves them.  The build draws each objective only for its loss constants
    and frees it, and the problem draws them again on the first minibatch
    gradient.  A full-gradient run never holds them.
    """
    S, M = A.n_objectives, A.n_clients
    _check_at_least(1, n_per_client=n_per_client)
    _check_at_least(0, heterogeneity=heterogeneity, data_spread=data_spread)
    if not curvature > 0:
        raise ValueError(f"curvature must be > 0, got {curvature}")
    if not 0 <= curvature_spread < 1:
        raise ValueError(f"curvature_spread must be in [0, 1), got {curvature_spread}")
    if isinstance(centers, str) and centers == "auto":
        centers = _rng(seed, _TAG_CENTERS).standard_normal((S, d))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers = np.array(centers, dtype=np.float64)  # a copy: the problem makes it read-only
    if centers.shape != (S, d):
        raise ValueError(f"centers must have shape ({S}, {d}), got {centers.shape}")

    rng = _rng(seed, _TAG_QUAD)
    client_centers = np.broadcast_to(centers[:, None, :], (S, M, d)).copy()
    for s, owners in enumerate(A.owner_sets):
        if len(owners) > 1 and heterogeneity > 0:
            offs = heterogeneity * rng.standard_normal((len(owners), d))
            offs -= offs.mean(axis=0)
            client_centers[s, list(owners)] += offs
    client_curv = curvature * (1.0 + curvature_spread * rng.uniform(-1.0, 1.0, (S, M)))
    return QuadraticProblem(A, centers, client_centers, client_curv, n_per_client,
                            data_spread, seed)


class TanhRidgeProblem(Problem):
    """Smooth bounded-gradient non-convex objectives from tanh mixtures.

    f_si(x) = sum_j a_j tanh(<w_j, x> + b_j) + ridge/2 ||x||^2 with per-client
    amplitude and offset perturbations.  Stochastic samples rescale the
    amplitudes by shard-centered factors, so the shard mean recovers the exact
    objective and minibatch gradients are unbiased.
    """

    name = "tanh_ridge"

    def __init__(self, indicator, d, weights, amps, offsets, amp_eps, ridge):
        super().__init__(indicator, d)
        # read-only: the operand table below views them
        self.term_weights = _read_only(weights)     # (S, J, d), shared across clients
        self.client_amps = _read_only(amps)         # (S, M, J)
        self.client_offsets = _read_only(offsets)   # (S, M, J)
        self.amp_eps = _read_only(amp_eps)          # (S, M, n, J), column-centered
        self.ridge = float(ridge)
        self._ridge = _scalar(ridge)
        self.n_per_client = amp_eps.shape[2]
        # _operands[s][i] = (W_s, W_s.T, amp_si, offset_si, eps_si), so that stoch_grad
        # reads one entry
        self._operands = [[(weights[s], weights[s].T, amps[s, i], offsets[s, i], amp_eps[s, i])
                           for i in range(self.M)] for s in range(self.S)]

        row_norms = np.linalg.norm(weights, axis=2)            # (S, J)
        owners = indicator.owner_sets
        g_bound = 0.0
        d_bound = 0.0
        l_bound = 0.0
        for s in range(self.S):
            for i in owners[s]:
                amp = np.abs(amps[s, i])
                g_bound = max(g_bound, float(amp @ row_norms[s]))
                per_sample = np.abs(amps[s, i] * (1.0 + amp_eps[s, i])) @ row_norms[s]
                d_bound = max(d_bound, float(per_sample.max()))
                l_bound = max(l_bound, _TANH_CURV * float(amp @ row_norms[s] ** 2))
        self.smoothness = l_bound + self.ridge
        self.grad_bound = g_bound if ridge == 0.0 else None
        self.stoch_grad_bound = d_bound if ridge == 0.0 else None
        self.lower_bound = -float(np.abs(amps).sum(axis=2).max()) if ridge == 0.0 else None

    def loss(self, s, i, x):
        W, _, amp, offset, _ = self._operands[s][i]
        t = W @ x
        t += offset
        val = float(amp @ np.tanh(t, t))
        return val + 0.5 * self.ridge * float(x @ x)

    def stoch_grad(self, s, i, x, indices, out=None):
        W, WT, amp, offset, eps = self._operands[s][i]
        if indices is not None:  # amp * (1 + mean of the sampled eps rows)
            scale = np.add.reduce(eps.take(indices, axis=0))
            scale /= _count(len(indices))
            scale += _ONE
            scale *= amp
            amp = scale
        th = W @ x
        th += offset
        np.tanh(th, th)
        th *= th
        np.subtract(_ONE, th, th)
        th *= amp
        out = np.matmul(WT, th, out)
        return np.add(out, self._ridge * x, out)

    def shard_size(self, i):
        return self.n_per_client


def toy_nonconvex_suite(d, A: IndicatorMatrix, *, n_terms=6, ridge=0.0, heterogeneity=0.2,
                        amp_noise=0.3, n_per_client=64, seed=0) -> TanhRidgeProblem:
    """Build the non-convex tanh-mixture suite with reported G and L constants.

    Keys: each objective sums ``n_terms`` tanh terms plus ``ridge``/2 ||x||^2
    (``ridge >= 0``; a negative one would leave the objective unbounded below);
    ``heterogeneity`` (>= 0) perturbs each client's amplitudes and offsets
    around the objective's; each shard holds ``n_per_client`` samples whose
    amplitude factors have spread ``amp_noise`` (>= 0); ``seed`` fixes the
    instance.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_at_least(1, n_terms=n_terms, n_per_client=n_per_client)
    _check_at_least(0, ridge=ridge, heterogeneity=heterogeneity, amp_noise=amp_noise)
    S, M = A.n_objectives, A.n_clients
    rng = _rng(seed, _TAG_TANH)

    weights = rng.standard_normal((S, n_terms, d)) / np.sqrt(d)
    base_amp = rng.uniform(0.5, 1.5, (S, n_terms)) * rng.choice([-1.0, 1.0], (S, n_terms))
    base_off = rng.standard_normal((S, n_terms))
    amps = base_amp[:, None, :] * (1.0 + heterogeneity * rng.uniform(-1.0, 1.0, (S, M, n_terms)))
    offsets = base_off[:, None, :] + heterogeneity * rng.standard_normal((S, M, n_terms))
    eps = amp_noise * rng.standard_normal((S, M, n_per_client, n_terms))
    eps -= eps.mean(axis=2, keepdims=True)
    return TanhRidgeProblem(A, d, weights, amps, offsets, eps, ridge)


class LogisticTasksProblem(Problem):
    """S binary logistic tasks on per-task views of shared mixture samples.

    Every sample has one raw vector: a shared leading block plus an own-view
    core that task s reads through its own orthogonal rotation (the
    two-sub-image structure of multi-task digit benchmarks, linearized).
    Task s touches only its model columns: the shared block plus its own
    block ending in its bias, and the ridge penalty acts on that view alone.
    With no shared block the tasks decouple exactly, so the joint optimum
    attains every task's individual minimum and loss-gap thresholds are
    reachable; rotated views of one labeling additionally keep the tasks
    matched in difficulty, which keeps the min-norm weights balanced instead
    of starving whichever task converges last.  ``f_min`` holds each task's
    global minimum, solved at build time by damped Newton on the task's own
    columns (its loss is strongly convex there), so the loss-gap series is
    available.

    Each shard keeps one sign-folded block ``Zy = Z * y[:, None]``: its rows of
    the task's design matrix, each times its label sign.  Every sign is +-1, so
    the products are exact and rounding is symmetric in sign:
    ``Zy @ v == y * (Z @ v)`` and ``Zy.T @ c == Z.T @ (y * c)`` bit for bit.  A
    minibatch gradient gathers one block, and losses, gradients, the smoothness
    bound and the Newton ``f_min`` read no signs.  ``global_loss`` is closed
    form: every owner's margins go into one buffer, one ``logaddexp`` covers
    them all, and each owner's mean is added in ascending owner order, the
    bytes ``Problem.global_loss`` gives.
    """

    name = "logistic_tasks"

    def __init__(self, indicator, d, raw, components, task_signs, task_cols,
                 n_shared, rotations, plan, ridge):
        super().__init__(indicator, d)
        # read-only: the operand table below is built from them
        self.raw = _read_only(raw)                  # (n, m): shared block then own core
        self.components = _read_only(components)    # (n,) mixture component per sample
        self.task_signs = _read_only(task_signs)    # (S, n) in {-1, +1}
        self.task_cols = [_read_only(c) for c in task_cols]  # per task: its model columns
        self.n_shared = int(n_shared)
        self.rotations = [_read_only(r) for r in rotations]  # per task: own-core rotation
        self.plan = plan
        self.ridge = float(ridge)
        self._ridge = _scalar(ridge)
        self.shards = plan.assignment
        # ridge acts per task view, so f_s is flat across other tasks' blocks
        self.mu = 0.0
        # _operands[s][i] = Zy: client i's rows of task s's design matrix (shared block,
        # rotated own core, bias column), each times its sign, read-only
        h = self.n_shared
        ones = np.ones((raw.shape[0], 1))
        self._operands = [
            _shard_operands(np.hstack([raw[:, :h], raw[:, h:] @ rotations[s].T, ones]),
                            task_signs[s], self.shards) for s in range(self.S)]
        # each task's model columns, as a slice when they are contiguous, so x[cols] is a view
        self._cols = [_as_slice(cols) for cols in task_cols]
        # _loss_table[s] = (blocks, spans, n): the owners' blocks in ascending order, each
        # one's (start, stop) in a margin buffer of n entries; built before f_min, which
        # global_loss computes
        self._loss_table = []
        for shard_blocks, owners in zip(self._operands, indicator.owner_sets):
            blocks = tuple(shard_blocks[i] for i in owners)
            ends = np.cumsum([0] + [len(Zy) for Zy in blocks]).tolist()
            self._loss_table.append((blocks, tuple(zip(ends[:-1], ends[1:])), ends[-1]))

        l_bound = 0.0
        for s in range(self.S):
            for i in indicator.owner_sets[s]:
                Zi = self._operands[s][i]
                lam_max = float(np.linalg.eigvalsh(Zi.T @ Zi / len(Zi)).max())
                l_bound = max(l_bound, 0.25 * lam_max + self.ridge)
        self.smoothness = l_bound
        self.f_min = _read_only(np.array([self._solve_task_min(s) for s in range(self.S)]))

    def loss(self, s, i, x):
        xv = x[self._cols[s]]
        m = self._operands[s][i] @ xv  # y * (Z @ xv)
        return float(np.logaddexp(0.0, -m).mean()) + 0.5 * self.ridge * float(xv @ xv)

    def stoch_grad(self, s, i, x, indices, out=None):
        Zy = self._operands[s][i]
        if indices is not None:
            Zy = Zy.take(indices, axis=0)
        cols = self._cols[s]
        xv = x[cols]
        coef = Zy @ xv  # -1 / (1 + exp(y Z x)), in place; Zy.T @ coef is Z.T @ (y * coef)
        np.exp(coef, coef)
        coef += _ONE
        np.divide(_MINUS_ONE, coef, coef)
        g = Zy.T @ coef
        g /= _count(len(Zy))
        g += self._ridge * xv
        if out is None:
            out = np.zeros(self.d)
        else:
            out.fill(0.0)
        out[cols] = g
        return out

    def global_loss(self, s, x):
        """Every owner's margins in one buffer and one ``logaddexp`` over it; then each
        owner's mean plus the ridge term, added in ascending owner order from 0.0."""
        blocks, spans, n = self._loss_table[s]
        xv = x[self._cols[s]]
        m = np.empty(n)
        for Zy, (lo, hi) in zip(blocks, spans):
            np.matmul(Zy, xv, m[lo:hi])
        np.negative(m, m)
        np.logaddexp(_ZERO, m, m)
        ridge = 0.5 * self.ridge * float(xv @ xv)
        acc = 0.0
        for lo, hi in spans:
            acc += float(np.add.reduce(m[lo:hi])) / (hi - lo) + ridge
        return acc / len(spans)

    def shard_size(self, i):
        return len(self.shards[i])

    def _solve_task_min(self, s):
        # damped Newton on task s's columns from 0 (Boyd & Vandenberghe, Convex
        # Optimization, 9.5); ridge > 0 makes f_s strongly convex there.  Each step
        # is halved until the loss drops, and the solve ends once the predicted
        # drop (half the Newton decrement) is below the rounding of f_s
        cols = self.task_cols[s]
        owners = self.indicator.owner_sets[s]
        x = np.zeros(self.d)
        f = self.global_loss(s, x)
        for _ in range(50):
            xv = x[cols]
            hess = self.ridge * np.eye(len(cols))
            for i in owners:
                Z = self._operands[s][i]  # sign-folded: the signs cancel in Z.T D Z
                e = np.exp(-np.abs(Z @ xv))  # p (1 - p) = e / (1 + e)^2 at either sign
                hess += (Z.T * (e / (1.0 + e) ** 2)) @ Z / (len(Z) * len(owners))
            grad = self.global_grad(s, x)[cols]
            step = np.linalg.solve(hess, -grad)
            if -0.5 * (grad @ step) <= np.finfo(float).eps * f:
                break
            for _ in range(50):
                trial = x.copy()
                trial[cols] += step
                f_trial = self.global_loss(s, trial)
                if f_trial < f:
                    break
                step /= 2.0
            else:
                break
            x, f = trial, f_trial
        return f


def _shard_operands(view, signs, shards) -> list:
    """Each shard's sign-folded block: its rows of one task's design matrix, each
    times its +-1 sign (exact), as a read-only copy."""
    return [_read_only(view[idx] * signs[idx, None]) for idx in shards]


def _as_slice(cols):
    """``cols`` as the equal slice when they are consecutive, else unchanged."""
    if len(cols) and np.array_equal(cols, np.arange(cols[0], cols[0] + len(cols))):
        return slice(int(cols[0]), int(cols[0]) + len(cols))
    return cols


def _haar_rotation(dim, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def synthetic_classification_suite(d, A: IndicatorMatrix, *, n_per_client=64, partition="iid",
                                   labels_per_client=None, task_overlap=0.0,
                                   independent_labels=False, n_components=10,
                                   ridge=1e-2, seed=0) -> LogisticTasksProblem:
    """Build the multi-task logistic suite on Gaussian-mixture samples.

    Keys: each client holds ``n_per_client`` samples of a mixture of
    ``n_components >= 2`` unit-variance Gaussians with means of scale 3;
    ``ridge > 0`` regularizes each task, so each task has a unique minimum.
    The d model coordinates split into a shared block of ``round(task_overlap *
    d)`` coordinates plus one equal block per task (each ending in that
    task's bias); task s reads the shared block and its own orthogonal
    rotation of the sample's own-view core.  ``task_overlap=0`` decouples the
    tasks so the joint optimum reaches every task's individual minimum;
    larger overlaps couple them into genuinely conflicting objectives.  By
    default every task labels the same half of the mixture components
    positive (matched difficulty, like classifying the same digits in two
    sub-images); ``independent_labels`` draws a separate component split per
    task, giving tasks of unequal difficulty.  ``partition`` is ``"iid"`` or
    ``"label_skew"``, where the mixture component plays the role of the
    label and each client sees at most ``labels_per_client`` (default 2;
    label skew only) of them.
    """
    S, M = A.n_objectives, A.n_clients
    _check_at_least(1, n_per_client=n_per_client, n_components=n_components)
    if n_components < 2:
        raise ValueError(f"n_components must be >= 2, got {n_components}")
    if not ridge > 0:
        raise ValueError(f"ridge must be > 0, got {ridge}")
    if partition == "label_skew":
        labels_per_client = 2 if labels_per_client is None else labels_per_client
    elif partition != "iid":
        raise ValueError(f"partition must be 'iid' or 'label_skew', got {partition!r}")
    elif labels_per_client is not None:
        raise ValueError("labels_per_client applies to partition 'label_skew', not 'iid'")
    if not 0 <= task_overlap < 1:
        raise ValueError(f"task_overlap must be in [0, 1), got {task_overlap}")
    n_shared = round(task_overlap * d)
    block = (d - n_shared) // S
    if block < 2:
        raise ValueError(f"d={d} too small for {S} task blocks "
                         f"(shared={n_shared}; need >= 2 columns per task)")
    m = n_shared + block - 1  # raw dim: shared block plus the own-view core, no bias
    task_cols = [np.concatenate([np.arange(n_shared),
                                 np.arange(n_shared + s * block, n_shared + (s + 1) * block)])
                 for s in range(S)]
    n_total = M * n_per_client

    rng = _rng(seed, _TAG_CLS)
    # task 0 sees the canonical view; later tasks see Haar-rotated copies
    rotations = [np.eye(block - 1)] + [_haar_rotation(block - 1, rng)
                                       for _ in range(S - 1)]
    means = 3.0 * rng.standard_normal((n_components, m)) / np.sqrt(m)
    components = np.repeat(np.arange(n_components), -(-n_total // n_components))[:n_total]
    components = rng.permutation(components)
    raw = means[components] + rng.standard_normal((n_total, m))
    task_signs = np.empty((S, n_total))
    positive = rng.choice(n_components, n_components // 2, replace=False)
    for s in range(S):
        if independent_labels and s > 0:
            positive = rng.choice(n_components, n_components // 2, replace=False)
        task_signs[s] = np.where(np.isin(components, positive), 1.0, -1.0)

    plan = _partition(components, M, labels_per_client=labels_per_client, seed=seed)
    return LogisticTasksProblem(A, d, raw, components, task_signs, task_cols,
                                n_shared, rotations, plan, ridge)


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of sample indices to clients: disjoint shards covering every sample."""

    assignment: tuple

    def __post_init__(self):
        shards = tuple(np.asarray(a, dtype=np.int64) for a in self.assignment)
        object.__setattr__(self, "assignment", shards)
        joined = np.concatenate(shards) if shards else np.array([], dtype=np.int64)
        if len(np.unique(joined)) != joined.size:
            raise ValueError("shards overlap")
        if joined.size and (np.sort(joined) != np.arange(joined.size)).any():
            raise ValueError("shards do not cover all sample indices")

    def shard_labels(self, labels) -> list[np.ndarray]:
        labels = np.asarray(labels)
        return [np.unique(labels[idx]) for idx in self.assignment]


def partition(labels, n_clients, labels_per_client=None, seed=0) -> PartitionPlan:
    """Deterministically split sample indices across clients.

    ``labels_per_client=None`` is the iid split: shuffle, then split as
    evenly as possible.  With ``labels_per_client=k`` (label skew) every
    client receives samples from at most k distinct labels: client j is
    assigned the label set {(j*k + r) mod C : r < k} and each label's
    samples are divided evenly among the clients holding it.  Raises when
    the requested skew cannot cover every label (M*k < C) or a label has
    fewer samples than users.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    rng = _rng(seed, _TAG_PART)

    if labels_per_client is None:
        perm = rng.permutation(n)
        return PartitionPlan(tuple(np.sort(part) for part in np.array_split(perm, n_clients)))

    if labels_per_client < 1:
        raise ValueError(f"labels_per_client must be >= 1, got {labels_per_client}")
    uniq = np.unique(labels)
    C = len(uniq)
    k_eff = min(labels_per_client, C)
    if n_clients * k_eff < C:
        raise ValueError(
            f"label skew infeasible: {n_clients} clients x {k_eff} labels "
            f"= {n_clients * k_eff} slots cannot cover {C} labels")
    users: list[list[int]] = [[] for _ in range(C)]
    for j in range(n_clients):
        for r in range(k_eff):
            users[(j * k_eff + r) % C].append(j)
    shards: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for label_pos, lab in enumerate(uniq):
        idx = np.flatnonzero(labels == lab)
        holders = users[label_pos]
        if len(idx) < len(holders):
            raise ValueError(f"label {lab} has {len(idx)} samples for "
                             f"{len(holders)} clients")
        idx = rng.permutation(idx)
        for holder, chunk in zip(holders, np.array_split(idx, len(holders))):
            shards[holder].append(chunk)
    return PartitionPlan(tuple(np.sort(np.concatenate(parts)) for parts in shards))


# the classification builder's ``partition`` key shadows the function's name
_partition = partition

# Problem kind -> (suite builder, {section key: type}); each key is a keyword-only
# parameter of the builder, which holds its default; ``list`` is "auto" or rows.
SUITES = {
    "quadratic": (quadratic_suite, {
        "centers": list, "curvature": float, "heterogeneity": float,
        "curvature_spread": float, "n_per_client": int, "data_spread": float, "seed": int}),
    "nonconvex": (toy_nonconvex_suite, {
        "n_terms": int, "ridge": float, "heterogeneity": float, "amp_noise": float,
        "n_per_client": int, "seed": int}),
    "classification": (synthetic_classification_suite, {
        "n_per_client": int, "partition": str, "labels_per_client": int,
        "task_overlap": float, "independent_labels": bool, "n_components": int,
        "ridge": float, "seed": int}),
}


def build_problem(config: ExperimentConfig) -> Problem:
    """Call the builder of ``config.problem.kind`` with the section's keys, ``seed``
    defaulting to the top-level seed; bad values are ConfigErrors."""
    if config.problem is None:
        raise ConfigError("problem", "configuration has no problem section")
    if config.problem.kind not in SUITES:
        raise ConfigError("problem.kind", f"unknown problem kind {config.problem.kind!r}")
    builder, _ = SUITES[config.problem.kind]
    try:
        problem = builder(config.d, config.indicator,
                          **{"seed": config.seed, **config.problem.params})
    except ValueError as exc:  # a value of the right type but out of range
        raise ConfigError("problem", str(exc)) from exc
    if config.batch_size is not None:
        smallest = min(problem.shard_size(i) for i in range(config.M))
        if config.batch_size > smallest:
            raise ConfigError("batch_size", f"{config.batch_size} is larger than the smallest "
                                            f"client shard ({smallest} samples)")
    return problem
