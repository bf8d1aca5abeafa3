"""The communication-round engine: local steps, aggregation, and the global step.

One round runs K local gradient steps per (objective, client) pair from the
synchronized global point, averages the accumulated per-objective updates over
each objective's owner set, solves the min-norm weighting, and moves the
global model along the combined direction.  FMGDA and FSMGDA share one
local-step loop that differs only in the gradient oracle.  A round steps all
of its owned pairs as one client-major (P, d) block, one local step at a time,
and the server averages that block as it lies; a single client's update
(:func:`client_update_stochastic`) runs the same loop on that client's pairs.
Each pair's rows are a pure function of the round inputs and counter-based
streams, so the result does not depend on client order.  A round's minibatch
indices are drawn in one pass (:func:`_draw_batches`): each (client, step[,
objective]) stream gives its raw words, and one vectorized bounded-integer
transform turns the round's words into exactly the indices
``Generator.integers`` would draw from each stream.

The rows belong to the round.  The local-step loop allocates its iterate,
gradient and accumulator blocks per call and hands each pair's gradient row
to the suite as ``out``, so the gradient lands in place.  No scratch array
is kept on a problem, a class or this module, so runs on concurrent threads
share none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .core import (_SHARING, ExperimentConfig, IndicatorMatrix, RoundRecord, client_stream,
                   output_stream)
from .minnorm import solve_min_norm

__all__ = [
    "TrajectoryLog",
    "DivergenceError",
    "MetricDivergenceError",
    "client_update_full",
    "client_update_stochastic",
    "server_aggregate",
    "run_round",
    "run_experiment",
    "pick_weighted_output",
    "descent_step_limit",
    "strongly_convex_step_limit",
]

# Trajectory norm beyond which a run is aborted as divergent.
DIVERGENCE_NORM = 1e8


class DivergenceError(RuntimeError):
    """A round went non-finite; carries its (round, client, objective, step).

    In the local phase these locate the first non-finite update or iterate of
    a client's local steps.  In the aggregate phase (``client`` and ``step``
    are None) the clients' updates are finite but the averaged block is not,
    and ``objective`` is its first non-finite row.  In the solve phase (all
    three None) the averaged block is finite but the min-norm solve's norm or
    direction is not, because the block's Gram matrix overflowed.  In the
    metrics phase (:class:`MetricDivergenceError`) the round's step is finite
    but a metric at its start point is not.
    """

    def __init__(self, round_index, client, objective, step):
        self.round_index = round_index
        self.client = client
        self.objective = objective
        self.step = step
        if objective is None:
            super().__init__(f"non-finite min-norm solve at round {round_index}")
        elif client is None:
            super().__init__(f"non-finite aggregate at round {round_index}, objective {objective}")
        else:
            super().__init__(f"non-finite local update at round {round_index}, client {client}, "
                             f"objective {objective}, local step {step}")


class MetricDivergenceError(DivergenceError):
    """The metrics phase: ``quantity`` ("dbar_norm_sq", "loss", "delta_Q" or
    "lambda_drift") at the round's start point is not finite, and ``objective``
    is the first non-finite loss's objective (None for the other quantities)."""

    def __init__(self, round_index, quantity, objective=None):
        super().__init__(round_index, None, objective, None)
        self.quantity = quantity
        at = "" if objective is None else f", objective {objective}"
        self.args = (f"non-finite {quantity} at round {round_index}{at}",)


def _finite(value, round_index, quantity):
    """``value``, a round metric (a float, or the loss vector), if it is finite;
    else the metrics phase's :class:`MetricDivergenceError`."""
    # math.isfinite: far cheaper than np.isfinite on a Python float
    if isinstance(value, float) and math.isfinite(value) or np.isfinite(value).all():
        return value
    objective = None if np.ndim(value) == 0 else int(np.argmin(np.isfinite(value)))
    raise MetricDivergenceError(round_index, quantity, objective)


@dataclass
class TrajectoryLog:
    """Ordered round records plus the run's outputs and termination status."""

    records: list = field(default_factory=list)
    final_point: np.ndarray | None = None
    weighted_output: np.ndarray | None = None
    config: ExperimentConfig | None = None
    termination: str = "completed"


def descent_step_limit(smoothness: float) -> float:
    """Largest server step with the per-round common-descent guarantee, 3/(2(1+L))."""
    return 3.0 / (2.0 * (1.0 + smoothness))


def strongly_convex_step_limit(smoothness: float, mu: float) -> float:
    """Server step ceiling for the strongly convex linear-rate regime."""
    return min(descent_step_limit(smoothness), 1.0 / (2.0 * smoothness + mu))


# Nothing in the engine calls this: the round steps every client's pairs in one
# block.  It stays for the benchmark, which traces this entry point by name.
def client_update_full(x_t, client, owned, K, eta_local, problem, round_index=0):
    """K full-gradient local steps per owned objective from the synced point.

    FMGDA's local update is FSMGDA's with exact gradients, so this is
    :func:`client_update_stochastic` with ``batch=None``.
    """
    return client_update_stochastic(x_t, client, owned, K, eta_local, None, problem,
                                    seed=None, round_index=round_index)


def client_update_stochastic(x_t, client, owned, K, eta_local, batch, problem, seed,
                             round_index=0, sample_sharing="per_client"):
    """K minibatch-gradient local steps per owned objective.

    Each owned objective keeps its own local iterate, initialized at ``x_t``.
    Its accumulated update is the plain sum of the K gradients used (not
    scaled by the local step size), so K=1 returns exactly the gradient at
    ``x_t`` and eta_local=0 returns K times that.  Batch indices are drawn
    (uniformly with replacement) from the counter-based stream of (client,
    round, step) (:func:`~fedmoo.core.client_stream`), so re-running with the
    same seed reproduces the exact sample sequence.  Under ``per_client``
    sharing the step-k batch is drawn once and reused by every objective this
    client owns; ``per_objective`` extends the stream key by the objective
    index and draws independently.  ``batch=None`` or a batch covering the shard uses the
    exact shard gradient.

    Returns ``(deltas, drift)``: row r is ``owned[r]``'s accumulated update
    and how far its local iterate moved from ``x_t``.  This is the client's
    slice of the round's block (:func:`run_round`): the same step loop on
    this client's pairs only, so ``deltas`` is bit-identical to the round's
    rows for this client.  Any other ``sample_sharing`` raises ``ValueError``.
    """
    if sample_sharing not in _SHARING:
        raise ValueError(f"sample_sharing must be one of {_SHARING}, got {sample_sharing!r}")
    pairs = [(s, client) for s in owned]
    batches = _draw_batches([(client, owned)], K, batch, problem, seed, round_index,
                            sample_sharing)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        acc, X = _step_pairs(x_t, pairs, batches, K, eta_local, problem.stoch_grad, round_index)
        return acc, np.linalg.norm(X - x_t, axis=1)


def _draw_batches(clients, K, batch, problem, seed, round_index, sample_sharing):
    """Per owned pair of ``clients``, the K batch index arrays of its local steps.

    ``clients`` lists ``(client, owned)``; the result is client-major, one
    list per pair in that order.  ``None`` stands for the exact shard
    gradient: no batch, or a batch that covers the shard.  This is the one
    place that rule lives; a suite computes the indices it is given.  Under
    ``per_client`` sharing every objective of a client gets the same list.

    A batch is ``Generator.integers(0, n_shard, batch)`` on the stream of
    its (client, step[, objective]) (:func:`~fedmoo.core.client_stream`):
    buffered 32-bit Lemire, each raw Philox word split into two uint32s, low
    half first.  Each stream's first ``ceil(batch / 2)`` words are read raw
    and the round's words go through one vectorized transform
    (:func:`_lemire_rows`), so the indices are that call's, bit for bit.
    Numpy draws from more than 2**32 values by 64-bit Lemire, which this
    does not reproduce, so a larger shard raises ``ValueError``.
    """
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    batches, draws, words, bitgens, sizes = [], [], [], [], []
    for client, owned in clients:
        n_shard = problem.shard_size(client)
        if batch is not None and batch > n_shard:
            raise ValueError(f"client {client} shard has {n_shard} samples, "
                             f"smaller than batch {batch}")
        if batch is None or batch == n_shard:  # exact gradient, no draws
            batches += [[None] * K] * len(owned)
            continue
        if n_shard > _MAX_SHARD:
            raise ValueError(f"client {client} shard has {n_shard} samples; batches are "
                             "drawn from at most 2**32")
        keys = [None] if sample_sharing == "per_client" else owned
        for objective in keys:
            for k in range(K):
                bitgen = client_stream(seed, client, round_index, k,
                                       objective=objective).bit_generator
                words.append(bitgen.random_raw((batch + 1) // 2))
                bitgens.append(bitgen)
                sizes.append(n_shard)
        lists = [[] for _ in keys]  # each stream key's K batches, filled in below
        draws += lists
        batches += lists * len(owned) if sample_sharing == "per_client" else lists
    if words:
        for r, row in enumerate(_lemire_rows(np.array(words), bitgens, sizes, batch)):
            draws[r // K].append(row)
    return batches


# Generator.integers draws from at most 2**32 values by 32-bit Lemire
_MAX_SHARD = 2**32
_LOW = 0xFFFFFFFF


def _lemire_rows(words, bitgens, sizes, batch):
    """Row r of the (R, batch) result is ``Generator.integers(0, sizes[r], batch)``.

    ``words[r]`` are the first raw words of that generator's bit generator
    ``bitgens[r]``.  This is numpy's buffered 32-bit Lemire (Lemire 2019) on
    every row at once: with ``u`` the row's uint32s, low half of each word
    first, and ``m = u * n``, a draw is ``m >> 32`` unless ``m``'s low word
    falls below ``(2**32 - n) % n``.  A row with such a rejection is redone
    one draw at a time on the same uint32 sequence, reading ``bitgens[r]``
    on past the words already taken.
    """
    u = np.empty((len(words), 2 * words.shape[1]), np.uint64)
    u[:, 0::2] = words & _LOW
    u[:, 1::2] = words >> 32
    n = np.array(sizes, np.uint64)[:, None]
    m = u[:, :batch] * n
    idx = (m >> 32).astype(np.int64)
    thr = (2**32 - n) % n
    for r in np.flatnonzero(((m & _LOW) < thr).any(axis=1)):
        seq, n_r, thr_r = _uint32s(u[r].tolist(), bitgens[r]), sizes[r], int(thr[r, 0])
        for j in range(batch):
            m_j = next(seq) * n_r
            while (m_j & _LOW) < thr_r:
                m_j = next(seq) * n_r
            idx[r, j] = m_j >> 32
    return idx


def _uint32s(halves, bitgen):
    """A stream's uint32s: the halves already read, then ``bitgen``'s next words, low half first."""
    yield from halves
    while True:
        word = bitgen.random_raw()
        yield word & _LOW
        yield word >> 32


def _step_pairs(x_t, pairs, batches, K, eta_local, stoch_grad, round_index):
    """K local steps on every (objective, client) pair; the (P, d) accumulator and iterates.

    Each row sees the same element-wise operations in the same order as a
    loop over single pairs, so the rows are bit-identical to it.  Non-finite
    values are absorbing, so the block is checked once after its K steps.  A
    failed check replays the first non-finite row in pair order through the
    same step loop, as a one-row block, and raises :class:`DivergenceError`
    at its first non-finite step.  Call under ``np.errstate(over="ignore",
    invalid="ignore")``.
    """
    for acc, X in _local_steps(x_t, pairs, batches, K, eta_local, stoch_grad):
        pass  # the K steps update acc and X in place
    if not (np.isfinite(acc).all() and np.isfinite(X).all()):
        r = int(np.argmin(np.isfinite(acc).all(axis=1) & np.isfinite(X).all(axis=1)))
        s, client = pairs[r]
        replay = _local_steps(x_t, pairs[r:r + 1], batches[r:r + 1], K, eta_local, stoch_grad)
        for k, (row_acc, row_X) in enumerate(replay):
            if not (np.isfinite(row_acc).all() and np.isfinite(row_X).all()):
                raise DivergenceError(round_index, client, s, k)
        raise RuntimeError(f"objective {s} of client {client} did not diverge on "
                           "replay; its gradients are not a function of their inputs")
    return acc, X


def _local_steps(x_t, pairs, batches, K, eta_local, stoch_grad):
    """Step the (objective, client) pairs' iterates together from ``x_t``, one step at a time.

    Yields the (P, d) accumulator and iterate blocks after each step; both
    are updated in place, so every step yields the same two arrays.  Each
    pair's gradient is asked for into its row of the gradient block and
    copied there only when the suite returns another array.
    """
    X = np.empty((len(pairs), x_t.shape[0]))
    X[:] = x_t
    acc = np.zeros_like(X)
    G = np.empty_like(X)
    # per pair: its objective, client, iterate and gradient rows (views into X and G),
    # and batches
    rows = [(s, i, X[r], G[r], batches[r]) for r, (s, i) in enumerate(pairs)]
    for k in range(K):
        for s, i, x_row, g_row, row_batches in rows:
            g = stoch_grad(s, i, x_row, row_batches[k], g_row)
            if g is not g_row:  # a suite may return its own array instead of filling out
                g_row[...] = g
        acc += G
        G *= eta_local  # the bits of X -= eta_local * G, without its temporary
        X -= G
        yield acc, X


def server_aggregate(deltas, indicator: IndicatorMatrix, K: int,
                     normalize_delta_by_K: bool = True, client_weights=None) -> np.ndarray:
    """Average the round's client-major (P, d) block over each objective's owner set.

    The rows of ``deltas`` are ``indicator.client_objectives[0]``'s, then
    ``[1]``'s, and so on; each client's rows are added in ascending client
    order.  The balanced average sums first and divides by |R_s| after;
    ``client_weights`` switches to a weighted average proportional to the
    given per-client weights (normalized within each owner set), for
    imbalanced shard sizes.  With ``normalize_delta_by_K`` the result is
    further divided by K.
    """
    n_rows = sum(map(len, indicator.client_objectives))
    if len(deltas) != n_rows:
        raise ValueError(f"expected {n_rows} rows, one per owned pair, got {len(deltas)}")
    scale = None
    if client_weights is not None:
        w = np.asarray(client_weights, dtype=np.float64)
        scale = np.zeros(indicator.entries.shape)
        for s, owners in enumerate(map(list, indicator.owner_sets)):
            scale[s, owners] = w[owners] / w[owners].sum()
    agg = np.zeros((indicator.n_objectives, deltas.shape[1]))
    lo = 0
    for i, objs in enumerate(indicator.client_objectives):
        rows, lo = deltas[lo:lo + len(objs)], lo + len(objs)
        # a client's objectives are distinct and ascending, so one add over their rows is
        # the per-row loop; consecutive ones are a slice, which adds in place
        sel = (slice(objs[0], objs[-1] + 1) if objs[-1] - objs[0] + 1 == len(objs)
               else list(objs))
        agg[sel] += rows if scale is None else scale[sel, i][:, None] * rows
    if scale is None:
        agg /= np.array([len(owners) for owners in indicator.owner_sets])[:, None]
    if normalize_delta_by_K:
        agg /= K
    return agg


def run_round(round_index, x_t, config, problem):
    """One communication round; returns (next point, round record).

    Every owned (objective, client) pair takes its K local steps in one
    block, ascending client then owned order; each row is a pure function of
    the round inputs, so the order does not affect the result.  Metrics in
    the record refer to the round's start point: the losses, the
    true-gradient stationarity measure under the round's weights, and the
    optimality gap when the problem has a scalarization reference.  A
    non-finite client update, averaged block or min-norm solve raises
    :class:`DivergenceError` before any metric is computed; a local one
    names the lowest failing client's first failing objective (in owned
    order) and that pair's first non-finite step.  The metrics are computed
    under the same ``errstate``, and the first non-finite one (in the order
    dbar, losses, delta_Q, lambda_drift) raises :class:`MetricDivergenceError`,
    so a recorded round holds finite metrics only.
    """
    A = config.indicator
    clients = list(enumerate(A.client_objectives))
    pairs = [(s, i) for i, owned in clients for s in owned]  # ascending client, then owned
    batches = _draw_batches(clients, config.K, config.batch_size, problem, config.seed,
                            round_index, config.sample_sharing)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        acc, _ = _step_pairs(x_t, pairs, batches, config.K, config.eta_local,
                             problem.stoch_grad, round_index)
        delta = server_aggregate(acc, A, config.K, config.normalize_delta_by_K,
                                 config.client_weights)
        finite = np.isfinite(delta).all(axis=1)
        if not finite.all():
            raise DivergenceError(round_index, None, int(np.argmin(finite)), None)
        sol = solve_min_norm(delta)
        x_next = x_t - config.eta_global * sol.direction  # may overflow: the guard checks it
        if not np.isfinite(sol.norm_sq):  # ||direction||^2: finite only with the direction
            raise DivergenceError(round_index, None, None, None)
        w = sol.weights
        # a finite dbar means finite gradients, which lambda_drift's solve requires
        dbar = _finite(metrics.dbar_norm_sq(w, x_t, problem), round_index, "dbar_norm_sq")
        losses = _finite(problem.losses(x_t), round_index, "loss")
        dq = (_finite(metrics.delta_q(w, x_t, problem), round_index, "delta_Q")
              if problem.has_pareto_reference else np.nan)
        drift = _finite(metrics.lambda_drift(w, x_t, problem), round_index, "lambda_drift")
    record = RoundRecord(t=round_index, weights=sol.weights, d_norm_sq=sol.norm_sq,
                         dbar_norm_sq=dbar, losses=losses, delta_q=dq,
                         fw_gap=sol.fw_gap, lambda_drift=drift, x_snapshot=x_t.copy())
    return x_next, record


def pick_weighted_output(traj: TrajectoryLog, mu, eta, stream) -> np.ndarray:
    """Sample one round's start point x_t with the strongly convex weighting.

    Round t carries weight (1 - mu*eta/2)^(1-t).  One pass over the records
    keeps a running pick: round t replaces it with probability equal to its
    share of the weight seen so far, one uniform draw per round.  The running
    total is kept in log space so long runs cannot overflow.
    """
    if not traj.records:
        raise ValueError("empty trajectory")
    half = mu * eta / 2.0
    if not 0.0 < half < 1.0:
        raise ValueError(f"mu*eta/2 must be in (0, 1), got {half}")
    log_decay = np.log1p(-half)
    log_total = -np.inf
    for rec in traj.records:
        log_w = (1 - rec.t) * log_decay
        log_total = np.logaddexp(log_total, log_w)
        if stream.uniform() < np.exp(log_w - log_total):
            pick = rec.x_snapshot
    return pick.copy()


def run_experiment(config: ExperimentConfig, problem) -> TrajectoryLog:
    """Run T rounds from the configured initial point.

    Deterministic given the config seed.  Each round steps all clients' pairs
    in one block, and the result does not depend on the order of the pairs.
    Divergence (a non-finite local update, iterate, averaged block or
    min-norm solve, or a global point beyond the norm guard) stops the run
    early; the partial log is returned with ``termination`` flagging the
    reason.  For strongly convex problems the weighted output iterate is
    picked from the recorded start points after the run.  A problem built for
    another dimension or indicator raises ``ValueError``.
    """
    if problem.d != config.d:
        raise ValueError(f"problem has d={problem.d}, the config has d={config.d}")
    if not np.array_equal(problem.indicator.entries, config.indicator.entries):
        raise ValueError(f"problem indicator {problem.indicator.entries.tolist()} differs "
                         f"from the config's {config.indicator.entries.tolist()}")
    x = config.initial_point()
    traj = TrajectoryLog(config=config)
    for t in range(1, config.T + 1):
        try:
            x, record = run_round(t, x, config, problem)
        except DivergenceError as exc:
            traj.termination = f"diverged: {exc}"
            break
        traj.records.append(record)
        with np.errstate(over="ignore"):  # a finite point's norm may overflow to inf
            beyond = not np.isfinite(x).all() or np.linalg.norm(x) > DIVERGENCE_NORM
        if beyond:
            traj.termination = (f"diverged: global point norm exceeded "
                                f"{DIVERGENCE_NORM:g} at round {t}")
            break
    traj.final_point = x
    if traj.records and 0.0 < problem.mu * config.eta_global / 2.0 < 1.0:
        traj.weighted_output = pick_weighted_output(traj, problem.mu, config.eta_global,
                                                    output_stream(config.seed))
    return traj
