"""FMGDA and FSMGDA (arXiv 2310.09866) as plain loops: the oracle for the round engine.

One objective, one client and one local step at a time.  It shares only the
per-shard gradient ``problem.stoch_grad``, the sample streams and the
min-norm solver with the engine, and keeps the engine's operation order
(clients ascending, sum before dividing), so the two agree bit for bit.
"""

import numpy as np

from fedmoo.core import client_stream
from fedmoo.federation import DIVERGENCE_NORM, DivergenceError
from fedmoo.minnorm import solve_min_norm


def local_update(x_t, client, s, config, problem, t):
    """K local steps on objective s at one client in round t.

    Returns the accumulated update (the plain sum of the K gradients) and
    the final local iterate.  Raises at the first non-finite step.
    """
    n = problem.shard_size(client)
    batch = config.batch_size
    size = batch if batch is not None and batch < n else None  # else the exact shard gradient
    key = s if config.sample_sharing == "per_objective" else None
    x, acc = x_t, np.zeros_like(x_t)
    for k in range(config.K):
        idx = None
        if size is not None:
            idx = client_stream(config.seed, client, t, k, objective=key).integers(0, n, size)
        g = problem.stoch_grad(s, client, x, idx)
        acc = acc + g
        x = x - config.eta_local * g
        if not (np.isfinite(acc).all() and np.isfinite(x).all()):
            raise DivergenceError(t, client, s, k)
    return acc, x


def average(deltas, owner_sets, K, normalize_delta_by_K, client_weights):
    """The owner-set average of ``deltas[client, s]``, owners ascending.

    Plain averaging sums, then divides by |R_s|; client weights are
    normalized within the owner set and weight each update as it is added.
    """
    rows = []
    for s, owners in enumerate(owner_sets):
        row = np.zeros_like(deltas[owners[0], s])
        if client_weights is None:
            for i in owners:
                row = row + deltas[i, s]
            row = row / len(owners)
        else:
            w = np.array([client_weights[i] for i in owners])
            w = w / w.sum()
            for pos, i in enumerate(owners):
                row = row + w[pos] * deltas[i, s]
        rows.append(row / K if normalize_delta_by_K else row)
    return np.array(rows)


def run(config, problem):
    """T rounds from the initial point.

    Returns the (x_t, weights, d_norm_sq) of every completed round, the final
    point and the termination message of ``run_experiment``.
    """
    A, x, rounds = config.indicator, config.initial_point(), []
    for t in range(1, config.T + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                deltas = {(i, s): local_update(x, i, s, config, problem, t)[0]
                          for i in range(config.M) for s in A.client_objectives[i]}
                delta = average(deltas, A.owner_sets, config.K, config.normalize_delta_by_K,
                                config.client_weights)
                for s in range(config.S):
                    if not np.isfinite(delta[s]).all():
                        raise DivergenceError(t, None, s, None)
                sol = solve_min_norm(delta)
                if not np.isfinite(sol.norm_sq):
                    raise DivergenceError(t, None, None, None)
            except DivergenceError as exc:
                return rounds, x, f"diverged: {exc}"
        rounds.append((x, sol.weights, sol.norm_sq))
        x = x - config.eta_global * sol.direction
        if not np.isfinite(x).all() or np.linalg.norm(x) > DIVERGENCE_NORM:
            return rounds, x, f"diverged: global point norm exceeded {DIVERGENCE_NORM:g} at round {t}"
    return rounds, x, "completed"
