"""Built-in verification battery behind the ``verify`` subcommand.

Every check is independent of the code path it validates: the min-norm solver
is measured against the brute-force lattice oracle and against its optimality
(KKT) conditions on larger instances, gradients against central
finite differences, stochastic gradients against Monte Carlo means, and the
round engine against directly coded centralized references.  Failures report
the instance seed so a failing case can be replayed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExperimentConfig, IndicatorMatrix
from .federation import descent_step_limit, run_experiment
from .minnorm import closed_form_two, grid_oracle, solve_min_norm
from .problems import quadratic_suite, synthetic_classification_suite, toy_nonconvex_suite

__all__ = ["CheckResult", "run_battery", "mgd_reference"]

# Each gate's bound is part of its definition, so no caller sets it.
ORACLE_EXCESS = 1e-6     # solver's norm_sq above the lattice oracle's
ORACLE_GAP = 1e-8        # Frank-Wolfe gap of a solve that reports converged
KKT_ATOL = 1e-9          # largest violation of the optimality conditions
CLOSED_FORM_ATOL = 1e-8  # |norm_sq| of the solver vs the two-objective closed form
CLOSED_FORM_PAIRS = 100  # random pairs in R^5 checked against the closed form
FD_POINTS = 50           # finite-difference points per problem
FD_REL_TOL = 1e-5        # analytic vs finite-difference gradient, relative
MC_BATCH = 8             # minibatch size of the Monte Carlo draws
DESCENT_SLACK = 1e-12    # largest per-round loss increase counted as descent


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seed: int | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" [seed {self.seed}]" if (not self.passed and self.seed is not None) else ""
        return f"{status}  {self.name}: {self.detail}{tail}"


def mgd_reference(problem, x0, eta, rounds):
    """Directly coded centralized multi-gradient descent.

    Per round: solve the min-norm weighting of the true full gradients and
    step the model along the combined direction.  Returns the (rounds+1, d)
    array of iterates starting at x0.  This is the reduction target for the
    federated engine with one client and one local step.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    iterates = [x.copy()]
    for _ in range(rounds):
        sol = solve_min_norm(problem.gradient_matrix(x))
        x = x - eta * sol.direction
        iterates.append(x.copy())
    return np.vstack(iterates)


def check_minnorm_oracle(n_instances=200, seed=20240, solver=solve_min_norm) -> CheckResult:
    """Solver vs lattice oracle on random instances; also certifies fw_gap.
    The detail carries the worst excess over the oracle and converged gap."""
    failures = []
    worst_excess, worst_gap = -np.inf, 0.0
    for case in range(n_instances):
        rng = np.random.default_rng([seed, case])
        S, d = int(rng.integers(2, 4)), int(rng.integers(2, 6))
        G = rng.uniform(-1.0, 1.0, (S, d))
        sol = solver(G)
        _, oracle_nsq = grid_oracle(G, 1e-2, refine_to=1e-3)
        excess = sol.norm_sq - oracle_nsq
        worst_excess = max(worst_excess, excess)
        if sol.converged:
            worst_gap = max(worst_gap, sol.fw_gap)
        if excess > ORACLE_EXCESS:
            failures.append((case, f"norm_sq {sol.norm_sq} > oracle {oracle_nsq}"))
        elif sol.converged and sol.fw_gap > ORACLE_GAP:
            failures.append((case, f"converged but fw_gap {sol.fw_gap} > {ORACLE_GAP}"))
    worst = (f"worst excess over oracle {worst_excess:.2e} (<={ORACLE_EXCESS:g}), "
             f"worst converged gap {worst_gap:.2e} (<={ORACLE_GAP:g})")
    if failures:
        case, why = failures[0]
        return CheckResult("minnorm-vs-oracle", False,
                           f"{len(failures)}/{n_instances} instances failed, first: {why}; "
                           f"{worst}", seed=case)
    return CheckResult("minnorm-vs-oracle", True, f"{n_instances} instances: {worst}")


def _kkt_instance(rng) -> np.ndarray:
    """Random S x d direction set, often rank-deficient or with duplicate rows."""
    S = int(rng.integers(2, 13))
    d = int(rng.integers(1, 31))
    rank = int(rng.integers(1, min(S, d) + 1))
    G = rng.standard_normal((S, rank)) @ rng.standard_normal((rank, d)) / np.sqrt(rank)
    for _ in range(int(rng.integers(0, 3))):
        G[rng.integers(S)] = G[rng.integers(S)]
    return G


def check_minnorm_kkt(n_instances=200, seed=20246, solver=solve_min_norm) -> CheckResult:
    """Optimality conditions of the min-norm solve up to S=12, beyond the oracle's reach.

    With u = weights^T G, an optimum has <G_s, u> = ||u||^2 on every supported
    vertex and <G_s, u> >= ||u||^2 on every vertex, at exactly feasible weights.
    Instances include S > d, rank-deficient Gram matrices and duplicate rows.
    """
    for case in range(n_instances):
        G = _kkt_instance(np.random.default_rng([seed, case]))
        w = solver(G).weights
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            why = f"infeasible weights (min {w.min()}, sum {w.sum()!r})"
        else:
            u = w @ G
            excess = G @ u - float(u @ u)
            off, below = np.abs(excess[w > 0]).max(), -excess.min()
            if max(off, below) <= KKT_ATOL:
                continue
            why = (f"supported vertex off ||u||^2 by {off:.2e}" if off > KKT_ATOL
                   else f"vertex below ||u||^2 by {below:.2e}")
        return CheckResult("minnorm-kkt", False, f"S={G.shape[0]}, d={G.shape[1]}: {why}",
                           seed=case)
    return CheckResult("minnorm-kkt", True,
                       f"{n_instances} instances (S <= 12) satisfy KKT within {KKT_ATOL}")


def check_closed_form(seed=20241) -> CheckResult:
    """Solver vs the two-objective closed form; the detail carries the worst mismatch."""
    worst = 0.0
    for case in range(CLOSED_FORM_PAIRS):
        rng = np.random.default_rng([seed, case])
        g1, g2 = rng.standard_normal((2, 5))
        direct = closed_form_two(g1, g2)
        iterative = solve_min_norm(np.vstack([g1, g2]))
        if abs(direct.norm_sq - iterative.norm_sq) > CLOSED_FORM_ATOL:
            return CheckResult("closed-form-two", False,
                               f"norm_sq mismatch {direct.norm_sq} vs {iterative.norm_sq}",
                               seed=case)
        worst = max(worst, abs(direct.norm_sq - iterative.norm_sq))
    return CheckResult("closed-form-two", True,
                       f"{CLOSED_FORM_PAIRS} pairs in R^5: worst |norm_sq| mismatch {worst:.2e} "
                       f"(<={CLOSED_FORM_ATOL:g})")


def _fd_gradient(fn, x, h=1e-6):
    return np.array([(fn(x + e) - fn(x - e)) / (2.0 * h) for e in h * np.eye(x.shape[0])])


def _sample_problems(seed):
    A = IndicatorMatrix(np.array([[1, 1, 0], [0, 1, 1]]))
    quad = quadratic_suite(4, A, centers=[[1.0, 0, 0, 0], [0, 1.0, 0, 0]], curvature=1.3,
                           heterogeneity=0.4, curvature_spread=0.3, n_per_client=16,
                           seed=seed)
    tanh = toy_nonconvex_suite(4, A, n_terms=5, ridge=0.1, heterogeneity=0.3,
                               n_per_client=24, seed=seed)
    cls = synthetic_classification_suite(8, A, n_per_client=30, partition="label_skew",
                                         labels_per_client=4, n_components=6,
                                         task_overlap=0.25, seed=seed)
    return [quad, tanh, cls]


def check_gradients(problems, seed) -> CheckResult:
    """Analytic per-shard gradients of ``problems`` vs central finite differences,
    at points drawn from ``seed``."""
    worst = 0.0
    for problem in problems:
        rng = np.random.default_rng([seed, 99])
        for _ in range(FD_POINTS):
            s = int(rng.integers(problem.S))
            owners = problem.indicator.owner_sets[s]
            i = int(owners[rng.integers(len(owners))])
            x = rng.standard_normal(problem.d)
            fd = _fd_gradient(lambda z: problem.loss(s, i, z), x)
            rel = float(np.linalg.norm(problem.grad(s, i, x) - fd) / max(np.linalg.norm(fd), 1e-8))
            worst = max(worst, rel)
            if rel > FD_REL_TOL:
                return CheckResult("gradient-finite-diff", False,
                                   f"{problem.name} rel err {rel:.2e} at objective {s}, "
                                   f"client {i}", seed=seed)
    return CheckResult("gradient-finite-diff", True, f"worst rel err {worst:.2e}")


def check_unbiasedness(problems, seed, n_samples=10_000) -> CheckResult:
    """Monte Carlo mean of the minibatch gradients of each of ``problems``, with
    batches and the point drawn from ``seed``, within 3 SE of the exact gradient."""
    for problem in problems:
        rng = np.random.default_rng([seed, 7])
        x = rng.standard_normal(problem.d)
        s, i = 0, int(problem.indicator.owner_sets[0][0])
        n_shard = problem.shard_size(i)
        draws = np.array([problem.stoch_grad(s, i, x, rng.integers(0, n_shard, MC_BATCH))
                          for _ in range(n_samples)])
        exact = problem.grad(s, i, x)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n_samples)
        off = np.abs(draws.mean(axis=0) - exact)
        if (off > 3.0 * se + 1e-12).any():
            j = int(np.argmax(off - 3.0 * se))
            return CheckResult("stochastic-unbiasedness", False,
                               f"{problem.name} coord {j}: |mean-exact|={off[j]:.3e} "
                               f"> 3*SE={3 * se[j]:.3e}", seed=seed)
    return CheckResult("stochastic-unbiasedness", True,
                       f"{n_samples} draws within 3 SE on all suites")


def check_mgd_reduction(problem, seed, rounds=50) -> CheckResult:
    """Engine with K=1 and full gradients on a one-client ``problem`` is
    bit-identical to direct MGD; ``seed``, the instance's, also seeds the run."""
    config = ExperimentConfig(indicator=problem.indicator, d=problem.d, K=1, T=rounds,
                              eta_global=0.5, eta_local=0.1, seed=seed)
    traj = run_experiment(config, problem)
    fed = np.vstack([rec.x_snapshot for rec in traj.records] + [traj.final_point])
    ref = mgd_reference(problem, config.initial_point(), 0.5, rounds)
    same_shape = fed.shape == ref.shape
    worst = float(np.abs(fed - ref).max()) if same_shape else float("nan")
    return CheckResult("mgd-reduction", same_shape and np.array_equal(fed, ref),
                       f"{rounds} rounds federated (M=1, K=1) vs centralized MGD: "
                       f"max |diff| = {worst} (bit-identical required)", seed=seed)


def check_descent(suites, rounds=100) -> CheckResult:
    """Every objective non-increasing per round at the guaranteed step size.

    ``suites`` holds (seed, one-client problem) pairs; each seed also seeds
    its run, and a failure names the seed of the problem whose loss rose.
    """
    worst = -np.inf
    for seed, problem in suites:
        eta = descent_step_limit(problem.smoothness)
        config = ExperimentConfig(indicator=problem.indicator, d=problem.d, K=1, T=rounds,
                                  eta_global=eta, eta_local=0.0, seed=seed)
        traj = run_experiment(config, problem)
        losses = np.vstack([rec.losses for rec in traj.records]
                           + [problem.losses(traj.final_point)])
        increase = float(np.diff(losses, axis=0).max())
        if increase > DESCENT_SLACK:
            return CheckResult("common-descent", False,
                               f"{problem.name}: loss increased by {increase:.3e}", seed=seed)
        worst = max(worst, increase)
    names = " and ".join(problem.name for _, problem in suites)
    return CheckResult("common-descent", True,
                       f"{names}, {rounds} rounds at eta=3/(2(1+L)): max per-round loss "
                       f"increase {worst:.2e} (<={DESCENT_SLACK:g})")


def run_battery(level="quick") -> list[CheckResult]:
    """Run the verification suite; ``full`` widens the Monte Carlo checks."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    mc = 10_000 if level == "full" else 2_000
    A = IndicatorMatrix.all_ones(2, 1)
    mgd = quadratic_suite(3, A, centers=[[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]], seed=20244)
    descent = [(20245, quadratic_suite(3, A, centers=[[1.0, 0, 0], [0, 1.0, 0]], seed=20245)),
               (20245, toy_nonconvex_suite(3, A, n_terms=5, seed=20245))]
    return [
        check_minnorm_oracle(),
        check_minnorm_kkt(),
        check_closed_form(),
        check_gradients(_sample_problems(20242), 20242),
        check_unbiasedness(_sample_problems(20243), 20243, n_samples=mc),
        check_mgd_reduction(mgd, 20244),
        check_descent(descent, rounds=200 if level == "full" else 100),
    ]
