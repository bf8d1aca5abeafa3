#!/usr/bin/env python3
"""Full-gradient federated rounds on a strongly convex quadratic suite.

Four clients share two quadratic objectives with heterogeneous client
centers.  Each round runs K local gradient steps per objective, averages the
accumulated updates over each objective's owners, solves the min-norm
weighting, and takes one global step.  The weighted optimality gap delta_Q
decays linearly (geometrically) in the round count, and the weighted-output
iterate is sampled with the exponentially tilted round weights.
"""

import numpy as np

from fedmoo import (ExperimentConfig, IndicatorMatrix, fit_rate, quadratic_suite,
                    run_experiment, strongly_convex_step_limit)
from fedmoo.reporting import round_columns

rng = np.random.default_rng(42)
centers = rng.standard_normal((2, 10))
centers /= np.linalg.norm(centers, axis=1, keepdims=True)

A = IndicatorMatrix.all_ones(2, 4)
problem = quadratic_suite(10, A, centers=centers, heterogeneity=0.3, n_per_client=32, seed=42)
print(f"suite: mu = {problem.mu:.3f}, L = {problem.smoothness:.3f}")

eta = 0.1
print(f"server step eta = {eta} (limit {strongly_convex_step_limit(problem.smoothness, problem.mu):.3f})")

config = ExperimentConfig(M=4, S=2, indicator=A, d=10, K=5, T=200,
                          eta_global=eta, eta_local=1e-3, seed=7)
traj = run_experiment(config, problem)

dq = traj.series("delta_q")
lams = round_columns(traj)["lambda"]
print(f"\n{'round':>6} {'delta_Q':>12} {'|dbar|^2':>12} {'lambda':>18}")
for t in (1, 2, 5, 10, 20, 50, 100, 200):
    rec = traj.records[t - 1]
    print(f"{t:>6} {dq[t-1]:>12.3e} {rec.dbar_norm_sq:>12.3e} "
          f"({lams[t-1, 0]:.3f}, {lams[t-1, 1]:.3f})")

fit = fit_rate(dq, (10, 100), model="exponential")
print(f"\nexponential fit of delta_Q on rounds [10, 100]:")
print(f"  slope = {fit.slope:.4f} per round  (contraction factor {np.exp(fit.slope):.4f})")
print(f"  rms residual = {fit.residual:.2e}")

print(f"\nfinal point        : {np.round(traj.final_point, 4)}")
print(f"weighted output    : {np.round(traj.weighted_output, 4)}")
print(f"scalarization opt  : {np.round(problem.pareto_point(traj.records[-1].weights), 4)}")
