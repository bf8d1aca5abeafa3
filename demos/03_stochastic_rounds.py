#!/usr/bin/env python3
"""Stochastic rounds: minibatch gradients and the variance floor.

The same federated loop with minibatch gradients drawn from counter-based
per-(client, round, step) streams.  Smaller batches converge to a noisier
neighborhood of stationarity; the full-shard batch recovers the exact
full-gradient run.  The running minimum of the stationarity measure is the
quantity the non-convex theory bounds.
"""

import numpy as np

from fedmoo import (ExperimentConfig, IndicatorMatrix, quadratic_suite, run_experiment,
                    toy_nonconvex_suite)
from fedmoo.reporting import round_columns

A = IndicatorMatrix(np.array([[1, 1, 0], [0, 1, 1]]))
problem = toy_nonconvex_suite(5, A, n_terms=6, heterogeneity=0.3, amp_noise=0.5, n_per_client=64,
                              seed=100)
print(f"tanh suite: L = {problem.smoothness:.2f}, G = {problem.grad_bound:.2f}, "
      f"D = {problem.stoch_grad_bound:.2f}")

print(f"\n{'batch':>6} {'mean |dbar|^2':>14} {'running min':>12}")
for batch in (4, 16, 64):
    config = ExperimentConfig(indicator=A, d=5, K=3, T=600, eta_global=0.1, eta_local=0.02,
                              batch_size=batch, seed=1)
    traj = run_experiment(config, problem)
    cols = round_columns(traj)
    label = batch if batch < 64 else "full"
    print(f"{label!s:>6} {cols['dbar_norm_sq'][-100:].mean():>14.3e} "
          f"{cols['running_min_dbar'][-1]:>12.3e}")

print("\nbatch covering the shard reproduces the full-gradient run exactly:")
stoch = ExperimentConfig(indicator=A, d=5, K=3, T=50, eta_global=0.1, eta_local=0.02,
                         batch_size=64, seed=2)
full = ExperimentConfig(indicator=A, d=5, K=3, T=50, eta_global=0.1, eta_local=0.02, seed=2)
a = run_experiment(stoch, problem).final_point
b = run_experiment(full, problem).final_point
print(f"  final points identical: {np.array_equal(a, b)}")

print("\nsample-sharing modes (same seed, different stream keys):")
for sharing in ("per_client", "per_objective"):
    config = ExperimentConfig(indicator=A, d=5, K=3, T=100, eta_global=0.1, eta_local=0.02,
                              batch_size=8, seed=3, sample_sharing=sharing)
    traj = run_experiment(config, problem)
    print(f"  {sharing:>14}: final |dbar|^2 = {traj.records[-1].dbar_norm_sq:.3e}")

print("\nvariance floor on the quadratic suite (delta_Q plateau, last 20%):")
A4 = IndicatorMatrix.all_ones(2, 4)
rng = np.random.default_rng(40)
centers = rng.standard_normal((2, 6))
quad = quadratic_suite(6, A4, centers=centers, heterogeneity=0.3, n_per_client=128,
                       data_spread=1.5, seed=40)
for batch in (16, 64, None):
    config = ExperimentConfig(indicator=A4, d=6, K=5, T=300, eta_global=0.3, eta_local=1e-2,
                              batch_size=batch, seed=4)
    traj = run_experiment(config, quad)
    plateau = round_columns(traj)["delta_Q"][-60:].mean()
    print(f"  batch {batch if batch else 'full':>4}: plateau = {plateau:.3e}")
