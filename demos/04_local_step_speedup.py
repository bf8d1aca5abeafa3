#!/usr/bin/env python3
"""Local update steps cut communication rounds on a label-skewed benchmark.

Five clients hold label-skewed shards (at most two mixture components each)
of a two-task classification problem.  Running more local steps per round
does more optimization work between synchronizations, so the number of
communication rounds needed to push every task within 1e-2 of its own
minimum drops sharply with K.  Accumulated updates are kept as raw sums here
(normalize_delta_by_K: false) so a larger K yields a proportionally larger
effective step, which is what produces the speedup.
"""

import numpy as np

from fedmoo import (ExperimentConfig, IndicatorMatrix, rounds_to_threshold,
                    run_experiment, synthetic_classification_suite)

A = IndicatorMatrix.all_ones(2, 5)
EPS = 1e-2

print(f"{'seed':>5} {'K=1':>6} {'K=5':>6} {'K=10':>6}")
table = {k: [] for k in (1, 5, 10)}
for seed in (300, 301, 302):
    problem = synthetic_classification_suite(12, A, n_per_client=40, partition="label_skew",
                                             labels_per_client=2, n_components=10, ridge=0.05,
                                             seed=seed)
    shard_labels = problem.plan.shard_labels(problem.components)
    assert all(len(labs) <= 2 for labs in shard_labels)
    row = []
    for K in (1, 5, 10):
        config = ExperimentConfig(indicator=A, d=12, K=K, T=200,
                                  eta_global=0.5, eta_local=0.05,
                                  normalize_delta_by_K=False, seed=seed)
        traj = run_experiment(config, problem)
        losses = np.vstack([r.losses for r in traj.records])
        gap = (losses - problem.f_min[None, :]).max(axis=1)
        hit = rounds_to_threshold(gap, EPS)
        table[K].append(hit)
        row.append(hit)
    print(f"{seed:>5} " + " ".join(f"{r!s:>6}" for r in row))

print(f"\nmean rounds to {EPS:g} loss gap (and speedup over K=1):")
base = np.mean(table[1])
for K in (1, 5, 10):
    mean = np.mean(table[K])
    print(f"  K={K:<3} {mean:6.1f}  ({base / mean:4.1f}x)")

print("\nper-client label sets under label-skew(2), last seed:")
for i, labs in enumerate(shard_labels):
    print(f"  client {i}: components {[int(v) for v in labs]}")
