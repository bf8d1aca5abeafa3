#!/usr/bin/env python3
"""Objective heterogeneity, data partitions, and reproducible streams.

The indicator matrix routes objectives to clients: identity gives each client
its own objective, all-ones shares every objective, and arbitrary binary
patterns express mixed interest.  Data heterogeneity enters separately via
the partition plan.  Everything is driven by counter-based random streams, so
client execution order can never change a result.
"""

import numpy as np

from fedmoo import (ExperimentConfig, IndicatorMatrix, client_stream, partition,
                    quadratic_suite, run_experiment)
from fedmoo.reporting import round_columns

print("=== indicator patterns and owner sets ===")
for name, ind in (("identity (one objective per client)", IndicatorMatrix.identity(3)),
                  ("all-ones (everything shared)", IndicatorMatrix.all_ones(2, 3)),
                  ("mixed interest", IndicatorMatrix(np.array([[1, 1, 0], [0, 1, 1]])))):
    print(f"\n{name}:\n{ind.entries}")
    for s, owners in enumerate(ind.owner_sets):
        print(f"  objective {s} owned by clients {list(owners)}")

print("\n=== iid vs label-skew partitions ===")
rng = np.random.default_rng(1)
labels = rng.integers(0, 10, 400)
for title, labels_per_client in (("iid", None), ("label skew, 2 labels per client", 2)):
    plan = partition(labels, 5, labels_per_client=labels_per_client, seed=3)
    print(f"\n{title}:")
    for i, idx in enumerate(plan.assignment):
        hist = np.bincount(labels[idx], minlength=10)
        print(f"  client {i} ({len(idx):3d} samples) label histogram {hist}")

print("\n=== counter-based streams: order-independent randomness ===")
a = client_stream(99, client=2, round_index=7, step=0).standard_normal(4)
b = client_stream(99, client=2, round_index=7, step=0).standard_normal(4)
c = client_stream(99, client=3, round_index=7, step=0).standard_normal(4)
print(f"same (client, round, step) key : {a}")
print(f"replayed                       : {b}")
print(f"different client               : {c}")

print("\n=== client heterogeneity pulls local updates apart ===")
A = IndicatorMatrix.all_ones(2, 4)
centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
for radius in (0.0, 0.5, 1.5):
    problem = quadratic_suite(3, A, centers=centers, heterogeneity=radius, seed=11)
    config = ExperimentConfig(indicator=A, d=3, K=10, T=150,
                              eta_global=0.2, eta_local=0.05, seed=5)
    traj = run_experiment(config, problem)
    plateau = round_columns(traj)["delta_Q"][-30:].mean()
    print(f"  center spread {radius:3.1f}: delta_Q plateau = {plateau:.3e}")
print("(equal curvatures keep accumulated updates exactly parallel to the true")
print(" gradient, so the plateau stays at numerical zero; curvature spread is")
print(" what makes the local-step bias visible)")
for spread in (0.0, 0.3, 0.6):
    problem = quadratic_suite(3, A, centers=centers, heterogeneity=0.5, curvature_spread=spread,
                              seed=11)
    config = ExperimentConfig(indicator=A, d=3, K=10, T=150,
                              eta_global=0.2, eta_local=0.05, seed=5)
    traj = run_experiment(config, problem)
    plateau = round_columns(traj)["delta_Q"][-30:].mean()
    print(f"  curvature spread {spread:3.1f}: delta_Q plateau = {plateau:.3e}")
