#!/usr/bin/env python3
"""Finding a common descent direction for conflicting objectives.

Two objectives whose gradients point in conflicting directions still admit a
single update vector along which neither objective increases: the smallest
vector in the convex hull of the gradients.  This script walks through the
min-norm weighting on hand-built instances, checks the solver's optimality
certificate, and cross-checks it against the brute-force lattice oracle and
the two-objective closed form.  The solver is Wolfe's min-norm-point method:
it adds one gradient at a time to an active set and solves for the shortest
point in that set's affine hull, so it ends at the exact optimum after a few
cycles.
"""

import numpy as np

from fedmoo import closed_form_two, fw_gap, grid_oracle, solve_min_norm

print("=== two conflicting gradients ===")
G = np.array([[1.0, 0.2], [-0.6, 0.8]])
sol = solve_min_norm(G)
print(f"gradients:\n{G}")
print(f"weights        = {sol.weights}")
print(f"direction      = {sol.direction}")
print(f"norm_sq        = {sol.norm_sq:.6f}")
print(f"duality gap    = {sol.fw_gap:.2e}  (zero certifies optimality)")
print(f"iterations     = {sol.iterations} (affine solves), converged = {sol.converged}")

# negative inner products with every gradient would mean no common descent
for s in range(2):
    inner = float(G[s] @ sol.direction)
    print(f"<g_{s}, d> = {inner:.6f}  (>= ||d||^2 = {sol.norm_sq:.6f})")

print("\n=== opposing gradients cancel: a stationarity certificate ===")
opposed = np.array([[1.0, 0.0], [-1.0, 0.0]])
sol = solve_min_norm(opposed)
print(f"norm_sq = {sol.norm_sq:.2e} -> no common descent direction exists here")

print("\n=== the solver against the brute-force lattice oracle ===")
rng = np.random.default_rng(0)
print(f"{'case':>4} {'solver':>12} {'oracle':>12} {'difference':>12}")
for case in range(5):
    G = rng.uniform(-1, 1, (3, 4))
    sol = solve_min_norm(G)
    _, oracle = grid_oracle(G, 1e-2, refine_to=1e-3)
    print(f"{case:>4} {sol.norm_sq:>12.8f} {oracle:>12.8f} {sol.norm_sq - oracle:>12.2e}")

print("\n=== two-objective closed form agrees with Wolfe's method ===")
g1, g2 = rng.standard_normal((2, 5))
direct = closed_form_two(g1, g2)
iterative = solve_min_norm(np.vstack([g1, g2]))
print(f"closed form norm_sq = {direct.norm_sq:.12f}")
print(f"iterative   norm_sq = {iterative.norm_sq:.12f}")

print("\n=== the duality gap flags suboptimal weights ===")
G = np.array([[1.0, 0.0], [0.0, 1.0]])
for lam in ([1.0, 0.0], [0.75, 0.25], [0.5, 0.5]):
    print(f"lambda = {lam}: gap = {fw_gap(G, np.array(lam)):.3f}")
