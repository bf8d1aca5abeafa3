"""Min-norm subproblem: solver, closed form, lattice oracle, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmoo import minnorm
from fedmoo.minnorm import closed_form_two, fw_gap, grid_oracle, solve_min_norm
from fedmoo.verify import _kkt_instance, check_closed_form, check_minnorm_oracle


class TestHandInstances:
    def test_symmetric_pair_gives_midpoint(self):
        sol = solve_min_norm(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-12)
        assert np.allclose(sol.direction, [0.5, 0.5], atol=1e-12)
        assert sol.norm_sq == pytest.approx(0.5, abs=1e-12)
        assert sol.converged

    def test_opposing_vectors_cancel_to_stationarity(self):
        sol = solve_min_norm(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert sol.norm_sq <= 1e-20
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-10)

    def test_collinear_picks_shorter_vector(self):
        sol = solve_min_norm(np.array([[2.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(sol.weights, [0.0, 1.0], atol=1e-12)
        assert np.allclose(sol.direction, [1.0, 0.0], atol=1e-12)
        assert sol.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_single_row_degenerates_to_that_row(self):
        g = np.array([[3.0, -4.0]])
        sol = solve_min_norm(g)
        assert np.array_equal(sol.weights, [1.0])
        assert np.array_equal(sol.direction, g[0])
        assert sol.norm_sq == pytest.approx(25.0)

    def test_empty_and_nonfinite_inputs_rejected(self):
        with pytest.raises(ValueError):
            solve_min_norm(np.empty((0, 3)))
        with pytest.raises(ValueError):
            solve_min_norm(np.array([[np.nan, 1.0]]))

    def test_zero_tolerance_rejected(self):  # the gap never reaches 0 under roundoff
        with pytest.raises(ValueError, match="tol must be > 0, got 0.0"):
            solve_min_norm(np.eye(2), tol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gram_matrix_is_flagged(self):
        G = np.array([[1e200, 1.0], [1.0, 1e200], [1.0, -1e200]])  # finite rows, G G^T is not
        sol = solve_min_norm(G)
        assert (sol.termination, sol.converged, sol.norm_sq) == ("overflow", False, np.inf)
        assert np.isnan(sol.weights).all() and np.isnan(sol.direction).all()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_closed_form_is_solved_from_the_rows(self):
        # G G^T is finite (entries +-1e308), but the segment's denominator
        # Q_00 - 2 Q_01 + Q_11 overflows; the rows themselves give the midpoint
        sol = solve_min_norm(np.array([[1e154, 0.0], [-1e154, 0.0]]))
        assert (sol.termination, sol.converged) == ("gap_tol", True)
        assert sol.weights.tolist() == [0.5, 0.5] and sol.norm_sq == 0.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_minor_cycle_is_solved_from_the_rows(self):
        # the minor cycle's Gram solve on the support [1, 0] overflows too; at this
        # scale the Gram gap's roundoff stops the solve, and the gap from G says so
        G = np.array([[1e154, 1.0], [-1e154, 2.0], [3e153, -1e153]])
        sol = solve_min_norm(G)
        w = sol.weights
        assert sol.termination == "gap_tol" and (w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-12
        assert np.isfinite(sol.direction).all() and sol.norm_sq <= (G * G).sum(axis=1).min()
        assert sol.converged == (fw_gap(G, w) <= 1e-10)

    @pytest.mark.filterwarnings("error")
    def test_an_affine_step_overflowing_from_the_rows_too_ends_as_overflow(self, monkeypatch):
        # no finite input is known to reach this (least squares on finite rows stays
        # finite), so a stand-in for the solve from the rows overflows instead
        gram_only = minnorm._affine_min
        monkeypatch.setattr(minnorm, "_affine_min", lambda Q, support, rows=None: (
            gram_only(Q, support) if rows is None else np.full(len(support), np.nan)))
        sol = solve_min_norm(np.array([[1e154, 0.0], [-1e154, 0.0]]))
        assert (sol.termination, sol.converged, sol.iterations) == ("overflow", False, 1)
        assert np.isnan(sol.weights).all() and np.isnan(sol.direction).all()

    def test_max_iter_exhaustion_is_flagged(self):
        G = np.array([[1.0, 0.2, 0.0], [-0.4, 1.0, 0.1], [0.1, -0.9, 1.0]])
        sol = solve_min_norm(G, tol=1e-14, max_iter=1)
        assert not sol.converged
        assert sol.termination == "max_iter"

    def test_max_iter_only_once_the_budget_is_spent(self):
        # at scale 1e3 the gap from G can exceed tol after the Gram gap met it; case 0
        # (S=12, d=19, budget 3280) stops on gap_tol after 2 iterations
        for case in range(300):
            G = 1e3 * _kkt_instance(np.random.default_rng([7, case]))
            sol = solve_min_norm(G)
            assert sol.termination != "max_iter" or sol.iterations >= 10 * G.size + 1000
            assert sol.converged == (sol.fw_gap <= 1e-10)

    def test_a_supported_vertex_entering_again_stalls_the_solve(self):
        # at scale 1e6 the Gram gap's roundoff near the optimum exceeds tol and names a
        # vertex already supported; re-adding it would loop until max_iter
        stalled = 0
        for seed in range(23):
            rng = np.random.default_rng(seed)
            G = 1e6 * rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            sol = solve_min_norm(G, max_iter=50)
            assert sol.termination != "max_iter" and sol.iterations <= 2 * G.shape[0]
            stalled += sol.termination == "stalled"
        assert stalled >= 10


class TestSolverProperties:
    def test_matches_grid_oracle_on_random_instances(self):
        result = check_minnorm_oracle(n_instances=40, seed=81)
        assert result.passed, result.line()

    def test_objective_sequence_non_increasing(self):
        # a budget of k updates stops the solve after its k-th affine step
        rng = np.random.default_rng(17)
        for _ in range(20):
            G = rng.uniform(-1, 1, (4, 3))
            objs = [solve_min_norm(G, max_iter=k).norm_sq for k in range(1, 12)]
            assert (np.diff(objs) <= 1e-12).all()

    def test_feasibility_is_exact(self):
        # unit-scale instances, then rank-deficient ones with duplicate rows at
        # scales 1e-6 to 1e6, where the Gram matrix's roundoff is largest
        rng = np.random.default_rng(23)
        cases = [rng.standard_normal((3, 5)) for _ in range(50)]
        cases += [10.0 ** rng.uniform(-6.0, 6.0) * _kkt_instance(np.random.default_rng([23, c]))
                  for c in range(200)]
        for G in cases:
            sol = solve_min_norm(G)
            assert (sol.weights >= 0).all() and not np.signbit(sol.weights).any()
            assert abs(sol.weights.sum() - 1.0) <= 1e-12
            assert sol.norm_sq == pytest.approx(float(sol.direction @ sol.direction),
                                                rel=1e-12, abs=1e-300)

    def test_converged_flag_certified_by_gap(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            G = rng.uniform(-1, 1, (3, 3))
            sol = solve_min_norm(G, tol=1e-10)
            if sol.converged:
                assert fw_gap(G, sol.weights) <= 1e-10

    def test_zero_in_hull_detected_as_stationary(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            # construct rows whose convex combination with known weights is zero
            w = rng.dirichlet(np.ones(3))
            g1, g2 = rng.standard_normal((2, 4))
            g3 = -(w[0] * g1 + w[1] * g2) / w[2]
            sol = solve_min_norm(np.vstack([g1, g2, g3]), tol=1e-10)
            assert sol.norm_sq <= 1e-10

    def test_nearly_collinear_vertices_converge(self):
        # all seven rows sit within ~1e-9 of the line through (0.25, t, 0, ...); the
        # Gram matrix rounds away the entering vertex's weight, the rows do not
        tail = np.ones(5)
        p = np.concatenate([[0.2500000012500001, 0.5000000012500001], 1.5e-09 * tail])
        b = np.concatenate([[0.2500000015000001, 0.5000000015], 1.75e-09 * tail])
        c = np.concatenate([[0.2500000012500001, 1.5e-09], 1.5e-09 * tail])
        e = np.concatenate([[0.2500000010000001, -0.49999999849999993], 1.25e-09 * tail])
        G = np.vstack([p, b, c, b, b, e, b])
        sol = solve_min_norm(G)
        assert sol.converged and sol.termination == "gap_tol"
        assert sol.fw_gap <= 1e-10
        assert sol.norm_sq < float(c @ c)  # strictly below the shortest vertex it started at

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(37)
        G = rng.standard_normal((3, 4))
        perm = np.array([2, 0, 1])
        direct = solve_min_norm(G)
        permuted = solve_min_norm(G[perm])
        assert np.allclose(permuted.weights, direct.weights[perm], atol=1e-12)
        assert permuted.norm_sq == pytest.approx(direct.norm_sq, abs=1e-12)


@st.composite
def direction_sets(draw):
    """S x d matrices with S in [2, 12], d in [1, 30], of any rank, with duplicate rows."""
    S = draw(st.integers(2, 12))
    d = draw(st.integers(1, 30))
    rank = draw(st.integers(1, min(S, d)))
    entries = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
    coef = draw(hnp.arrays(np.float64, (S, rank), elements=entries))
    basis = draw(hnp.arrays(np.float64, (rank, d), elements=entries))
    G = coef @ basis / 4.0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, S - 1), st.integers(0, S - 1)),
                                  max_size=3)):
        G[dst] = G[src]
    return G


class TestKKTProperty:
    @settings(max_examples=300, deadline=None)
    @given(direction_sets())
    def test_solution_satisfies_kkt_conditions(self, G):
        # optimality of min ||w^T G||^2 on the simplex, independent of the duality gap:
        # <G_s, u> = ||u||^2 on the support and >= ||u||^2 on every vertex
        sol = solve_min_norm(G)
        w = sol.weights
        u = w @ G
        scores = G @ u
        nsq = float(u @ u)
        assert sol.converged
        assert (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-12
        assert np.abs(scores[w > 0] - nsq).max() <= 1e-9
        assert scores.min() >= nsq - 1e-9


class TestClosedFormTwo:
    def test_symmetric_pair(self):
        sol = closed_form_two(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(sol.weights, [0.5, 0.5])

    def test_collinear_clips_to_shorter(self):
        sol = closed_form_two(np.array([1.0, 0.0]), np.array([3.0, 0.0]))
        assert np.allclose(sol.weights, [1.0, 0.0])

    def test_equal_vectors_tie_break(self):
        g = np.array([0.3, -0.7])
        sol = closed_form_two(g, g)
        assert np.allclose(sol.weights, [0.5, 0.5])

    def test_two_zero_vectors_tie_break(self):
        sol = closed_form_two(np.zeros(3), np.zeros(3))
        assert np.allclose(sol.weights, [0.5, 0.5])
        assert sol.norm_sq == 0.0

    def test_agrees_with_iterative_solver(self):
        result = check_closed_form(seed=91)
        assert result.passed, result.line()


class TestFwGap:
    def test_zero_at_optimum_of_symmetric_pair(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert fw_gap(G, np.array([0.5, 0.5])) <= 1e-10

    def test_hand_value_at_vertex(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert fw_gap(G, np.array([1.0, 0.0])) == pytest.approx(2.0)

    @settings(max_examples=80, deadline=None)
    @given(exponent=st.floats(-6.0, 6.0), seed=st.integers(0, 2**16))
    def test_optimum_certifies_at_every_scale(self, exponent, seed):
        # the gap's roundoff at the optimum grows as |G|^2
        rng = np.random.default_rng(seed)
        G = 10.0 ** exponent * rng.standard_normal((int(rng.integers(2, 6)),
                                                    int(rng.integers(2, 6))))
        sol = solve_min_norm(G)
        assert fw_gap(G, sol.weights) == sol.fw_gap >= 0.0

    def test_bounds_suboptimality(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            G = rng.uniform(-1, 1, (3, 4))
            opt = solve_min_norm(G).norm_sq
            lam = rng.dirichlet(np.ones(3))
            u = lam @ G
            assert fw_gap(G, lam) >= float(u @ u) - opt - 1e-10


class TestGridOracle:
    def test_symmetric_pair_value(self):
        _, nsq = grid_oracle(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.01)
        assert nsq == pytest.approx(0.5, abs=1e-4)

    def test_cancellation(self):
        _, nsq = grid_oracle(np.array([[1.0, 0.0], [-1.0, 0.0]]), 0.01)
        assert nsq <= 1e-4

    def test_too_many_objectives_rejected(self):
        with pytest.raises(ValueError, match="S <= 4"):
            grid_oracle(np.ones((5, 2)), 0.1)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            grid_oracle(np.ones((2, 2)), 0.7)

    def test_four_objectives_accepted(self):
        weights, nsq = grid_oracle(np.eye(4), 0.25)
        assert weights.tolist() == [0.25] * 4 and nsq == 0.25

    def test_step_one_half_accepted(self):
        weights, nsq = grid_oracle(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.5)
        assert weights.tolist() == [0.5, 0.5] and nsq == 0.5

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            grid_oracle(np.ones((2, 2)), 0.0)

    def test_one_objective_is_not_refined(self):
        weights, nsq = grid_oracle([[1.0, 2.0]], 0.1, refine_to=0.01)
        assert weights.tolist() == [1.0] and nsq == 5.0

    def test_lattice_within_two_steps_of_the_solver(self):
        for case in range(40):
            G = np.random.default_rng([81, case]).uniform(-1, 1, (3, 4))
            _, oracle = grid_oracle(G, 1e-2, refine_to=1e-3)
            assert oracle <= solve_min_norm(G).norm_sq + 2.0 * 1e-2

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            G = rng.uniform(-1, 1, (3, 3))
            _, coarse = grid_oracle(G, 1e-2)
            _, fine = grid_oracle(G, 1e-2, refine_to=1e-3)
            assert fine <= coarse + 1e-15
