"""Problem suites: gradients, certificates, partitions."""

import numpy as np
import pytest
from scipy.stats import chisquare

from fedmoo.core import IndicatorMatrix
from fedmoo.minnorm import solve_min_norm
from fedmoo.problems import (PartitionPlan, partition, quadratic_suite,
                             synthetic_classification_suite, toy_nonconvex_suite)


def fd_gradient(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


@pytest.fixture
def quad():
    A = IndicatorMatrix.all_ones(2, 3)
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    return quadratic_suite(2, 2, centers, 1.0, 3, A, heterogeneity=0.4,
                           curvature_spread=0.3, n_per_client=20, seed=3)


class TestQuadraticSuite:
    def test_symmetric_instance_hand_values(self):
        A = IndicatorMatrix.all_ones(2, 1)
        prob = quadratic_suite(2, 2, np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0, 1, A, seed=0)
        x = np.zeros(2)
        assert np.allclose(prob.global_grad(0, x), [-1.0, 0.0])
        assert np.allclose(prob.global_grad(1, x), [0.0, -1.0])
        sol = solve_min_norm(prob.gradient_matrix(x))
        assert np.allclose(sol.direction, [-0.5, -0.5])
        landing = x - 1.0 * sol.direction  # one exact step with eta = 1
        assert np.allclose(landing, [0.5, 0.5])
        assert solve_min_norm(prob.gradient_matrix(landing)).norm_sq <= 1e-20

    def test_vertex_weights_reach_single_objective_minimum(self, quad):
        x_star = quad.pareto_point(np.array([1.0, 0.0]))
        assert quad.global_loss(0, x_star) == pytest.approx(quad.f_min[0], abs=1e-12)
        assert np.linalg.norm(quad.global_grad(0, x_star)) <= 1e-10

    def test_zero_heterogeneity_makes_shards_identical(self):
        A = IndicatorMatrix.all_ones(2, 4)
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        prob = quadratic_suite(2, 2, centers, 1.0, 4, A, heterogeneity=0.0, seed=1)
        x = np.array([0.3, -0.2])
        grads = [prob.grad(0, i, x) for i in range(4)]
        for g in grads[1:]:
            assert np.array_equal(grads[0], g)
        # averaging four identical vectors is exact in binary floating point
        assert np.array_equal(grads[0], prob.global_grad(0, x))

    def test_client_centers_average_to_base_centers(self, quad):
        for s, owners in enumerate(quad.indicator.owner_sets):
            mean = quad.client_centers[s, list(owners)].mean(axis=0)
            assert np.allclose(mean, quad.centers[s], atol=1e-12)

    def test_gradients_match_finite_differences(self, quad):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = int(rng.integers(2))
            i = int(rng.integers(3))
            x = rng.standard_normal(2)
            fd = fd_gradient(lambda z: quad.loss(s, i, z), x)
            an = quad.grad(s, i, x)
            assert np.linalg.norm(an - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_strong_convexity_inequality(self, quad):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = rng.standard_normal((2, 2))
            for s in range(2):
                lhs = quad.global_loss(s, y)
                rhs = (quad.global_loss(s, x)
                       + quad.global_grad(s, x) @ (y - x)
                       + 0.5 * quad.mu * float((y - x) @ (y - x)))
                assert lhs >= rhs - 1e-10

    def test_pareto_reference_is_scalarization_stationary(self, quad):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = rng.dirichlet(np.ones(2))
            x_star = quad.pareto_point(lam)
            g = lam @ quad.gradient_matrix(x_star)
            assert np.linalg.norm(g) <= 1e-10

    def test_stochastic_full_batch_is_exact(self, quad):
        x = np.array([0.4, 0.9])
        full = quad.grad(0, 1, x)
        assert np.array_equal(quad.stoch_grad(0, 1, x, None), full)
        assert np.array_equal(quad.stoch_grad(0, 1, x, np.arange(20)), full)

    def test_stochastic_unbiased(self, quad):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(2)
        draws = np.array([quad.stoch_grad(0, 0, x, rng.integers(0, 20, 4))
                          for _ in range(10_000)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert (np.abs(draws.mean(axis=0) - quad.grad(0, 0, x)) <= 3 * se + 1e-12).all()

    def test_identical_centers_flagged_degenerate(self):
        A = IndicatorMatrix.all_ones(2, 1)
        prob = quadratic_suite(2, 2, np.ones((2, 2)), 1.0, 1, A, seed=0)
        assert prob.degenerate_pareto


class TestNonconvexSuite:
    def test_single_term_gradient_bound_is_amp_times_weight_norm(self):
        A = IndicatorMatrix.all_ones(1, 1)
        prob = toy_nonconvex_suite(3, 1, 1, A, 2, n_terms=1, ridge=0.0, heterogeneity=0.0)
        expected = abs(prob.client_amps[0, 0, 0]) * np.linalg.norm(prob.term_weights[0, 0])
        assert prob.grad_bound == pytest.approx(expected, rel=1e-12)

    def test_bounds_hold_over_random_evaluations(self):
        A = IndicatorMatrix(np.array([[1, 1], [1, 1]]))
        prob = toy_nonconvex_suite(4, 2, 2, A, 9, n_terms=5, ridge=0.0, amp_noise=0.4)
        rng = np.random.default_rng(21)
        worst_g = 0.0
        worst_d = 0.0
        for _ in range(10_000):
            s, i = int(rng.integers(2)), int(rng.integers(2))
            x = 3.0 * rng.standard_normal(4)
            worst_g = max(worst_g, np.linalg.norm(prob.grad(s, i, x)))
            idx = rng.integers(0, prob.n_per_client, 1)
            worst_d = max(worst_d, np.linalg.norm(prob.stoch_grad(s, i, x, idx)))
        assert worst_g <= prob.grad_bound + 1e-12
        assert worst_d <= prob.stoch_grad_bound + 1e-12

    def test_loss_bounded_below_without_ridge(self):
        A = IndicatorMatrix.all_ones(2, 2)
        prob = toy_nonconvex_suite(3, 2, 2, A, 4, n_terms=6, ridge=0.0)
        rng = np.random.default_rng(33)
        for _ in range(200):
            x = 5.0 * rng.standard_normal(3)
            for s in range(2):
                assert prob.global_loss(s, x) >= prob.lower_bound - 1e-12

    def test_gradients_match_finite_differences(self):
        A = IndicatorMatrix(np.array([[1, 0], [1, 1]]))
        prob = toy_nonconvex_suite(4, 2, 2, A, 14, n_terms=4, ridge=0.05)
        rng = np.random.default_rng(15)
        for _ in range(50):
            s = int(rng.integers(2))
            i = int(prob.indicator.owner_sets[s][rng.integers(len(prob.indicator.owner_sets[s]))])
            x = rng.standard_normal(4)
            fd = fd_gradient(lambda z: prob.loss(s, i, z), x)
            assert np.linalg.norm(prob.grad(s, i, x) - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_stochastic_unbiased(self):
        A = IndicatorMatrix.all_ones(1, 1)
        prob = toy_nonconvex_suite(3, 1, 1, A, 44, n_terms=4, amp_noise=0.5, n_per_client=32)
        rng = np.random.default_rng(55)
        x = rng.standard_normal(3)
        draws = np.array([prob.stoch_grad(0, 0, x, rng.integers(0, 32, 4))
                          for _ in range(10_000)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert (np.abs(draws.mean(axis=0) - prob.grad(0, 0, x)) <= 3 * se + 1e-12).all()


class TestClassificationSuite:
    def _suite(self, skew=("label_skew", 2), M=5, seed=300, **kw):
        A = IndicatorMatrix.all_ones(2, M)
        return synthetic_classification_suite(12, 2, M, A, 40, skew, seed, **kw)

    def test_full_shard_stochastic_equals_full_gradient(self):
        prob = self._suite(skew="iid", M=1)
        x = np.zeros(12)
        n = prob.shard_size(0)
        assert np.array_equal(prob.stoch_grad(0, 0, x, np.arange(n)), prob.grad(0, 0, x))

    def test_label_skew_limits_distinct_labels(self):
        prob = self._suite()
        for labs in prob.plan.shard_labels(prob.components):
            assert len(labs) <= 2

    def test_minibatch_unbiased(self):
        prob = self._suite(skew="iid", M=2)
        rng = np.random.default_rng(78)
        x = 0.1 * rng.standard_normal(12)
        n = prob.shard_size(0)
        draws = np.array([prob.stoch_grad(0, 0, x, rng.integers(0, n, 16))
                          for _ in range(10_000)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert (np.abs(draws.mean(axis=0) - prob.grad(0, 0, x)) <= 3 * se + 1e-12).all()

    def test_gradients_match_finite_differences(self):
        prob = self._suite(task_overlap=0.25)
        rng = np.random.default_rng(19)
        for _ in range(50):
            s = int(rng.integers(2))
            i = int(rng.integers(5))
            x = rng.standard_normal(12)
            fd = fd_gradient(lambda z: prob.loss(s, i, z), x)
            assert np.linalg.norm(prob.grad(s, i, x) - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_task_views_touch_disjoint_blocks_without_overlap(self):
        prob = self._suite()
        assert len(np.intersect1d(prob.task_cols[0], prob.task_cols[1])) == 0
        x = np.random.default_rng(4).standard_normal(12)
        g0 = prob.grad(0, 0, x)
        assert np.all(g0[prob.task_cols[1]] == 0.0)

    def test_f_min_is_attainable_lower_bound(self):
        prob = self._suite()
        rng = np.random.default_rng(91)
        for _ in range(20):
            x = rng.standard_normal(12)
            for s in range(2):
                assert prob.global_loss(s, x) >= prob.f_min[s] - 1e-9


class TestPartition:
    def test_iid_splits_evenly_with_balanced_histograms(self):
        labels = np.repeat(np.arange(4), 25)
        plan = partition(labels, 4, "iid", seed=1)
        assert [len(a) for a in plan.assignment] == [25, 25, 25, 25]
        global_freq = np.full(4, 0.25)
        for idx in plan.assignment:
            counts = np.bincount(labels[idx], minlength=4)
            assert chisquare(counts, global_freq * len(idx)).pvalue > 0.01

    def test_label_skew_two_of_ten_labels_five_clients(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 10, 400)
        plan = partition(labels, 5, ("label_skew", 2), seed=2)
        for labs in plan.shard_labels(labels):
            assert len(labs) == 2

    def test_single_client_gets_everything(self):
        plan = partition(np.arange(30) % 3, 1, "iid", seed=0)
        assert np.array_equal(plan.assignment[0], np.arange(30))

    def test_infeasible_skew_rejected(self):
        labels = np.arange(10).repeat(5)  # 10 labels
        with pytest.raises(ValueError, match="cannot cover"):
            partition(labels, 2, ("label_skew", 2), seed=0)

    def test_partition_is_deterministic(self):
        labels = np.random.default_rng(6).integers(0, 6, 120)
        a = partition(labels, 4, ("label_skew", 3), seed=9)
        b = partition(labels, 4, ("label_skew", 3), seed=9)
        for x, y in zip(a.assignment, b.assignment):
            assert np.array_equal(x, y)

    def test_overlapping_shards_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PartitionPlan((np.array([0, 1]), np.array([1, 2])), "iid")

    def test_non_exhaustive_shards_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            PartitionPlan((np.array([0, 1]), np.array([3])), "iid")
