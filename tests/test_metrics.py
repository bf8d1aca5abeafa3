"""Convergence metrics: stationarity measure, optimality gap, rate fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoo.core import IndicatorMatrix
from fedmoo.metrics import (dbar_norm_sq, delta_q, fit_rate, lambda_drift,
                            rounds_to_threshold, running_min)
from fedmoo.minnorm import solve_min_norm
from fedmoo.problems import quadratic_suite, toy_nonconvex_suite


def plain_quadratic(centers, q=1.0):
    centers = np.asarray(centers, dtype=np.float64)
    S, d = centers.shape
    A = IndicatorMatrix.all_ones(S, 1)
    return quadratic_suite(d, A, centers=centers, curvature=q, seed=0)


class TestDbarNormSq:
    def test_uniform_weights_cancel_opposing_gradients(self):
        prob = plain_quadratic([[-1.0, 0.0], [1.0, 0.0]])  # grads at 0: (1,0), (-1,0)
        assert dbar_norm_sq(np.array([0.5, 0.5]), np.zeros(2), prob) == 0.0

    def test_vertex_weight_returns_single_gradient_norm(self):
        prob = plain_quadratic([[1.0, 0.0], [0.0, 1.0]])
        x = np.zeros(2)
        val = dbar_norm_sq(np.array([1.0, 0.0]), x, prob)
        assert val == pytest.approx(float(np.linalg.norm(prob.global_grad(0, x)) ** 2))

    def test_zero_at_symmetric_landing_point(self):
        prob = plain_quadratic([[1.0, 0.0], [0.0, 1.0]])
        assert dbar_norm_sq(np.array([0.5, 0.5]), np.array([0.5, 0.5]), prob) <= 1e-20

    def test_invariant_under_consistent_permutation(self):
        centers = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [0.5, 0.5, 0.0]])
        prob = plain_quadratic(centers)
        perm = np.array([2, 0, 1])
        prob_perm = plain_quadratic(centers[perm])
        lam = np.array([0.2, 0.3, 0.5])
        x = np.array([0.1, -0.4, 0.2])
        assert dbar_norm_sq(lam, x, prob) == pytest.approx(
            dbar_norm_sq(lam[perm], x, prob_perm), abs=1e-12)


class TestDeltaQ:
    def test_zero_at_scalarization_optimum(self):
        prob = plain_quadratic([[1.0, 0.0], [0.0, 1.0]])
        lam = np.array([0.3, 0.7])
        assert delta_q(lam, prob.pareto_point(lam), prob) == 0.0

    def test_hand_value_at_origin(self):
        # centers (1,0) and (0,1), q=1, uniform weights: x_* = (0.5, 0.5),
        # each objective gap is 0.5 - 0.25, weighted sum = 0.25
        prob = plain_quadratic([[1.0, 0.0], [0.0, 1.0]])
        val = delta_q(np.array([0.5, 0.5]), np.zeros(2), prob)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_nonnegative_on_random_points(self):
        prob = plain_quadratic([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rng = np.random.default_rng(3)
        for _ in range(100):
            lam = rng.dirichlet(np.ones(2))
            assert delta_q(lam, rng.standard_normal(3), prob) >= 0.0

    @settings(max_examples=80, deadline=None)
    @given(exponent=st.floats(-6.0, 6.0), seed=st.integers(0, 2**16), ulps=st.integers(-3, 3))
    def test_roundoff_next_to_the_minimizer_passes_at_every_center_scale(
            self, exponent, seed, ulps):
        # a few ulps from x_*, the gap is roundoff of losses that grow as |centers|^2
        rng = np.random.default_rng(seed)
        centers = 10.0 ** exponent * rng.standard_normal((3, 2))
        prob = quadratic_suite(2, IndicatorMatrix.all_ones(3, 4), centers=centers,
                               heterogeneity=0.3, seed=seed)
        lam = rng.dirichlet(np.ones(3))
        x_star = prob.pareto_point(lam)
        assert delta_q(lam, x_star + ulps * np.spacing(x_star), prob) >= 0.0

    def test_gap_beyond_roundoff_still_raises(self):
        prob = plain_quadratic([[1000.0, 0.0], [0.0, 1000.0]])
        lam = np.array([0.5, 0.5])
        prob.pareto_point = lambda w: np.array([400.0, 400.0])  # not the minimizer (500, 500)
        with pytest.raises(AssertionError, match="below roundoff tolerance"):
            delta_q(lam, np.array([500.0, 500.0]), prob)

    def test_requires_pareto_reference(self):
        prob = toy_nonconvex_suite(3, IndicatorMatrix.all_ones(2, 1), seed=1)
        with pytest.raises(ValueError, match="scalarization minimizer"):
            delta_q(np.array([0.5, 0.5]), np.zeros(3), prob)


class TestLambdaDrift:
    def test_single_objective_has_zero_drift(self):
        prob = plain_quadratic([[1.0, 2.0]])
        assert lambda_drift(np.array([1.0]), np.zeros(2), prob) == 0.0

    def test_full_gradient_weights_have_negligible_drift(self):
        prob = plain_quadratic([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([0.2, -0.3])
        lam = solve_min_norm(prob.gradient_matrix(x)).weights
        assert lambda_drift(lam, x, prob) <= 1e-8

    def test_arbitrary_weights_give_finite_nonnegative_drift(self):
        prob = plain_quadratic([[1.0, 0.0], [0.0, 1.0]])
        val = lambda_drift(np.array([0.9, 0.1]), np.zeros(2), prob)
        assert np.isfinite(val) and val >= 0.0


class TestFitRate:
    def test_recovers_power_law_slope(self):
        t = np.arange(1, 101)
        fit = fit_rate(1.0 / t, (1, 100), model="power")
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.residual <= 1e-10

    def test_recovers_exponential_slope(self):
        t = np.arange(1, 101)
        fit = fit_rate(np.exp(-0.3 * t), (1, 100), model="exponential")
        assert fit.slope == pytest.approx(-0.3, abs=1e-6)
        assert fit.residual <= 1e-10

    def test_constant_series_has_zero_slope(self):
        fit = fit_rate(np.full(50, 2.5), (1, 50), model="power")
        assert fit.slope == pytest.approx(0.0, abs=1e-6)

    def test_zeros_are_clipped_and_flagged(self):
        series = np.array([1.0, 0.5, 0.0, 0.25, 0.1, 0.05])
        fit = fit_rate(series, (1, 6), model="exponential")
        assert fit.clipped

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match="fewer than 5"):
            fit_rate(np.ones(10), (1, 4))

    def test_window_outside_series_rejected(self):
        with pytest.raises(ValueError, match="window"):
            fit_rate(np.ones(10), (5, 11))


class TestThresholds:
    def test_first_crossing_round(self):
        assert rounds_to_threshold([0.5, 0.2, 0.009, 0.3], 1e-2) == 3

    def test_no_crossing_returns_none(self):
        assert rounds_to_threshold([0.5, 0.2], 1e-2) is None

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            rounds_to_threshold([1.0], 0.0)

    def test_running_min_is_cumulative(self):
        out = running_min([3.0, 1.0, 2.0, 0.5, 0.7])
        assert np.array_equal(out, [3.0, 1.0, 1.0, 0.5, 0.5])
