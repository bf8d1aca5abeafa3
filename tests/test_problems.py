"""Problem suites: gradients, certificates, partitions."""

import dataclasses
import functools
import inspect
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import chisquare

from fedmoo import problems
from fedmoo.core import ExperimentConfig, IndicatorMatrix
from fedmoo.federation import run_experiment
from fedmoo.minnorm import solve_min_norm
from fedmoo.problems import (SUITES, PartitionPlan, Problem, partition, quadratic_suite,
                             synthetic_classification_suite, toy_nonconvex_suite)
from fedmoo.verify import check_gradients, check_unbiasedness

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("kind", sorted(SUITES))
def test_section_keys_are_the_builder_keywords(kind):
    builder, types = SUITES[kind]
    keywords = [name for name, par in inspect.signature(builder).parameters.items()
                if par.kind is inspect.Parameter.KEYWORD_ONLY]
    assert sorted(types) == sorted(keywords)


def quadratic_reference(prob, s, i, x, indices=None):
    """Loss and gradient of shard (s, i) read from the quadratic suite's public arrays."""
    diff = x - prob.client_centers[s, i]
    loss = 0.5 * prob.client_curv[s, i] * (float(diff @ diff) + prob._anchor_const[s, i])
    if indices is None:
        center = prob.client_centers[s, i]
    else:
        center = prob.anchors[s][i, indices].mean(axis=0)
    return loss, prob.client_curv[s, i] * (x - center)


def tanh_reference(prob, s, i, x, indices=None):
    """Loss and gradient of shard (s, i) read from the tanh suite's public arrays."""
    th = np.tanh(prob.term_weights[s] @ x + prob.client_offsets[s, i])
    loss = float(prob.client_amps[s, i] @ th) + 0.5 * prob.ridge * float(x @ x)
    amp = prob.client_amps[s, i]
    if indices is not None:
        amp = amp * (1.0 + np.add.reduce(prob.amp_eps[s, i, indices]) / len(indices))
    return loss, prob.term_weights[s].T @ (amp * (1.0 - th * th)) + prob.ridge * x


def task_view(prob, s):
    """Task s's full design matrix, rebuilt from raw: shared block, rotated core, bias."""
    h = prob.n_shared
    return np.hstack([prob.raw[:, :h], prob.raw[:, h:] @ prob.rotations[s].T,
                      np.ones((len(prob.raw), 1))])


def logistic_reference(prob, s, i, x, indices=None):
    """Loss and gradient gathered from task s's full design matrix, rebuilt from raw."""
    view = task_view(prob, s)
    idx = prob.shards[i]
    if indices is not None:
        idx = idx[np.asarray(indices)]
    cols = prob.task_cols[s]
    m = prob.task_signs[s, idx] * (view[idx] @ x[cols])
    loss = float(np.logaddexp(0.0, -m).mean()) + 0.5 * prob.ridge * float(x[cols] @ x[cols])
    g = np.zeros_like(x)
    coef = -prob.task_signs[s, idx] / (1.0 + np.exp(m))
    g[cols] = view[idx].T @ coef / len(idx) + prob.ridge * x[cols]
    return loss, g


def random_indicator(seed, S=3, M=5):
    """A random routing with every row and column owned and at least one zero entry."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(0, 2, (S, M))
        if a.any(axis=0).all() and a.any(axis=1).all() and not a.all():
            return IndicatorMatrix(a)


# suite name -> (builder on an indicator, shard oracle written from the public arrays)
ORACLES = {
    "quadratic": (lambda A: quadratic_suite(7, A, heterogeneity=0.4, curvature_spread=0.3,
                                            n_per_client=12, seed=21), quadratic_reference),
    "tanh": (lambda A: toy_nonconvex_suite(6, A, n_terms=5, ridge=0.1, heterogeneity=0.3,
                                           amp_noise=0.4, n_per_client=12, seed=22),
             tanh_reference),
    "logistic": (lambda A: synthetic_classification_suite(14, A, n_per_client=12, seed=23),
                 logistic_reference),
    "logistic-overlap": (lambda A: synthetic_classification_suite(
        14, A, n_per_client=12, task_overlap=0.3, seed=24), logistic_reference),
}


def written(gradient, s, i, x, *batch):
    """The bytes ``gradient`` writes into an ``out`` filled with NaN, which it must return;
    an entry it leaves unwritten stays NaN."""
    out = np.full(x.shape, np.nan)
    assert gradient(s, i, x, *batch, out=out) is out
    return out.tobytes()


@st.composite
def logistic_cases(draw):
    """A routing with every row and column owned, d, classification builder keywords
    and a seed: iid or uneven label-skew shards of 5 to 400 samples, with or without
    a shared block (then task columns past the first are not a slice)."""
    S, M = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    a = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=M, max_size=M),
                               min_size=S, max_size=S)))
    a[np.arange(M) % S, np.arange(M)] = 1
    a[np.arange(S), np.arange(S) % M] = 1
    kw = dict(n_per_client=draw(st.integers(5, 400)),
              task_overlap=draw(st.sampled_from([0.0, 0.3])))
    if M > 1 and draw(st.booleans()):
        k = draw(st.integers(1, 3))
        kw.update(partition="label_skew", labels_per_client=k,
                  n_components=draw(st.integers(2, min(10, M * k))))
    return (tuple(map(tuple, a.tolist())), draw(st.integers(4 * S, 24)), kw,
            draw(st.integers(0, 2**16)))


class TestOperandTables:
    """Every suite's shard surface must equal the formula written against its public
    arrays, bit for bit, whatever per-shard operands the suite keeps internally, and
    whether it allocates its gradients or writes them into ``out``."""

    @pytest.mark.parametrize("suite", sorted(ORACLES))
    @pytest.mark.parametrize("routing", [0, 1, 2])
    def test_shard_surface_matches_the_public_array_formula(self, suite, routing):
        build, reference = ORACLES[suite]
        A = random_indicator(routing)
        prob = build(A)
        rng = np.random.default_rng(100 + routing)
        for s in range(A.n_objectives):
            for i in range(A.n_clients):
                x = rng.standard_normal(prob.d)
                n = prob.shard_size(i)
                mini = rng.integers(0, n, 5)
                batches = [None, rng.permutation(n), rng.permutation(n).tolist(), mini,
                           mini.tolist(), rng.integers(0, n, 1)]
                loss, exact = reference(prob, s, i, x)
                assert np.float64(prob.loss(s, i, x)).tobytes() == np.float64(loss).tobytes()
                assert prob.grad(s, i, x).tobytes() == exact.tobytes()
                assert written(prob.grad, s, i, x) == exact.tobytes()
                for batch in batches:
                    _, want = reference(prob, s, i, x, batch)
                    assert prob.stoch_grad(s, i, x, batch).tobytes() == want.tobytes()
                    assert written(prob.stoch_grad, s, i, x, batch) == want.tobytes()

    @pytest.mark.parametrize("suite", sorted(ORACLES))
    def test_shard_length_batch_with_repeats_is_that_minibatch(self, suite):
        # only the engine maps a covering batch to the exact gradient; a suite computes
        # the indices it is given, however many there are
        build, reference = ORACLES[suite]
        prob = build(random_indicator(0))
        rng = np.random.default_rng(7)
        for s, owners in enumerate(prob.indicator.owner_sets):
            for i in owners:
                x = rng.standard_normal(prob.d)
                n = prob.shard_size(i)
                for batch in (np.zeros(n, dtype=np.int64), np.arange(n) // 2,
                              [n - 1] * n):
                    _, want = reference(prob, s, i, x, batch)
                    assert want.tobytes() != prob.grad(s, i, x).tobytes()
                    assert prob.stoch_grad(s, i, x, batch).tobytes() == want.tobytes()
                    assert written(prob.stoch_grad, s, i, x, batch) == want.tobytes()

    def test_overlapping_tasks_read_columns_that_are_not_contiguous(self):
        prob = ORACLES["logistic-overlap"][0](random_indicator(0))
        gaps = [np.any(np.diff(cols) != 1) for cols in prob.task_cols]
        assert not gaps[0] and all(gaps[1:])

    @pytest.mark.parametrize("routing", [0, 1, 2, 3, 4, 5, "all_ones"])
    def test_quadratic_losses_are_the_closed_form_mean(self, routing):
        # routings 3-5 give an objective non-consecutive owners, whose rows the loss
        # table gathers; every other owner set is consecutive, and its rows are views
        A = (IndicatorMatrix.all_ones(3, 5) if routing == "all_ones"
             else random_indicator(routing))
        assert any(np.any(np.diff(owners) != 1) for owners in A.owner_sets) == (
            routing in (3, 4, 5))
        prob = ORACLES["quadratic"][0](A)
        rng = np.random.default_rng(200)
        for _ in range(4):
            x = rng.standard_normal(prob.d)
            want = []
            for s, owners in enumerate(map(list, A.owner_sets)):
                diff = x - prob.client_centers[s, owners]
                sq = np.einsum("id,id->i", diff, diff) + prob._anchor_const[s, owners]
                want.append(float((0.5 * prob.client_curv[s, owners] * sq).mean()))
                assert np.float64(prob.global_loss(s, x)).tobytes() == np.float64(
                    want[-1]).tobytes()
            assert prob.losses(x).tobytes() == np.array(want).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=logistic_cases())
    # uneven label-skew shards of 226, 450 and 224 samples (pairwise sums of several
    # blocks), objective 0 owned by clients 0 and 2, and a shared block
    @example(case=(((1, 0, 1), (1, 1, 1)), 12,
                   dict(n_per_client=300, partition="label_skew", labels_per_client=2,
                        n_components=4, task_overlap=0.3), 5))
    def test_logistic_losses_are_the_base_owner_loop(self, case):
        # the closed form must give the bytes of Problem.global_loss: each owner's
        # loss, added in ascending owner order from 0.0, divided by the owner count
        rows, d, kw, seed = case
        A = IndicatorMatrix(np.array(rows))
        try:
            prob = synthetic_classification_suite(d, A, seed=seed, **kw)
        except ValueError:  # a label skew these shard sizes cannot serve
            assume(False)
        x = np.random.default_rng(seed).standard_normal(d)
        want = [Problem.global_loss(prob, s, x) for s in range(prob.S)]
        for s in range(prob.S):
            assert np.float64(prob.global_loss(s, x)).tobytes() == np.float64(
                want[s]).tobytes()
        assert prob.losses(x).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("suite", sorted(ORACLES))
    def test_numeric_operands_are_read_only_float64_arrays(self, suite):
        # NumPy 2 converts a Python float operand on every ufunc call, and a 0-d array it
        # does not: a float back in a table costs each call ~0.4 us and changes no value
        prob = ORACLES[suite][0](random_indicator(0))
        operands = [problems._ZERO, problems._ONE, problems._MINUS_ONE]
        for name in OPERAND_TABLES[suite.split("-")[0]]:
            operands += leaves(getattr(prob, name))
        for a in operands:
            assert type(a) is np.ndarray and a.dtype == np.float64 and not a.flags.writeable

    @pytest.mark.parametrize("suite", sorted(ORACLES))
    def test_public_arrays_are_fixed_after_construction(self, suite):
        prob = ORACLES[suite][0](random_indicator(0))
        for name in PUBLIC_ARRAYS[suite.split("-")[0]]:
            value = getattr(prob, name)
            for a in value if isinstance(value, list) else [value]:
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 0
        if suite == "quadratic":
            # the minibatch path reads the anchors on every call, so they may still change
            prob.anchors[0][0, 0] += 1.0


# suite name -> its public arrays (a list attribute holds one array per task)
PUBLIC_ARRAYS = {
    "quadratic": ("centers", "client_centers", "client_curv", "mean_curv", "eff_centers",
                  "f_min"),
    "tanh": ("term_weights", "client_amps", "client_offsets", "amp_eps"),
    "logistic": ("raw", "components", "task_signs", "task_cols", "rotations", "f_min"),
}


# suite name -> the attributes holding the numeric operands its gradients and losses
# pass to ufuncs
OPERAND_TABLES = {
    "quadratic": ("_operands", "_loss_table"),
    "tanh": ("_operands", "_ridge"),
    "logistic": ("_operands", "_ridge"),
}


def leaves(value) -> list:
    """The non-sequence entries of nested lists and tuples, or ``[value]``."""
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in leaves(v)]
    return [value]


@pytest.fixture
def quad():
    A = IndicatorMatrix.all_ones(2, 3)
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    return quadratic_suite(2, A, centers=centers, heterogeneity=0.4, curvature_spread=0.3,
                           n_per_client=20, seed=3)


def out_of_place_quadratic_build(prob, A, *, heterogeneity, n_per_client, data_spread, seed):
    """``anchors``, ``_anchor_const`` and ``f_min`` of ``prob`` by the out-of-place
    expressions: ``quadratic_suite``'s center draws replayed from ``default_rng([seed,
    11])``, objective s's anchors as ``c + spread * z`` with z drawn from its own
    ``default_rng([seed, 16, s])``, and one (S, M, n, d) deviation array."""
    S, M, d = A.n_objectives, A.n_clients, prob.d
    rng = np.random.default_rng([seed, 11])
    centers = np.broadcast_to(prob.centers[:, None, :], (S, M, d)).copy()
    for s, owners in enumerate(A.owner_sets):
        if len(owners) > 1 and heterogeneity > 0:
            offs = heterogeneity * rng.standard_normal((len(owners), d))
            offs -= offs.mean(axis=0)
            centers[s, list(owners)] += offs
    assert centers.tobytes() == prob.client_centers.tobytes()

    z = np.stack([np.random.default_rng([seed, 16, s]).standard_normal((M, n_per_client, d))
                  for s in range(S)])
    anchors = centers[:, :, None, :] + data_spread * z
    anchors -= anchors.mean(axis=2, keepdims=True) - centers[:, :, None, :]
    dev = anchors - centers[:, :, None, :]
    const = np.einsum("smjd,smjd->sm", dev, dev) / n_per_client
    f_min = []
    for s in range(S):
        owners = np.asarray(A.owner_sets[s])
        diff = prob.eff_centers[s] - centers[s, owners]
        sq = np.einsum("id,id->i", diff, diff) + const[s, owners]
        f_min.append(float((0.5 * prob.client_curv[s, owners] * sq).mean()))
    return anchors, const, np.array(f_min)


class TestQuadraticBuild:
    @pytest.mark.parametrize("case", range(30))
    def test_in_place_build_matches_the_out_of_place_expressions(self, case):
        rng = np.random.default_rng(900 + case)
        S = 1 if case < 4 else int(rng.integers(1, 5))
        M = int(rng.integers(1, 7))
        A = (random_indicator(case, S, M) if S > 1 and M > 1 and case % 3
             else IndicatorMatrix.all_ones(S, M))
        keys = {"heterogeneity": 0.0 if case % 5 == 0 else float(rng.uniform(0.0, 2.0)),
                "n_per_client": int(rng.integers(1, 21)),
                "data_spread": float(10.0 ** rng.uniform(-3.0, 3.0)),
                "seed": case}
        prob = quadratic_suite(int(rng.integers(1, 13)), A,
                               curvature_spread=float(rng.uniform(0.0, 0.9)), **keys)
        anchors, const, f_min = out_of_place_quadratic_build(prob, A, **keys)
        assert np.stack(prob.anchors).tobytes() == anchors.tobytes()
        assert prob._anchor_const.tobytes() == const.tobytes()
        assert prob.f_min.tobytes() == f_min.tobytes()

    def test_an_objectives_anchors_are_keyed_by_the_seed_and_its_index_alone(self):
        # a fourth objective grows the curvature draw from (3, M) to (4, M); the first
        # three objectives' anchors must not move
        centers = np.random.default_rng(8).standard_normal((4, 3))
        small, large = (quadratic_suite(3, IndicatorMatrix.all_ones(S, 5), centers=centers[:S],
                                        curvature_spread=0.3, n_per_client=6, seed=8)
                        for S in (3, 4))
        for s in range(3):
            assert small.anchors[s].tobytes() == large.anchors[s].tobytes()

    def test_the_build_holds_one_anchor_sized_array(self):
        # one objective's anchors at a time while building, and none once built
        A = IndicatorMatrix.all_ones(8, 16)
        build = functools.partial(quadratic_suite, 64, A, heterogeneity=0.5,
                                  curvature_spread=0.3, n_per_client=16, seed=3)
        build()  # first-use imports and caches are not the build's
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            prob = build()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_objective = prob.anchors[0].nbytes
        assert kept < one_objective
        assert peak - kept < 2 * one_objective

    def test_only_a_minibatch_gradient_draws_the_anchors(self):
        A = IndicatorMatrix.all_ones(2, 3)
        prob = quadratic_suite(3, A, heterogeneity=0.4, n_per_client=8, seed=2)
        draw, draws = prob._draw_anchors, []
        prob._draw_anchors = lambda s: draws.append(s) or draw(s)
        config = ExperimentConfig(indicator=A, d=3, K=2, T=5, eta_global=0.2, eta_local=0.05,
                                  seed=1)
        run_experiment(config, prob)
        assert draws == []
        for _ in range(2):  # drawn on the first minibatch gradient, then kept
            run_experiment(dataclasses.replace(config, batch_size=4), prob)
        assert draws == [0, 1]

    def test_threads_reading_the_anchors_at_once_share_one_draw(self):
        A = random_indicator(4, S=3, M=4)
        keys = {"heterogeneity": 0.4, "n_per_client": 6, "data_spread": 2.0, "seed": 5}
        prob = quadratic_suite(5, A, curvature_spread=0.3, **keys)
        draw, draws = prob._draw_anchors, []

        def slow_draw(s):
            draws.append(s)
            time.sleep(0.05)  # holds the door open for a second draw
            return draw(s)

        prob._draw_anchors = slow_draw
        start, got = threading.Barrier(4), [None] * 4

        def read(j):
            start.wait()
            got[j] = prob.anchors

        threads = [threading.Thread(target=read, args=(j,)) for j in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert draws == [0, 1, 2]
        assert all(anchors is got[0] for anchors in got)
        anchors, _, _ = out_of_place_quadratic_build(prob, A, **keys)
        assert np.stack(got[0]).tobytes() == anchors.tobytes()


def test_no_run_loads_scipy(tmp_path):
    golden = ROOT / "tests" / "golden"
    script = f"""
import sys
from fedmoo.cli import main
for case in ("quad_stoch", "tanh_stoch", "cls_full"):
    assert main(["run", "--config", r"{golden}/" + case + ".yaml", "--out", case]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestQuadraticSuite:
    def test_symmetric_instance_hand_values(self):
        A = IndicatorMatrix.all_ones(2, 1)
        prob = quadratic_suite(2, A, centers=np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0)
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
        prob = quadratic_suite(2, A, centers=centers, heterogeneity=0.0, seed=1)
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
        result = check_gradients([quad], seed=5)
        assert result.passed, result.line()

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

    def test_stochastic_unbiased(self, quad):
        result = check_unbiasedness([quad], seed=13, n_samples=10_000)
        assert result.passed, result.line()


class TestNonconvexSuite:
    def test_single_term_gradient_bound_is_amp_times_weight_norm(self):
        A = IndicatorMatrix.all_ones(1, 1)
        prob = toy_nonconvex_suite(3, A, n_terms=1, ridge=0.0, heterogeneity=0.0, seed=2)
        expected = abs(prob.client_amps[0, 0, 0]) * np.linalg.norm(prob.term_weights[0, 0])
        assert prob.grad_bound == pytest.approx(expected, rel=1e-12)

    def test_bounds_hold_over_random_evaluations(self):
        A = IndicatorMatrix(np.array([[1, 1], [1, 1]]))
        prob = toy_nonconvex_suite(4, A, n_terms=5, ridge=0.0, amp_noise=0.4, seed=9)
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
        prob = toy_nonconvex_suite(3, A, n_terms=6, ridge=0.0, seed=4)
        rng = np.random.default_rng(33)
        for _ in range(200):
            x = 5.0 * rng.standard_normal(3)
            for s in range(2):
                assert prob.global_loss(s, x) >= prob.lower_bound - 1e-12

    def test_gradients_match_finite_differences(self):
        A = IndicatorMatrix(np.array([[1, 0], [1, 1]]))
        prob = toy_nonconvex_suite(4, A, n_terms=4, ridge=0.05, seed=14)
        result = check_gradients([prob], seed=15)
        assert result.passed, result.line()

    def test_stochastic_unbiased(self):
        A = IndicatorMatrix.all_ones(1, 1)
        prob = toy_nonconvex_suite(3, A, n_terms=4, amp_noise=0.5, n_per_client=32, seed=44)
        result = check_unbiasedness([prob], seed=55, n_samples=10_000)
        assert result.passed, result.line()


class TestClassificationSuite:
    def _suite(self, partition="label_skew", M=5, seed=300, **kw):
        A = IndicatorMatrix.all_ones(2, M)
        return synthetic_classification_suite(12, A, n_per_client=40, partition=partition,
                                              seed=seed, **kw)

    @pytest.mark.parametrize("partition", ["iid", "label_skew"])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_shard_blocks_match_gathers_from_the_full_view_bit_for_bit(self, partition,
                                                                       as_list):
        prob = self._suite(partition=partition, task_overlap=0.25)
        rng = np.random.default_rng(27)
        for s in range(2):
            for i in range(5):
                x = rng.standard_normal(12)
                n = prob.shard_size(i)
                loss, grad = logistic_reference(prob, s, i, x)
                assert prob.loss(s, i, x) == loss
                assert np.array_equal(prob.grad(s, i, x), grad)
                batch = rng.integers(0, n, 7)
                batch = batch.tolist() if as_list else batch
                _, mini = logistic_reference(prob, s, i, x, batch)
                assert np.array_equal(prob.stoch_grad(s, i, x, batch), mini)
                full = rng.permutation(n)
                full = full.tolist() if as_list else full
                _, whole = logistic_reference(prob, s, i, x, full)
                assert np.array_equal(prob.stoch_grad(s, i, x, full), whole)

    def test_shard_blocks_are_read_only(self):
        # one sign-folded block per shard: its rows of the task's view, each times its
        # +-1 sign; the loss table holds the same blocks, in ascending owner order
        prob = self._suite()
        for s in range(2):
            view = task_view(prob, s)
            for i in range(5):
                Zy, idx = prob._operands[s][i], prob.shards[i]
                want = view[idx] * prob.task_signs[s, idx, None]
                assert Zy.shape == want.shape and Zy.tobytes() == want.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    Zy[0, 0] = 1.0
            blocks = prob._loss_table[s][0]
            assert len(blocks) == 5 and all(b is prob._operands[s][i]
                                            for i, b in enumerate(blocks))

    def test_label_skew_limits_distinct_labels(self):
        prob = self._suite()
        for labs in prob.plan.shard_labels(prob.components):
            assert len(labs) <= 2

    def test_minibatch_unbiased(self):
        result = check_unbiasedness([self._suite(partition="iid", M=2)], seed=78,
                                    n_samples=10_000)
        assert result.passed, result.line()

    def test_gradients_match_finite_differences(self):
        result = check_gradients([self._suite(task_overlap=0.25)], seed=19)
        assert result.passed, result.line()

    def test_task_views_touch_disjoint_blocks_without_overlap(self):
        prob = self._suite()
        assert len(np.intersect1d(prob.task_cols[0], prob.task_cols[1])) == 0
        x = np.random.default_rng(4).standard_normal(12)
        g0 = prob.grad(0, 0, x)
        assert np.all(g0[prob.task_cols[1]] == 0.0)

    def _independent_labels_suite(self):
        return synthetic_classification_suite(12, IndicatorMatrix.all_ones(3, 4),
                                              n_per_client=30, independent_labels=True, seed=8)

    def test_independent_labels_split_each_task_differently(self):
        prob = self._independent_labels_suite()
        for signs in prob.task_signs:
            assert set(np.unique(signs)) == {-1.0, 1.0}
        assert len({signs.tobytes() for signs in prob.task_signs}) == 3

    @pytest.mark.parametrize("suite", ["_suite", "_independent_labels_suite"])
    def test_f_min_is_attainable_lower_bound(self, suite):
        prob = getattr(self, suite)()
        rng = np.random.default_rng(91)
        for _ in range(20):
            x = rng.standard_normal(12)
            for s in range(prob.S):
                assert prob.global_loss(s, x) >= prob.f_min[s] - 1e-9
        for s in range(prob.S):
            # independent oracle: L-BFGS-B run until the gradient, not the loss, stalls
            res = minimize(lambda x: (prob.global_loss(s, x), prob.global_grad(s, x)),
                           np.zeros(12), jac=True, method="L-BFGS-B",
                           options={"ftol": 0.0, "gtol": 1e-12, "maxiter": 5000})
            assert abs(prob.f_min[s] - res.fun) <= 1e-12


class TestPartition:
    def test_iid_splits_evenly_with_balanced_histograms(self):
        labels = np.repeat(np.arange(4), 25)
        plan = partition(labels, 4, seed=1)
        assert [len(a) for a in plan.assignment] == [25, 25, 25, 25]
        global_freq = np.full(4, 0.25)
        for idx in plan.assignment:
            counts = np.bincount(labels[idx], minlength=4)
            assert chisquare(counts, global_freq * len(idx)).pvalue > 0.01

    def test_label_skew_two_of_ten_labels_five_clients(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 10, 400)
        plan = partition(labels, 5, labels_per_client=2, seed=2)
        for labs in plan.shard_labels(labels):
            assert len(labs) == 2

    def test_single_client_gets_everything(self):
        plan = partition(np.arange(30) % 3, 1, seed=0)
        assert np.array_equal(plan.assignment[0], np.arange(30))

    def test_infeasible_skew_rejected(self):
        labels = np.arange(10).repeat(5)  # 10 labels
        with pytest.raises(ValueError, match="cannot cover"):
            partition(labels, 2, labels_per_client=2, seed=0)

    def test_partition_is_deterministic(self):
        labels = np.random.default_rng(6).integers(0, 6, 120)
        a = partition(labels, 4, labels_per_client=3, seed=9)
        b = partition(labels, 4, labels_per_client=3, seed=9)
        for x, y in zip(a.assignment, b.assignment):
            assert np.array_equal(x, y)

    def test_overlapping_shards_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PartitionPlan((np.array([0, 1]), np.array([1, 2])))

    def test_non_exhaustive_shards_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            PartitionPlan((np.array([0, 1]), np.array([3])))
