"""Round engine: local steps, aggregation, full rounds, weighted output."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmgda_reference as reference
from fedmoo import metrics
from fedmoo.core import ExperimentConfig, IndicatorMatrix, RoundRecord
from fedmoo.federation import (DivergenceError, TrajectoryLog, _draw_batches,
                               client_update_full, client_update_stochastic,
                               pick_weighted_output, run_experiment, run_round,
                               server_aggregate)
from fedmoo.core import client_stream, output_stream
from fedmoo.problems import (quadratic_suite, synthetic_classification_suite,
                             toy_nonconvex_suite)
from fedmoo.reporting import write_rounds_csv
from fedmoo.verify import check_descent, check_mgd_reduction


def symmetric_quadratic(M=1, heterogeneity=0.0, seed=0, **kw):
    A = IndicatorMatrix.all_ones(2, M)
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    prob = quadratic_suite(2, A, centers=centers, heterogeneity=heterogeneity, seed=seed, **kw)
    return A, prob


class TestClientUpdateFull:
    def test_single_step_returns_synchronized_gradient(self):
        _, prob = symmetric_quadratic()
        x = np.array([0.2, -0.1])
        deltas, _ = client_update_full(x, 0, (0, 1), K=1, eta_local=0.5, problem=prob)
        assert deltas.shape == (2, 2)
        for r, s in enumerate((0, 1)):
            assert np.array_equal(deltas[r], prob.grad(s, 0, x))

    def test_zero_local_rate_accumulates_k_copies(self):
        _, prob = symmetric_quadratic()
        x = np.array([0.4, 0.4])
        deltas, drift = client_update_full(x, 0, (0,), K=7, eta_local=0.0, problem=prob)
        assert np.allclose(deltas[0], 7 * prob.grad(0, 0, x), atol=1e-14)
        assert drift[0] == 0.0

    def test_two_step_hand_recursion(self):
        # f = 1/2 ||x - c||^2 from x=0 with eta_local=0.1: gradients -c, -0.9c
        A = IndicatorMatrix.all_ones(1, 1)
        c = np.array([2.0, -1.0])
        prob = quadratic_suite(2, A, centers=c[None, :], seed=0)
        deltas, _ = client_update_full(np.zeros(2), 0, (0,), K=2, eta_local=0.1, problem=prob)
        assert np.allclose(deltas[0], -1.9 * c, atol=1e-15)

    def test_divergence_carries_context(self):
        _, prob = symmetric_quadratic()
        with pytest.raises(DivergenceError) as err:
            client_update_full(np.array([1e300, 0.0]), 0, (0,), K=3,
                               eta_local=1e300, problem=prob, round_index=4)
        assert (err.value.round_index, err.value.client, err.value.objective) == (4, 0, 0)


SUITES = {
    "quadratic": lambda A: quadratic_suite(3, A, centers=np.eye(2, 3), heterogeneity=0.4,
                                           curvature_spread=0.3, n_per_client=12, seed=2),
    "tanh": lambda A: toy_nonconvex_suite(3, A, n_terms=4, heterogeneity=0.3, n_per_client=12,
                                          seed=3),
    "logistic": lambda A: synthetic_classification_suite(6, A, n_per_client=12, partition="iid",
                                                         n_components=4, seed=4),
}


class TestClientUpdateStochastic:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_full_batch_matches_full_gradient_update(self, suite):
        prob = SUITES[suite](IndicatorMatrix.all_ones(2, 2))
        x = np.array([0.3, 0.9, -0.4, 0.2, 0.1, -0.7])[:prob.d]
        n = prob.shard_size(1)
        for s in (0, 1):
            assert prob.stoch_grad(s, 1, x, None).tobytes() == prob.grad(s, 1, x).tobytes()
        full, _ = client_update_full(x, 1, (0, 1), K=3, eta_local=0.1, problem=prob)
        stoch, _ = client_update_stochastic(x, 1, (0, 1), K=3, eta_local=0.1,
                                            batch=n, problem=prob, seed=5)
        assert full.tobytes() == stoch.tobytes()

    def test_same_seed_same_output(self):
        _, prob = symmetric_quadratic(n_per_client=16, data_spread=2.0)
        x = np.array([1.0, -1.0])
        a, _ = client_update_stochastic(x, 0, (0, 1), 4, 0.05, 4, prob, seed=9, round_index=2)
        b, _ = client_update_stochastic(x, 0, (0, 1), 4, 0.05, 4, prob, seed=9, round_index=2)
        assert np.array_equal(a, b)

    def test_single_step_expectation_matches_gradient(self):
        _, prob = symmetric_quadratic(n_per_client=16, data_spread=2.0)
        x = np.array([0.5, 0.5])
        draws = np.array([
            client_update_stochastic(x, 0, (0,), 1, 0.1, 4, prob, seed=s)[0][0]
            for s in range(10_000)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert (np.abs(draws.mean(axis=0) - prob.grad(0, 0, x)) <= 3 * se + 1e-12).all()

    def test_per_client_sharing_reuses_the_step_batch(self):
        # identical objective data => shared sample gives identical deltas
        A = IndicatorMatrix.all_ones(2, 1)
        centers = np.array([[1.0, 0.0], [1.0, 0.0]])
        prob = quadratic_suite(2, A, centers=centers, data_spread=2.0, seed=3)
        prob.anchors[1] = prob.anchors[0]  # force equal shards across objectives
        x = np.array([3.0, -2.0])
        shared, _ = client_update_stochastic(x, 0, (0, 1), 1, 0.0, 4, prob, seed=1,
                                             sample_sharing="per_client")
        assert np.array_equal(shared[0], shared[1])
        split, _ = client_update_stochastic(x, 0, (0, 1), 1, 0.0, 4, prob, seed=1,
                                            sample_sharing="per_objective")
        assert not np.array_equal(split[0], split[1])

    def test_oversized_batch_rejected(self):
        _, prob = symmetric_quadratic(n_per_client=8)
        with pytest.raises(ValueError, match="smaller than batch"):
            client_update_stochastic(np.zeros(2), 0, (0,), 1, 0.1, 9, prob, seed=0)

    @pytest.mark.parametrize("sharing", ["per_clinet", "objective", None])
    def test_unknown_sharing_mode_rejected_naming_it(self, sharing):
        _, prob = symmetric_quadratic(n_per_client=8)
        with pytest.raises(ValueError, match=f"sample_sharing .* got {sharing!r}"):
            client_update_stochastic(np.zeros(2), 0, (0, 1), 1, 0.1, 4, prob, seed=0,
                                     sample_sharing=sharing)


def v2_batches(seed, client, owned, K, batch, n, round_index, sharing):
    """Per owned objective, its K batches drawn from the documented stream definition
    (format v2): Philox keyed by ``SeedSequence(entropy=seed, spawn_key=(0, client[,
    1 + objective]))``, at counter ``[0, step, round, 0]``."""
    def draw(k, objective):
        key = (0, client) + (() if objective is None else (1 + objective,))
        words = np.random.SeedSequence(entropy=seed & (2**64 - 1),
                                       spawn_key=key).generate_state(2, np.uint64)
        philox = np.random.Philox(key=words, counter=[0, k, round_index, 0])
        return np.random.Generator(philox).integers(0, n, batch)

    return [[draw(k, None if sharing == "per_client" else s) for k in range(K)]
            for s in owned]


class Shards:
    """A problem with shard sizes only, all that drawing batches reads."""

    def __init__(self, sizes):
        self.sizes = sizes

    def shard_size(self, client):
        return self.sizes[client]


# 2**31 + 1 rejects about every other uint32; 2**32 is the largest shard drawn from
SHARD_SIZES = [1, 2, 3, 12, 64, 200, 2**31 + 1, 2**32 - 5, 2**32]


@st.composite
def draw_calls(draw):
    """Distinct clients, each with its owned objectives and shard size, and a batch."""
    clients = draw(st.lists(st.integers(0, 2**33), min_size=1, max_size=3, unique=True))
    owned = [draw(st.lists(st.integers(0, 2**33), min_size=1, max_size=3, unique=True))
             for _ in clients]
    sizes = {i: draw(st.sampled_from(SHARD_SIZES)) for i in clients}
    batch = draw(st.integers(1, min(11, *sizes.values())))
    return list(zip(clients, owned)), sizes, batch


class TestDrawBatches:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-2**70, 2**70), round_index=st.integers(0, 2**33),
           K=st.integers(1, 4), call=draw_calls(),
           sharing=st.sampled_from(["per_client", "per_objective"]))
    # shard 2**31 + 1 rejects in most batches; an odd batch's rejection redraws from the
    # high half of its last word, which the batch itself left unused
    @example(seed=5, round_index=3, K=2, call=([(0, [1, 0])], {0: 2**31 + 1}, 7),
             sharing="per_objective")
    # several clients, a covering one among them, in client-major order
    @example(seed=11, round_index=1, K=3,
             call=([(4, [0, 2]), (1, [1]), (2, [0, 1]), (0, [2])],
                   {4: 200, 1: 2**32, 2: 3, 0: 2**32 - 5}, 3), sharing="per_client")
    @example(seed=11, round_index=1, K=3,
             call=([(4, [0, 2]), (1, [1]), (2, [0, 1]), (0, [2])],
                   {4: 200, 1: 2**32, 2: 3, 0: 2**32 - 5}, 3), sharing="per_objective")
    def test_batches_are_the_v2_streams_draws(self, seed, round_index, K, call, sharing):
        clients, sizes, batch = call
        got = _draw_batches(clients, K, batch, Shards(sizes), seed, round_index, sharing)
        want = []
        for i, owned in clients:
            if batch == sizes[i]:  # a covering batch is the exact gradient
                want += [[None] * K] * len(owned)
            else:
                want += v2_batches(seed, i, owned, K, batch, sizes[i], round_index, sharing)
        assert [[None if b is None else (b.dtype, b.tolist()) for b in row] for row in got] == \
            [[None if b is None else (b.dtype, b.tolist()) for b in row] for row in want]

    def test_the_rejecting_example_reads_past_its_words(self):
        # the streams of the first explicit example above: a batch of 7 takes 4 words, 8
        # uint32s; a stream that uses more took the unused high half and read on
        taken = []
        for s in (1, 0):
            for k in range(2):
                words = client_stream(5, 0, 3, k, objective=s).bit_generator.random_raw(40)
                gen = client_stream(5, 0, 3, k, objective=s)
                gen.integers(0, 2**31 + 1, 7)
                state = gen.bit_generator.state
                position = words.tolist().index(gen.bit_generator.random_raw())
                taken.append(2 * position - state["has_uint32"])
        assert max(taken) > 8, taken

    def test_a_shard_above_2_to_the_32_is_refused(self):
        with pytest.raises(ValueError, match=r"client 3 shard has 4294967297 samples"):
            _draw_batches([(3, (0,))], 1, 2, Shards({3: 2**32 + 1}), 0, 1, "per_client")

    def test_exact_rows_draw_nothing_for_a_shard_above_2_to_the_32(self):
        assert _draw_batches([(0, (0, 1))], 2, None, Shards({0: 2**40}), 0, 1,
                             "per_client") == [[None, None]] * 2


def client_block(x, clients, owned, K, eta_local, problem):
    """The client-major (P, d) block of full-gradient updates of ``clients``."""
    return np.vstack([client_update_full(x, i, owned, K, eta_local, problem)[0]
                      for i in clients])


@st.composite
def rounds(draw):
    """A random indicator, a random client-major block of its pairs, and optional weights."""
    M, S, d = draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mask = np.array(draw(st.lists(st.lists(st.booleans(), min_size=M, max_size=M),
                                  min_size=S, max_size=S)), dtype=int)
    mask[np.arange(S), np.arange(S) % M] = 1  # every objective has an owner
    mask[np.arange(M) % S, np.arange(M)] = 1  # every client owns an objective
    A = IndicatorMatrix(mask)
    P = sum(map(len, A.client_objectives))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    block = np.array(draw(st.lists(finite, min_size=P * d, max_size=P * d))).reshape(P, d)
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=M, max_size=M)))
    return A, block, weights


class TestServerAggregate:
    def test_singleton_average_divides_by_k(self):
        _, prob = symmetric_quadratic()
        x = np.array([0.1, 0.7])
        deltas, _ = client_update_full(x, 0, (0, 1), K=4, eta_local=0.0, problem=prob)
        agg = server_aggregate(deltas, prob.indicator, K=4)
        assert np.allclose(agg[0], prob.grad(0, 0, x), atol=1e-15)
        raw = server_aggregate(deltas, prob.indicator, K=4, normalize_delta_by_K=False)
        assert np.array_equal(raw[0], deltas[0])

    def test_identical_clients_average_to_any_single_delta(self):
        A, prob = symmetric_quadratic(M=4, heterogeneity=0.0)
        x = np.array([-0.5, 0.25])
        block = client_block(x, range(4), (0, 1), 2, 0.1, prob)
        agg = server_aggregate(block, A, K=2)
        assert np.array_equal(agg[0], block[0] / 2.0)

    def test_k1_normalized_full_gradient_recovers_global_gradient(self):
        A, prob = symmetric_quadratic(M=4, heterogeneity=0.6, seed=8)
        x = np.array([0.2, 0.2])
        agg = server_aggregate(client_block(x, range(4), (0, 1), 1, 0.3, prob), A, K=1)
        for s in (0, 1):
            assert np.array_equal(agg[s], prob.global_grad(s, x))

    def test_wrong_row_count_rejected(self):
        A, prob = symmetric_quadratic(M=2)
        deltas, _ = client_update_full(np.zeros(2), 0, (0, 1), 1, 0.0, prob)
        with pytest.raises(ValueError, match="expected 4 rows"):
            server_aggregate(deltas, A, K=1)

    def test_client_weights_give_weighted_average(self):
        A, prob = symmetric_quadratic(M=2, heterogeneity=0.5, seed=4)
        x = np.array([0.6, -0.6])
        block = client_block(x, range(2), (0, 1), 1, 0.0, prob)  # objective 0 in rows 0 and 2
        agg = server_aggregate(block, A, K=1, client_weights=np.array([3.0, 1.0]))
        expected = 0.75 * block[0] + 0.25 * block[2]
        assert np.allclose(agg[0], expected, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(case=rounds(), by_K=st.booleans())
    # three owners of one objective whose sum depends on the order they are added in
    @example(case=(IndicatorMatrix.all_ones(1, 3), np.array([[1e-11], [1e6], [-1e6]]), None),
             by_K=False)
    def test_equals_per_objective_loop_bit_for_bit(self, case, by_K):
        A, block, weights = case
        agg = server_aggregate(block, A, K=3, normalize_delta_by_K=by_K,
                               client_weights=weights)
        pairs = [(i, s) for i, owned in enumerate(A.client_objectives) for s in owned]
        ref = reference.average(dict(zip(pairs, block)), A.owner_sets, 3, by_K, weights)
        assert agg.tobytes() == ref.tobytes()


def base_config(prob, A, **kw):
    args = dict(indicator=A, d=prob.d, K=1, T=1, eta_global=1.0, eta_local=0.1, seed=0)
    args.update(kw)
    return ExperimentConfig(**args)


class TestRunRound:
    def test_symmetric_instance_lands_on_stationary_point(self):
        A, prob = symmetric_quadratic()
        cfg = base_config(prob, A, eta_global=1.0)
        x1, rec1 = run_round(1, np.zeros(2), cfg, prob)
        assert np.allclose(x1, [0.5, 0.5])
        _, rec2 = run_round(2, x1, cfg, prob)
        assert rec2.dbar_norm_sq <= 1e-20

    def test_single_objective_reduces_to_averaged_local_sgd(self):
        A = IndicatorMatrix.all_ones(1, 2)
        prob = quadratic_suite(3, A, centers=np.array([[1.0, 2.0, 3.0]]), heterogeneity=0.5,
                               seed=6)
        cfg = base_config(prob, A, K=4, eta_global=0.7, eta_local=0.05)
        x = np.array([0.1, 0.2, 0.3])
        x_next, rec = run_round(1, x, cfg, prob)
        assert np.array_equal(rec.weights, [1.0])
        # one objective: the server step is FedAvg's, along the averaged local updates
        deltas = {(i, 0): reference.local_update(x, i, 0, cfg, prob, 1)[0] for i in range(2)}
        assert np.array_equal(x_next, x - 0.7 * reference.average(deltas, A.owner_sets, 4,
                                                                   True, None)[0])

    def test_overflowing_average_raises_with_round_and_row_and_no_warning(self):
        # objective 0 has one owner; objective 1 sums two finite updates near 1e308
        A = IndicatorMatrix(np.array([[1, 0], [1, 1]]))
        prob = quadratic_suite(2, A, centers=np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0)
        cfg = base_config(prob, A, eta_local=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_round(4, np.array([1e308, 0.0]), cfg, prob)
        exc = err.value
        assert (exc.round_index, exc.client, exc.objective, exc.step) == (4, None, 1, None)
        assert str(exc) == "non-finite aggregate at round 4, objective 1"

    def test_vanishing_step_changes_nothing(self):
        # the config requires eta_global > 0; a step below one ulp is a null step
        A, prob = symmetric_quadratic()
        cfg = base_config(prob, A, eta_global=1e-300)
        x = np.array([0.5, 0.25])
        x_next, rec = run_round(1, x, cfg, prob)
        assert np.array_equal(x_next, x)
        assert np.array_equal(rec.losses, prob.losses(x))


class TestRunExperiment:
    @pytest.mark.parametrize("built, d, message", [
        # the run would complete with the problem's owner sets in its metrics
        (IndicatorMatrix.identity(2), 3,
         "problem indicator [[1, 0], [0, 1]] differs from the config's [[1, 1], [1, 1]]"),
        # the local steps would fail to broadcast
        (IndicatorMatrix.all_ones(2, 2), 4, "problem has d=3, the config has d=4"),
    ], ids=["indicator", "dimension"])
    def test_problem_built_for_another_run_rejected(self, built, d, message):
        prob = quadratic_suite(3, built, seed=1)
        cfg = ExperimentConfig(indicator=IndicatorMatrix.all_ones(2, 2), d=d, K=1, T=5,
                               eta_global=0.5, eta_local=0.1)
        with pytest.raises(ValueError) as err:
            run_experiment(cfg, prob)
        assert str(err.value) == message

    def test_single_round_log(self):
        A, prob = symmetric_quadratic()
        traj = run_experiment(base_config(prob, A, T=1), prob)
        assert len(traj.records) == 1 and traj.records[0].t == 1
        assert traj.termination == "completed"

    def test_rerun_is_byte_identical(self, tmp_path):
        A, prob = symmetric_quadratic(M=2, heterogeneity=0.3, seed=2)
        cfg = base_config(prob, A, T=20, K=3, eta_global=0.4, batch_size=4, seed=11)
        for name in ("first.csv", "second.csv"):
            write_rounds_csv(tmp_path / name, run_experiment(cfg, prob))
        a = (tmp_path / "first.csv").read_bytes()
        b = (tmp_path / "second.csv").read_bytes()
        assert a == b

    def test_matches_centralized_mgd_bit_for_bit(self):
        result = check_mgd_reduction(symmetric_quadratic()[1], 0, rounds=30)
        assert result.passed, result.line()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("metric, quantity", [
        ("dbar_norm_sq", "dbar_norm_sq"), ("delta_q", "delta_Q"),
        ("lambda_drift", "lambda_drift")])
    def test_non_finite_metric_ends_the_run_naming_round_and_quantity(
            self, monkeypatch, metric, quantity, value):
        A, prob = symmetric_quadratic()
        real, calls = getattr(metrics, metric), []

        def from_round_3(w, x, problem):  # rounds 1 and 2 keep the real value
            calls.append(None)
            return real(w, x, problem) if len(calls) < 3 else float(value)

        monkeypatch.setattr(metrics, metric, from_round_3)
        traj = run_experiment(base_config(prob, A, T=5, eta_global=0.5), prob)
        assert traj.termination == f"diverged: non-finite {quantity} at round 3"
        assert [r.t for r in traj.records] == [1, 2]

    def test_divergence_preserves_partial_log(self):
        A, prob = symmetric_quadratic()
        cfg = base_config(prob, A, T=50, eta_global=5.0)  # far beyond 2/L: diverges
        traj = run_experiment(cfg, prob)
        assert traj.termination.startswith("diverged")
        assert 0 < len(traj.records) < 50

    def test_weighted_output_recorded_for_strongly_convex(self):
        A, prob = symmetric_quadratic(M=2, heterogeneity=0.2, seed=7)
        traj = run_experiment(base_config(prob, A, T=10, eta_global=0.5), prob)
        assert traj.weighted_output is not None
        assert traj.weighted_output.shape == (2,)

    @pytest.mark.parametrize("kw", [
        dict(batch_size=4, seed=11),
        dict(batch_size=3, seed=5, client_weights=[3.0, 1.0, 2.0]),
    ])
    def test_weighted_output_is_the_pick_over_the_recorded_start_points(self, kw):
        A = IndicatorMatrix(np.array([[1, 1, 0], [0, 1, 1]]))
        prob = quadratic_suite(3, A, heterogeneity=0.4, curvature_spread=0.3,
                               n_per_client=10, seed=4)
        cfg = base_config(prob, A, T=12, K=2, eta_global=0.3, eta_local=0.05, **kw)
        traj = run_experiment(cfg, prob)
        picked = pick_weighted_output(traj, prob.mu, cfg.eta_global, output_stream(cfg.seed))
        assert traj.weighted_output is not None
        assert traj.weighted_output.tobytes() == picked.tobytes()

    def test_no_weighted_output_outside_the_strongly_convex_regime(self):
        A = IndicatorMatrix.all_ones(2, 1)
        prob = toy_nonconvex_suite(3, A, n_terms=5, seed=12)
        assert prob.mu == 0.0
        assert run_experiment(base_config(prob, A, T=4, eta_global=0.1), prob) \
            .weighted_output is None
        A, prob = symmetric_quadratic()
        cfg = base_config(prob, A, T=4, eta_global=2.0 / prob.mu)  # mu*eta/2 == 1
        traj = run_experiment(cfg, prob)
        assert traj.records and traj.weighted_output is None


def start_points(T):
    """A hand-built trajectory whose round t started at the point (t,)."""
    return TrajectoryLog(records=[
        RoundRecord(t=t, weights=np.ones(1), d_norm_sq=0.0, dbar_norm_sq=0.0,
                    losses=np.zeros(1), delta_q=np.nan, fw_gap=0.0, lambda_drift=0.0,
                    x_snapshot=np.array([float(t)]))
        for t in range(1, T + 1)])


def picked_round(traj, mu, eta, stream):
    return int(pick_weighted_output(traj, mu, eta, stream)[0])


class TestWeightedOutputSampler:
    def test_single_round_always_selected(self):
        assert picked_round(start_points(1), 1.0, 0.5, output_stream(0)) == 1

    def test_near_uniform_weights_select_uniformly(self):
        traj = start_points(4)
        counts = np.zeros(4)
        for rep in range(20_000):
            t = picked_round(traj, 1e-9, 1e-9, client_stream(1, 0, rep, 0))
            counts[t - 1] += 1
        freq = counts / counts.sum()
        se = np.sqrt(0.25 * 0.75 / counts.sum())
        assert (np.abs(freq - 0.25) <= 3 * se).all()

    def test_geometric_weights_one_two_four(self):
        # mu*eta/2 = 0.5 over T=3 rounds puts weights (1, 2, 4)/7 on the iterates
        probs = np.array([1.0, 2.0, 4.0]) / 7.0
        traj = start_points(3)
        counts = np.zeros(3)
        for rep in range(20_000):
            t = picked_round(traj, 1.0, 1.0, client_stream(2, 0, rep, 0))
            counts[t - 1] += 1
        freq = counts / counts.sum()
        se = np.sqrt(probs * (1 - probs) / counts.sum())
        assert (np.abs(freq - probs) <= 3 * se).all()

    def test_pick_weighted_output_returns_round_snapshot(self):
        A, prob = symmetric_quadratic()
        traj = run_experiment(base_config(prob, A, T=5, eta_global=0.5), prob)
        picked = pick_weighted_output(traj, 1.0, 0.5, output_stream(3))
        snaps = [r.x_snapshot for r in traj.records]
        assert any(np.array_equal(picked, s) for s in snaps)

    def test_invalid_weight_parameters_rejected(self):
        with pytest.raises(ValueError, match="mu\\*eta/2"):
            pick_weighted_output(start_points(3), 4.0, 1.0, output_stream(0))


class TestDescentProperty:
    def test_every_objective_non_increasing_at_guaranteed_step(self):
        # full-gradient runs draw no stream, so the run seed labels the problem only
        suites = [(0, symmetric_quadratic()[1]),
                  (12, toy_nonconvex_suite(3, IndicatorMatrix.all_ones(2, 1), n_terms=5,
                                           seed=12))]
        result = check_descent(suites, rounds=50)
        assert result.passed, result.line()
