"""The round engine against the literal FMGDA/FSMGDA reference in ``fmgda_reference``.

Hypothesis draws configs from the whole config space (indicators, suites,
exact or minibatch gradients, sample sharing, client weights, K normalization, K and T)
and checks whole runs, single client updates and injected divergences bit
for bit against the reference.  A fixed grid checks client updates on larger
shards and a label-skewed partition, and fixed fault cases document how a
divergence is reported.
"""

import json

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmgda_reference as reference
from fedmoo import cli
from fedmoo.core import ExperimentConfig, IndicatorMatrix
from fedmoo.federation import client_update_stochastic, run_experiment
from fedmoo.problems import (Problem, quadratic_suite, synthetic_classification_suite,
                             toy_nonconvex_suite)

# clients own different subsets; client 1 owns all three objectives
A = IndicatorMatrix(np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 0]]))

# suite -> builder of a small instance on (indicator, samples per client, seed)
SUITES = {
    "quadratic": lambda ind, n, seed: quadratic_suite(3, ind, heterogeneity=0.4,
                                                      curvature_spread=0.3, n_per_client=n,
                                                      seed=seed),
    "tanh": lambda ind, n, seed: toy_nonconvex_suite(3, ind, n_terms=4, heterogeneity=0.3,
                                                     n_per_client=n, seed=seed),
    "logistic": lambda ind, n, seed: synthetic_classification_suite(
        2 * ind.n_objectives, ind, n_per_client=n, partition="iid", n_components=4, seed=seed),
}


@st.composite
def configs(draw, suites=tuple(SUITES)):
    """A config drawn from the whole config space, with the problem it runs on."""
    S, M = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    mask = np.array(draw(st.lists(st.lists(st.booleans(), min_size=M, max_size=M),
                                  min_size=S, max_size=S)), dtype=int)
    mask[np.arange(S), np.arange(S) % M] = 1  # every objective has an owner
    mask[np.arange(M) % S, np.arange(M)] = 1  # every client owns an objective
    indicator = IndicatorMatrix(mask)
    n = draw(st.integers(2, 6))
    problem = SUITES[draw(st.sampled_from(suites))](indicator, n, draw(st.integers(0, 99)))
    config = ExperimentConfig(
        indicator=indicator, d=problem.d,
        K=draw(st.integers(1, 4)), T=draw(st.integers(1, 4)),
        eta_global=draw(st.floats(0.05, 1.0)), eta_local=draw(st.floats(0.0, 0.3)),
        batch_size=draw(st.none() | st.integers(1, n)), seed=draw(st.integers(0, 2**32 - 1)),
        sample_sharing=draw(st.sampled_from(["per_client", "per_objective"])),
        normalize_delta_by_K=draw(st.booleans()),
        client_weights=draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=M, max_size=M)),
        init=draw(st.lists(st.floats(-2.0, 2.0), min_size=problem.d, max_size=problem.d)))
    return config, problem


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def covering_batch_case():
    """A stochastic run whose batches cover their 4-sample shards, which must step with
    the exact gradients; a random draw may not hit a covering batch."""
    problem = SUITES["quadratic"](A, 4, 0)
    return ExperimentConfig(indicator=A, d=problem.d, K=2, T=2, eta_global=0.5,
                            eta_local=0.1, batch_size=4, seed=1), problem


@settings(max_examples=100, deadline=None)
@given(case=configs())
@example(case=covering_batch_case())
def test_run_matches_reference_bit_for_bit(case):
    config, problem = case
    traj = run_experiment(config, problem)
    rounds, final, termination = reference.run(config, problem)
    assert len(traj.records) == len(rounds)
    for rec, (x_t, weights, norm_sq) in zip(traj.records, rounds):
        assert same_bytes(rec.x_snapshot, x_t)
        assert same_bytes(rec.weights, weights)
        assert same_bytes(rec.d_norm_sq, norm_sq)
    assert same_bytes(traj.final_point, final)
    assert traj.termination == termination


@settings(max_examples=60, deadline=None)
@given(case=configs(), t=st.integers(1, 4))
def test_client_updates_match_reference_bit_for_bit(case, t):
    config, problem = case
    x_t = config.initial_point()
    for client, owned in enumerate(config.indicator.client_objectives):
        deltas, drift = client_update_stochastic(x_t, client, owned, config.K, config.eta_local,
                                                 config.batch_size, problem, config.seed, t,
                                                 config.sample_sharing)
        ref = [reference.local_update(x_t, client, s, config, problem, t) for s in owned]
        assert deltas.shape == (len(owned), problem.d)
        assert same_bytes(deltas, np.vstack([acc for acc, _ in ref]))
        ref_drift = np.linalg.norm(np.vstack([x for _, x in ref]) - x_t, axis=1)
        assert same_bytes(drift, ref_drift)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_suite_that_ignores_out_runs_bit_identical(data):
    # a suite may return its own gradient array instead of filling the engine's row
    config, problem = data.draw(configs())
    traj = run_experiment(config, problem)
    exact = problem.stoch_grad
    problem.stoch_grad = lambda s, i, x, indices, out=None: exact(s, i, x, indices)
    own = run_experiment(config, problem)
    assert own.termination == traj.termination
    assert len(own.records) == len(traj.records)
    for a, b in zip(own.records, traj.records):
        for name in ("x_snapshot", "weights", "d_norm_sq", "dbar_norm_sq", "losses",
                     "delta_q", "fw_gap", "lambda_drift"):
            assert same_bytes(getattr(a, name), getattr(b, name))
    assert same_bytes(own.final_point, traj.final_point)


# larger shards than the drawn configs, and a label-skewed partition
FIXED_SUITES = {
    "quadratic": lambda: quadratic_suite(6, A, centers=np.eye(3, 6), heterogeneity=0.4,
                                         curvature_spread=0.3, n_per_client=20, seed=3),
    "tanh": lambda: toy_nonconvex_suite(5, A, n_terms=6, heterogeneity=0.3, n_per_client=24,
                                        seed=4),
    "logistic": lambda: synthetic_classification_suite(12, A, n_per_client=30,
                                                       partition="label_skew", labels_per_client=4,
                                                       n_components=6, seed=5),
}


class TestBlockMatchesPerPairLoop:
    @pytest.mark.parametrize("suite", sorted(FIXED_SUITES))
    @pytest.mark.parametrize("sharing", ["per_client", "per_objective"])
    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("K", [1, 3])
    def test_deltas_bit_identical(self, suite, sharing, batch, K):
        problem = FIXED_SUITES[suite]()
        config = ExperimentConfig(indicator=A, d=problem.d, K=K, T=2, eta_global=0.1,
                                  eta_local=0.07, batch_size=batch, seed=19,
                                  sample_sharing=sharing)
        x_t = np.random.default_rng(11).standard_normal(problem.d)
        for client, owned in enumerate(A.client_objectives):
            deltas, drift = client_update_stochastic(x_t, client, owned, K, 0.07, batch, problem,
                                                     19, round_index=2, sample_sharing=sharing)
            ref = [reference.local_update(x_t, client, s, config, problem, 2) for s in owned]
            assert deltas.shape == (len(owned), problem.d) and drift.shape == (len(owned),)
            assert same_bytes(deltas, np.vstack([acc for acc, _ in ref]))
            ref_drift = np.linalg.norm(np.vstack([x for _, x in ref]) - x_t, axis=1)
            assert same_bytes(drift, ref_drift)


class FaultyQuadratic(Problem):
    """A quadratic suite whose local gradient is NaN at chosen (round, client, objective, step).

    Only local steps call ``stoch_grad``, K times per pair and round, so the
    n-th distinct call for a pair is round n // K + 1, step n % K.  Calls are
    cached by their inputs, so the engine's replay of a failed trajectory
    sees the same gradients, NaN included.
    """

    def __init__(self, base, K, faults):
        super().__init__(base.indicator, base.d)
        self.base = base
        self.K = K
        self.faults = set(faults)
        self.mu = base.mu
        self.smoothness = base.smoothness
        self._calls = {}
        self._seen = {}

    def loss(self, s, i, x):
        return self.base.loss(s, i, x)

    def grad(self, s, i, x, out=None):
        return self.base.grad(s, i, x, out)

    def shard_size(self, i):
        return self.base.shard_size(i)

    def stoch_grad(self, s, i, x, indices, out=None):  # returns its own array, ignoring out
        key = (s, i, x.tobytes(), None if indices is None else np.asarray(indices).tobytes())
        if key not in self._seen:
            n = self._calls.get((s, i), 0)
            self._calls[(s, i)] = n + 1
            g = self.base.stoch_grad(s, i, x, indices)
            if (n // self.K + 1, i, s, n % self.K) in self.faults:
                g = np.full_like(g, np.nan)
            self._seen[key] = g
        return self._seen[key].copy()


def fault_at(config):
    """(round, client, objective, step) coordinates of one injected fault."""
    return st.integers(0, config.M - 1).flatmap(lambda i: st.tuples(
        st.integers(1, config.T), st.just(i),
        st.sampled_from(config.indicator.client_objectives[i]), st.integers(0, config.K - 1)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divergence_reported_where_the_reference_fails(data):
    config, base = data.draw(configs(suites=("quadratic",)))
    # faults sharing one (round, client), so their order decides which is reported,
    # and faults anywhere
    t, i = data.draw(st.integers(1, config.T)), data.draw(st.integers(0, config.M - 1))
    owned = config.indicator.client_objectives[i]
    faults = [(t, i, s, k) for s, k in data.draw(st.lists(
        st.tuples(st.sampled_from(owned), st.integers(0, config.K - 1)), min_size=1, max_size=3))]
    faults += data.draw(st.lists(fault_at(config), max_size=2))
    traj = run_experiment(config, FaultyQuadratic(base, config.K, faults))
    rounds, _, termination = reference.run(config, FaultyQuadratic(base, config.K, faults))
    assert traj.termination == termination
    assert len(traj.records) == len(rounds)


def faulty_base():
    return quadratic_suite(4, A, centers=np.eye(3, 4), heterogeneity=0.3, curvature_spread=0.2,
                           n_per_client=12, seed=1)


def faulty_run(faults, batch=None, sharing="per_client", K=3):
    config = ExperimentConfig(indicator=A, d=4, K=K, T=6, eta_global=0.2, eta_local=0.05,
                              batch_size=batch, seed=8, sample_sharing=sharing)
    return run_experiment(config, FaultyQuadratic(faulty_base(), K, faults))


class TestFaultInjection:
    @pytest.mark.parametrize("batch,sharing", [
        pytest.param(None, "per_client", id="full_gradient-per_client"),
        pytest.param(5, "per_client", id="stochastic-per_client"),
        pytest.param(5, "per_objective", id="stochastic-per_objective")])
    @pytest.mark.parametrize("faults,where", [
        # one fault: reported where it is
        ([(3, 2, 1, 2)], (3, 2, 1, 2)),
        # a later objective fails at an earlier step: the first objective in
        # owned order is reported, at its own first non-finite step
        ([(2, 1, 0, 2), (2, 1, 2, 0)], (2, 1, 0, 2)),
        # an earlier step on a later client: the first client is reported
        ([(4, 3, 0, 0), (4, 0, 0, 1)], (4, 0, 0, 1)),
        # a fault in the first round
        ([(1, 1, 1, 0)], (1, 1, 1, 0)),
        # two clients fail in one round, the higher one at the earliest step: the
        # lower client is reported, at its first failing objective in owned order
        ([(3, 2, 1, 0), (3, 1, 2, 0), (3, 1, 1, 2)], (3, 1, 1, 2)),
    ])
    def test_divergence_reports_the_fault(self, faults, where, batch, sharing):
        traj = faulty_run(faults, batch, sharing)
        r, c, s, k = where
        assert traj.termination == (f"diverged: non-finite local update at round {r}, "
                                    f"client {c}, objective {s}, local step {k}")
        assert [rec.t for rec in traj.records] == list(range(1, r))
        _, _, termination = reference.run(traj.config,
                                          FaultyQuadratic(faulty_base(), traj.config.K, faults))
        assert traj.termination == termination

    def test_cli_exits_3_with_partial_log(self, tmp_path, monkeypatch, capsys):
        config = {"name": "faulty", "M": 4, "S": 3, "d": 4,
                  "indicator": A.entries.tolist(), "K": 3, "T": 6, "eta_global": 0.2,
                  "eta_local": 0.05, "seed": 8, "problem": {"kind": "quadratic"}}
        path = tmp_path / "faulty.yaml"
        path.write_text(yaml.safe_dump(config))
        base = quadratic_suite(4, A, centers=np.eye(3, 4), seed=1)
        monkeypatch.setattr(cli, "build_problem",
                            lambda cfg: FaultyQuadratic(base, 3, [(3, 2, 1, 2)]))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert len((out / "rounds.csv").read_text().splitlines()) == 1 + 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"].endswith("round 3, client 2, objective 1, local step 2")
        assert "partial log" in capsys.readouterr().err

    def test_gradient_that_is_not_a_function_of_its_inputs_is_reported(self):
        # NaN on the first call only: the block fails, but its replay does not
        prob = quadratic_suite(2, IndicatorMatrix.all_ones(1, 1), seed=0)
        exact, calls = prob.stoch_grad, []

        def nan_once(s, i, x, indices, out=None):
            calls.append(s)
            g = exact(s, i, x, indices, out)
            return np.full_like(g, np.nan) if len(calls) == 1 else g

        prob.stoch_grad = nan_once
        with pytest.raises(RuntimeError) as err:
            client_update_stochastic(np.zeros(2), 0, (0,), 2, 0.1, None, prob, seed=0)
        assert type(err.value) is RuntimeError
        assert str(err.value) == ("objective 0 of client 0 did not diverge on replay; "
                                  "its gradients are not a function of their inputs")
