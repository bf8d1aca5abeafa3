"""Block local steps: bit identity with a per-pair loop, and divergence coordinates."""

import json

import numpy as np
import pytest
import yaml

from fedmoo import cli
from fedmoo.core import ExperimentConfig, IndicatorMatrix, client_stream
from fedmoo.federation import client_update_stochastic, run_experiment
from fedmoo.problems import (Problem, quadratic_suite, synthetic_classification_suite,
                             toy_nonconvex_suite)

# clients own different subsets; client 1 owns all three objectives
A = IndicatorMatrix(np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 0]]))


def reference_update(x_t, client, owned, K, eta_local, batch, problem, seed, round_index,
                     sample_sharing):
    """One objective at a time, one step at a time: the plain reading of the local update."""
    n_shard = problem.shard_size(client)
    size = batch if (batch is not None and batch < n_shard) else None
    deltas, drift = {}, {}
    for s in owned:
        x = x_t
        acc = np.zeros_like(x_t)
        for k in range(K):
            idx = None
            if size is not None:
                key = None if sample_sharing == "per_client" else s
                idx = client_stream(seed, client, round_index, k, objective=key).integers(
                    0, n_shard, size)
            g = problem.stoch_grad(s, client, x, idx)
            acc += g
            x = x - eta_local * g
        deltas[s] = acc
        drift[s] = float(np.linalg.norm(x - x_t))
    return deltas, drift


SUITES = {
    "quadratic": lambda: quadratic_suite(
        6, 3, np.eye(3, 6), 1.0, 4, A, heterogeneity=0.4, curvature_spread=0.3,
        n_per_client=20, seed=3),
    "tanh": lambda: toy_nonconvex_suite(5, 3, 4, A, 4, n_terms=6, heterogeneity=0.3,
                                        n_per_client=24),
    "logistic": lambda: synthetic_classification_suite(12, 3, 4, A, 30, ("label_skew", 4), 5,
                                                       n_components=6),
}


class TestBlockMatchesPerPairLoop:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("sharing", ["per_client", "per_objective"])
    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("K", [1, 3])
    def test_deltas_bit_identical(self, suite, sharing, batch, K):
        problem = SUITES[suite]()
        x_t = np.random.default_rng(11).standard_normal(problem.d)
        for client in range(A.n_clients):
            owned = A.client_objectives[client]
            out = client_update_stochastic(x_t, client, owned, K, 0.07, batch, problem, 19,
                                           round_index=2, sample_sharing=sharing)
            deltas, drift = reference_update(x_t, client, owned, K, 0.07, batch, problem, 19,
                                             2, sharing)
            assert out.objectives == owned
            assert out.deltas.shape == (len(owned), problem.d) and out.drift.shape == (len(owned),)
            for r, s in enumerate(owned):
                assert out.deltas[r].tobytes() == deltas[s].tobytes()
                assert out.drift[r] == pytest.approx(drift[s], rel=1e-12, abs=1e-300)


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

    def grad(self, s, i, x):
        return self.base.grad(s, i, x)

    def shard_size(self, i):
        return self.base.shard_size(i)

    def stoch_grad(self, s, i, x, indices):
        key = (s, i, x.tobytes(), None if indices is None else np.asarray(indices).tobytes())
        if key not in self._seen:
            n = self._calls.get((s, i), 0)
            self._calls[(s, i)] = n + 1
            g = self.base.stoch_grad(s, i, x, indices)
            if (n // self.K + 1, i, s, n % self.K) in self.faults:
                g = np.full_like(g, np.nan)
            self._seen[key] = g
        return self._seen[key].copy()


def faulty_run(faults, mode="full_gradient", sharing="per_client", K=3):
    base = quadratic_suite(4, 3, np.eye(3, 4), 1.0, 4, A, heterogeneity=0.3,
                           curvature_spread=0.2, n_per_client=12, seed=1)
    config = ExperimentConfig(M=4, S=3, indicator=A, d=4, K=K, T=6, eta_global=0.2,
                              eta_local=0.05, mode=mode, batch_size=5, seed=8,
                              sample_sharing=sharing)
    return run_experiment(config, FaultyQuadratic(base, K, faults))


class TestFaultInjection:
    @pytest.mark.parametrize("mode,sharing", [("full_gradient", "per_client"),
                                              ("stochastic", "per_client"),
                                              ("stochastic", "per_objective")])
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
    ])
    def test_divergence_reports_the_fault(self, faults, where, mode, sharing):
        traj = faulty_run(faults, mode, sharing)
        r, c, s, k = where
        assert traj.termination == (f"diverged: non-finite local update at round {r}, "
                                    f"client {c}, objective {s}, local step {k}")
        assert [rec.t for rec in traj.records] == list(range(1, r))

    def test_cli_exits_3_with_partial_log(self, tmp_path, monkeypatch, capsys):
        config = {"name": "faulty", "M": 4, "S": 3, "d": 4,
                  "indicator": A.entries.tolist(), "K": 3, "T": 6, "eta_global": 0.2,
                  "eta_local": 0.05, "seed": 8, "problem": {"kind": "quadratic"}}
        path = tmp_path / "faulty.yaml"
        path.write_text(yaml.safe_dump(config))
        base = quadratic_suite(4, 3, np.eye(3, 4), 1.0, 4, A, seed=1)
        monkeypatch.setattr(cli, "build_problem",
                            lambda cfg: FaultyQuadratic(base, 3, [(3, 2, 1, 2)]))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert len((out / "rounds.csv").read_text().splitlines()) == 1 + 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"].endswith("round 3, client 2, objective 1, local step 2")
        assert "partial log" in capsys.readouterr().err
