"""Domain types, owner sets, counter-based random streams, and the export lists."""

import dataclasses
import importlib
import pkgutil
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedmoo
from fedmoo import core
from fedmoo.core import (ConfigError, ExperimentConfig, IndicatorMatrix, RoundRecord,
                         client_stream, derive_owner_sets, output_stream, validate_simplex)

# 0, one-word and two-word seeds mod 2**64, and seeds that wrap (negative or >= 2**64)
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(-2**70, 2**70 - 1))
INDICES = st.integers(0, 2**40)


def philox_state(bit_generator):
    state = bit_generator.state["state"]
    return state["counter"].tolist(), state["key"].tolist()


def spawn_key_state(seed, key):
    """The output stream's documented definition: SeedSequence with a spawn key."""
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=key)
    return philox_state(np.random.Philox(ss))


def v2_state(seed, client, round_index, step, objective):
    """Stream format v2 by its documented definition: Philox keyed by the spawn-key
    SeedSequence of (0, client[, 1 + objective]), counter [0, step, round, 0]."""
    key = (0, client) + (() if objective is None else (1 + objective,))
    words = np.random.SeedSequence(entropy=seed & (2**64 - 1),
                                   spawn_key=key).generate_state(2, np.uint64)
    return philox_state(np.random.Philox(key=words, counter=[0, step, round_index, 0]))


class TestOwnerSets:
    def test_identity_routes_one_objective_per_client(self):
        owners = derive_owner_sets(np.eye(3))
        assert owners == [(0,), (1,), (2,)]

    def test_all_ones_routes_every_client_to_every_objective(self):
        owners = derive_owner_sets(np.ones((2, 3)))
        assert owners == [(0, 1, 2), (0, 1, 2)]

    def test_overlapping_matrix_reads_off_rows(self):
        owners = derive_owner_sets([[1, 1, 0], [0, 1, 1]])
        assert owners == [(0, 1), (1, 2)]

    def test_empty_row_names_objective(self):
        with pytest.raises(ConfigError, match="objective 1"):
            derive_owner_sets([[1, 0], [0, 0]])

    def test_empty_column_names_client(self):
        with pytest.raises(ConfigError, match="client 2"):
            derive_owner_sets([[1, 0, 0], [0, 1, 0]])

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ConfigError, match="0 or 1"):
            derive_owner_sets([[1, 2], [1, 0]])

    @pytest.mark.parametrize("entries", [[[0.5, 1], [1, 1.7]], [[np.nan, 1], [1, 1]]])
    def test_fractional_or_nan_entries_rejected_not_truncated(self, entries):
        with pytest.raises(ConfigError, match="indicator: entries must be 0 or 1"):
            IndicatorMatrix(entries)

    def test_exact_float_entries_accepted(self):
        a = IndicatorMatrix([[0.0, 1.0], [1.0, 1.0]])
        assert a.entries.dtype == np.int64 and a.entries.tolist() == [[0, 1], [1, 1]]
        assert a.owner_sets == ((1,), (0, 1))

    def test_indicator_matrix_is_immutable(self):
        a = IndicatorMatrix.identity(2)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 0
        assert a.client_objectives == ((0,), (1,))


class TestClientStream:
    def test_same_key_same_draws(self):
        a = client_stream(7, 1, 0, 0).standard_normal(32)
        b = client_stream(7, 1, 0, 0).standard_normal(32)
        assert np.array_equal(a, b)

    def test_distinct_clients_distinct_draws(self):
        a = client_stream(7, 1, 0, 0).standard_normal(32)
        b = client_stream(7, 2, 0, 0).standard_normal(32)
        assert not np.array_equal(a, b)

    def test_objective_extends_key(self):
        base = client_stream(7, 1, 3, 2).standard_normal(8)
        per_obj = client_stream(7, 1, 3, 2, objective=0).standard_normal(8)
        assert not np.array_equal(base, per_obj)

    def test_streams_uncorrelated_across_triples(self):
        draws = [client_stream(123, i, t, k).standard_normal(1000)
                 for (i, t, k) in [(0, 0, 0), (1, 0, 0), (0, 5, 0), (0, 0, 3)]]
        for a in range(len(draws)):
            for b in range(a + 1, len(draws)):
                rho = np.corrcoef(draws[a], draws[b])[0, 1]
                assert abs(rho) < 0.1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            client_stream(1, -1, 0, 0)

    @pytest.mark.parametrize("name", ["client", "round", "step", "objective"])
    def test_index_past_a_counter_word_rejected_naming_it(self, name):
        args = {"client": 1, "round": 2, "step": 3, "objective": 4}
        client_stream(7, *(2**64 - 1 if k == name else v for k, v in args.items()))
        args[name] = 2**64
        with pytest.raises(ValueError, match=f"{name} index must lie in \\[0, 2\\*\\*64\\), "
                                             f"got {2**64}"):
            client_stream(7, *args.values())

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, client=INDICES, round_index=INDICES, step=INDICES,
           objective=st.none() | INDICES)
    @example(seed=7, client=np.int32(3), round_index=np.int32(2), step=np.int32(1),
             objective=np.int32(4))
    @example(seed=7, client=np.int64(2**40), round_index=np.int64(2), step=np.int64(1),
             objective=None)
    # the word boundaries of the key's Python output hash and of the entropy words
    @example(seed=2**64 - 1, client=1, round_index=2, step=3, objective=None)
    @example(seed=-1, client=1, round_index=2, step=3, objective=0)
    @example(seed=5, client=0, round_index=2**32, step=0, objective=None)
    @example(seed=5, client=0, round_index=0, step=0, objective=2**32 - 2)
    # a second seed for a (client, objective) already in the key cache
    @example(seed=6, client=0, round_index=0, step=0, objective=2**32 - 2)
    def test_state_is_the_v2_key_and_counter(self, seed, client, round_index, step,
                                             objective):
        stream = client_stream(seed, client, round_index, step, objective=objective)
        assert philox_state(stream.bit_generator) == \
            v2_state(seed, client, round_index, step, objective)

    def test_draws_agree_on_a_cold_cache_a_warm_cache_and_four_threads(self):
        # 3 and 3 + 2**64 are one seed mod 2**64, so they share a cached key
        calls = [(seed, client, t, k, objective) for seed in (3, 3 + 2**64, 4)
                 for client in (0, 5) for t in (0, 9) for k in (0, 2)
                 for objective in (None, 1)]

        def draws(_=None):
            return [client_stream(*call[:4], objective=call[4]).integers(0, 2**62, 4).tolist()
                    for call in calls]

        core._philox_key.cache_clear()
        cold = draws()
        assert core._philox_key.cache_info().currsize == 2 * 2 * 2
        warm = draws()
        third = len(calls) // 3
        assert cold == warm and cold[:third] == cold[third:2 * third] != cold[2 * third:]
        # more threads than CPUs, switching often, all starting on an empty cache
        interval = sys.getswitchinterval()
        core._philox_key.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(draws, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [cold] * 8

    def test_client_stream_cannot_spawn(self):
        with pytest.raises(TypeError, match="spawning"):
            client_stream(7, 1, 0, 0).spawn(1)

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS)
    def test_output_stream_matches_the_spawn_key_seed_sequence(self, seed):
        assert philox_state(output_stream(seed).bit_generator) == spawn_key_state(seed, (1,))


class TestValidators:
    def test_simplex_accepts_unit_sum(self):
        validate_simplex(np.array([0.25, 0.75]))

    def test_simplex_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            validate_simplex(np.array([-0.1, 1.1]))

    def test_simplex_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            validate_simplex(np.array([0.5, 0.6]))

    def test_round_record_rejects_negative_norms(self):
        with pytest.raises(ValueError):
            RoundRecord(t=1, weights=np.array([1.0]), d_norm_sq=-1.0, dbar_norm_sq=0.0,
                        losses=np.array([0.0]), delta_q=np.nan, fw_gap=0.0, lambda_drift=0.0)

    def test_round_record_rejects_a_negative_gap_and_takes_nan_for_none(self):
        fields = dict(t=1, weights=np.array([1.0]), d_norm_sq=0.0, dbar_norm_sq=0.0,
                      losses=np.array([0.0]), fw_gap=0.0, lambda_drift=0.0)
        with pytest.raises(ValueError, match="delta_q"):
            RoundRecord(**fields, delta_q=-1e-3)
        assert np.isnan(RoundRecord(**fields, delta_q=np.nan).delta_q)


class TestExperimentConfig:
    def _base(self, **kw):
        args = dict(indicator=IndicatorMatrix.all_ones(2, 3), d=3, K=1, T=1, eta_global=0.1,
                    eta_local=0.0)
        args.update(kw)
        return ExperimentConfig(**args)

    @pytest.mark.parametrize("field,value", [
        ("d", 0), ("K", 0), ("T", 0), ("eta_global", 0.0), ("eta_local", -0.1),
        ("batch_size", 0), ("sample_sharing", "sometimes"),
        ("eta_global", np.inf), ("eta_global", np.nan),
        ("eta_local", np.inf), ("eta_local", np.nan),
        pytest.param("client_weights", [1.0, np.inf, 1.0], id="client_weights-inf"),
        pytest.param("client_weights", [1.0, np.nan, 1.0], id="client_weights-nan"),
    ])
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ConfigError) as err:
            self._base(**{field: value})
        assert err.value.path == field

    def test_counts_and_mode_are_read_off_the_indicator_and_batch_size(self):
        cfg = self._base()
        assert (cfg.S, cfg.M, cfg.mode) == (2, 3, "full_gradient")
        assert self._base(batch_size=4).mode == "stochastic"
        for name in ("M", "S", "mode"):
            assert name not in {f.name for f in dataclasses.fields(ExperimentConfig)}
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, 1)

    def test_initial_point_defaults_to_zero(self):
        assert np.array_equal(self._base().initial_point(), np.zeros(3))
        cfg = self._base(init=[1.0, 2.0, 3.0])
        assert np.array_equal(cfg.initial_point(), [1.0, 2.0, 3.0])


def test_every_exported_name_resolves():
    modules = [fedmoo] + [importlib.import_module(f"fedmoo.{info.name}")
                          for info in pkgutil.iter_modules(fedmoo.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
