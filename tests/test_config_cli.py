"""Config schema enforcement and the run/sweep/verify/report driver."""

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoo import cli, verify
from fedmoo.cli import main
from fedmoo.config import _Loader, apply_axis, load_sweep, parse_config
from fedmoo.core import ConfigError
from fedmoo.minnorm import solve_min_norm
from fedmoo.problems import build_problem
from fedmoo.reporting import read_rounds_csv, summarize_columns
from fedmoo.verify import CheckResult, check_minnorm_kkt, check_minnorm_oracle, run_battery

GOLDEN = Path(__file__).parent / "golden"


def quad_config(**overrides):
    cfg = {
        "name": "quad-mini",
        "M": 2, "S": 2, "d": 3,
        "indicator": "all_ones",
        "K": 2, "T": 6,
        "eta_global": 0.3, "eta_local": 0.01,
        "mode": "full_gradient",
        "seed": 5,
        "problem": {"kind": "quadratic", "centers": "auto", "curvature": 1.0,
                    "heterogeneity": 0.2, "n_per_client": 8},
    }
    cfg.update(overrides)
    return cfg


def aggregate_overflow_config():
    """Each client's update is finite near 1e308, but their sum overflows."""
    cfg = quad_config(M=2, S=1, d=2, K=1, eta_local=0.0, init=[1.0e308, 0.0])
    cfg["problem"]["centers"] = [[1.0, 0.0]]
    return cfg


class TestConfigSchema:
    def test_valid_config_parses(self):
        cfg = parse_config(quad_config())
        assert cfg.M == 2 and cfg.problem.kind == "quadratic"

    def test_unknown_top_level_key_names_the_key(self):
        with pytest.raises(ConfigError, match="etaglobal"):
            parse_config(quad_config(etaglobal=0.1))

    def test_unknown_problem_key_names_the_path(self):
        bad = quad_config()
        bad["problem"]["curvatur"] = 2.0
        with pytest.raises(ConfigError, match="problem.curvatur"):
            parse_config(bad)

    def test_missing_required_key_reported(self):
        bad = quad_config()
        del bad["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(bad)

    def test_identity_indicator_requires_square(self):
        with pytest.raises(ConfigError, match="identity"):
            parse_config(quad_config(indicator="identity", M=3))

    @pytest.mark.parametrize("keys, batch_size, mode", [
        ({"mode": "full_gradient"}, None, "full_gradient"),
        ({"mode": "stochastic", "batch_size": 4}, 4, "stochastic"),
        ({"mode": "stochastic", "batch_size": "full"}, None, "full_gradient"),
    ], ids=["full_gradient", "stochastic-int", "stochastic-full"])
    def test_mode_and_batch_size_become_one_batch_size(self, keys, batch_size, mode):
        cfg = parse_config(quad_config(**keys))
        assert (cfg.batch_size, cfg.mode) == (batch_size, mode)

    def test_hyphenated_mode_rejected_naming_mode(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(quad_config(mode="full-gradient"))
        assert exc.value.path == "mode"

    def test_explicit_indicator_matrix(self):
        cfg = parse_config(quad_config(indicator=[[1, 1], [0, 1]]))
        assert cfg.indicator.owner_sets == ((0, 1), (1,))

    @pytest.mark.parametrize("key", ["S", "M", "d"])
    def test_nonpositive_dimension_names_the_key(self, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(quad_config(**{key: 0}))
        assert exc.value.path == key and str(exc.value) == f"{key}: must be >= 1, got 0"

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_either_end_of_its_range_parses(self, seed):
        cfg = quad_config(seed=seed)
        cfg["problem"]["seed"] = seed
        parsed = parse_config(cfg)
        assert parsed.seed == parsed.problem.params["seed"] == seed

    def test_wrong_scalar_type_reported(self):
        with pytest.raises(ConfigError, match="K"):
            parse_config(quad_config(K="three"))


def _load(text):
    return yaml.load(f"value: {text}", Loader=_Loader)["value"]


@st.composite
def float_texts(draw):
    """A finite float and a way to write it: repr, %e, without a dot, or an unsigned exponent."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    mantissa, exponent = f"{x:.16e}".split("e")  # 17 significant digits round-trip
    sign = "-" if mantissa.startswith("-") else ""
    digits = mantissa.lstrip("-").replace(".", "")
    e = int(exponent)
    forms = [repr(x), f"{x:.16e}",
             f"{sign}{digits}e{e - 16}",            # 1e-3, 1e3
             f"{x:.16e}".replace("e+", "e"),         # 1.0e3
             f"{sign}.{digits}e{e + 1}"]             # .5e3
    return x, draw(st.sampled_from(forms))


class TestLoader:
    @settings(max_examples=500, deadline=None)
    @given(float_texts())
    def test_finite_float_text_loads_as_that_float(self, case):
        x, text = case
        loaded = _load(text)
        assert type(loaded) is float and repr(loaded) == repr(x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers())
    def test_integers_stay_integers(self, n):
        loaded = _load(str(n))
        assert type(loaded) is int and loaded == n

    @pytest.mark.parametrize("text", ["auto", "iid", "all_ones", "full", "zeros", "1e", "e3"])
    def test_words_stay_strings(self, text):
        assert _load(text) == text

    def test_quoted_number_is_a_string_and_rejected_naming_the_field(self):
        assert _load('"1e-3"') == "1e-3"
        with pytest.raises(ConfigError, match="eta_local"):
            parse_config(quad_config(eta_local="1e-3"))


class TestSweepSpec:
    def test_axis_substitution(self):
        raw = apply_axis(quad_config(), "K", 5)
        assert raw["K"] == 5 and raw["name"].endswith("K=5")

    def test_heterogeneity_axis_lands_in_problem(self):
        raw = apply_axis(quad_config(), "heterogeneity", 0.7)
        assert raw["problem"]["heterogeneity"] == 0.7

    def test_m_axis_requires_pattern_indicator(self):
        with pytest.raises(ConfigError, match="pattern"):
            apply_axis(quad_config(indicator=[[1, 1], [1, 1]]), "M", 4)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            apply_axis(quad_config(), "temperature", 1)

    def test_sweep_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({"base": quad_config(), "axis": "K",
                                        "values": [1, 2]}))
        spec = load_sweep(path)
        assert spec.axis == "K" and spec.values == (1, 2)
        assert len(spec.member_configs()) == 2


class TestRunCommand:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return str(path)

    def test_run_writes_versioned_outputs(self, tmp_path):
        cfg_path = self._write(tmp_path, quad_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 6  # header plus T data rows
        assert rows[0] == ("t,lambda_1,lambda_2,d_norm_sq,dbar_norm_sq,"
                           "running_min_dbar,loss_1,loss_2,delta_Q,fw_gap,lambda_drift")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["name"] == "quad-mini"
        assert summary["final"]["t"] == 6

    def test_rerun_requires_force_and_is_byte_identical(self, tmp_path):
        cfg_path = self._write(tmp_path, quad_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        first = (out / "rounds.csv").read_bytes()
        first_summary = (out / "summary.json").read_bytes()
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert main(["run", "--config", cfg_path, "--out", str(out), "--force"]) == 0
        assert (out / "rounds.csv").read_bytes() == first
        assert (out / "summary.json").read_bytes() == first_summary

    def test_divergence_exits_3_with_partial_log(self, tmp_path, capsys):
        cfg_path = self._write(tmp_path, quad_config(eta_global=50.0, T=40))
        out = tmp_path / "dv"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3
        assert (out / "rounds.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"].startswith("diverged")

    def test_overflowing_local_sum_exits_3_with_partial_log(self, tmp_path, capsys):
        # the first round's accumulated update overflows while the local iterate stays finite
        cfg = quad_config(M=1, S=1, d=2, K=2, init=[1e308, 0.0], eta_local=1e-10, seed=0)
        out = tmp_path / "ov"
        assert main(["run", "--config", self._write(tmp_path, cfg), "--out", str(out)]) == 3
        assert (out / "rounds.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"].endswith("round 1, client 0, objective 0, local step 1")
        assert summary["final"] is None
        assert "partial log" in capsys.readouterr().err

    def test_overflowing_aggregate_exits_3_naming_round_and_phase(self, tmp_path, capsys):
        out = tmp_path / "agg"
        assert main(["run", "--config", self._write(tmp_path, aggregate_overflow_config()),
                     "--out", str(out)]) == 3
        header = ("t,lambda_1,d_norm_sq,dbar_norm_sq,running_min_dbar,loss_1,"
                  "delta_Q,fw_gap,lambda_drift\n")
        assert (out / "rounds.csv").read_text() == header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "diverged: non-finite aggregate at round 1, objective 0"
        err = capsys.readouterr().err
        assert "partial log" in err and "Traceback" not in err and "Warning" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("M,S,init,centers", [
        (2, 2, [1.0e200, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        (1, 3, "zeros", [[-1.0e200, -1.0], [-1.0, -1.0e200], [-1.0, 1.0e200]]),
    ])
    def test_overflowing_gram_matrix_exits_3_naming_round_and_solve(
            self, tmp_path, capsys, M, S, init, centers):
        # the averaged block is finite, but its rows of norm ~1e200 overflow G G^T
        cfg = quad_config(M=M, S=S, d=2, K=1, T=3, eta_local=0.0, init=init)
        cfg["problem"]["centers"] = centers
        out = tmp_path / "gram"
        assert main(["run", "--config", self._write(tmp_path, cfg), "--out", str(out)]) == 3
        assert (out / "rounds.csv").read_text().count("\n") == 1  # the header alone
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "diverged: non-finite min-norm solve at round 1"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("centers", [
        [[1.0e154, 0.0], [-1.0e154, 0.0]],
        [[1.0e154, 1.0], [-1.0e154, 2.0], [3.0e153, -1.0e153]],
    ], ids=["closed-form", "minor-cycle"])
    def test_finite_gram_matrix_with_an_overflowing_affine_step_completes(
            self, tmp_path, capsys, centers):
        # G G^T is finite, but its closed form or KKT system overflows: the solver
        # takes those steps from the rows, and the run ends without a traceback
        cfg = quad_config(M=1, S=len(centers), d=2, K=1, T=3, eta_local=0.0)
        cfg["problem"]["centers"] = centers
        out = tmp_path / "big"
        assert main(["run", "--config", self._write(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "rounds.csv").read_text().count("\n") == 1 + 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "completed"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("curvature", [100.0, 1.0])
    def test_overflowing_server_step_exits_3_with_json_summaries(self, tmp_path, capsys,
                                                                 curvature):
        # the step overflows the point to inf (curvature 100) or leaves it finite near
        # 1e308, where the norm guard's norm overflows (curvature 1)
        cfg = quad_config(M=2, S=2, d=3, K=1, T=5, eta_global=1.0e308)
        cfg["problem"]["curvature"] = curvature
        out = tmp_path / "step"
        assert main(["run", "--config", self._write(tmp_path, cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"quad-mini: diverged: global point norm exceeded 1e+08 at round 1 "
            f"(partial log written to {out})\n")
        sweep_path = tmp_path / "sweep.yaml"
        sweep_path.write_text(yaml.safe_dump({"base": cfg, "axis": "K", "values": [1]}))
        assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "sw")]) == 3

        def no_constant(token):
            raise ValueError(f"{token} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=no_constant)
        sweep = json.loads((tmp_path / "sw" / "sweep_summary.json").read_text(),
                           parse_constant=no_constant)
        assert sweep["members"][0]["final"] == summary["final"]
        assert summary["final"]["t"] == 1 and len(summary["final"]["point"]) == 3

    def test_large_scale_centers_complete_without_a_false_alarm(self, tmp_path):
        # the weighted gap's roundoff at |centers| ~ 1e3 is ~1e-11, above a fixed 1e-12
        cfg = quad_config(M=4, S=3, d=2, K=2, T=300, eta_global=0.5, eta_local=0.01, seed=0)
        cfg["problem"].update(centers=[[1000.0, 0.0], [0.0, 1000.0], [-600.0, 800.0]],
                              heterogeneity=0.3)
        out = tmp_path / "big"
        assert main(["run", "--config", self._write(tmp_path, cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "completed" and summary["final"]["t"] == 300

    def test_unsigned_exponent_init_is_echoed_as_parsed_numbers(self, tmp_path):
        # PyYAML reads 1.0e3 (no exponent sign) as a string
        text = yaml.safe_dump(quad_config(d=2)) + "init: [1.0e3, 0.0]\n"
        assert yaml.safe_load(text)["init"] == ["1.0e3", 0.0]
        path = tmp_path / "config.yaml"
        path.write_text(text)
        out = tmp_path / "init"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["init"] == [1000.0, 0.0]

    @pytest.mark.parametrize("written,replacement,section,key,value", [
        ("eta_local: 0.01", "eta_local: 1e-3", None, "eta_local", 0.001),
        ("curvature: 1.0", "curvature: 1e-1", "problem", "curvature", 0.1),
    ])
    def test_number_without_a_dot_runs_and_is_echoed_as_parsed(
            self, tmp_path, written, replacement, section, key, value):
        text = yaml.safe_dump(quad_config()).replace(written, replacement)
        raw = yaml.safe_load(text)
        assert isinstance((raw[section] if section else raw)[key], str)  # PyYAML 1.1
        path = tmp_path / "config.yaml"
        path.write_text(text)
        out = tmp_path / "nodot"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert (echo[section] if section else echo)[key] == value
        assert (echo["eta_global"], echo["problem"]["heterogeneity"]) == (0.3, 0.2)

    def test_integer_init_is_echoed_as_written(self, tmp_path):
        out = tmp_path / "init"
        cfg_path = self._write(tmp_path, quad_config(d=2, init=[1, 0]))
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert echo["init"] == [1, 0] and all(type(v) is int for v in echo["init"])

    def test_unquoted_exponent_name_is_rejected_naming_name(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(quad_config()).replace("name: quad-mini", "name: 1e3"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "name: expected a string, got 1000.0" in capsys.readouterr().err

    def test_label_with_too_few_samples_exits_2_naming_the_plain_label(self, tmp_path, capsys):
        cfg = yaml.safe_load((GOLDEN / "cls_full.yaml").read_text())
        cfg.update({"M": 5, "S": 1, "d": 2, "seed": 0})
        cfg["problem"].update({"n_per_client": 2, "labels_per_client": 2})
        message = "problem: label 3 has 1 samples for 2 clients"
        with pytest.raises(ConfigError) as exc:
            build_problem(parse_config(cfg))
        assert str(exc.value) == message
        out = tmp_path / "o"
        assert main(["run", "--config", self._write(tmp_path, cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_problem_seed_fixes_the_quadratic_instance(self):
        cfg = yaml.safe_load((GOLDEN / "quad_full.yaml").read_text())
        cfg["problem"]["seed"] = 5
        first, second = (build_problem(parse_config({**cfg, "seed": seed})) for seed in (1, 2))
        assert np.array_equal(first.centers, second.centers)
        assert np.array_equal(first.client_centers, second.client_centers)

    @pytest.mark.parametrize("out", ["o", "new/o"])
    def test_run_refused_at_build_leaves_no_directory(self, tmp_path, out):
        cfg = yaml.safe_load((GOLDEN / "quad_stoch.yaml").read_text())
        cfg["batch_size"] = 500
        cfg_path = self._write(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert not (tmp_path / out.split("/")[0]).exists()

    def test_run_refused_at_build_keeps_an_existing_directory(self, tmp_path):
        cfg = yaml.safe_load((GOLDEN / "quad_stoch.yaml").read_text())
        cfg["batch_size"] = 500
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["run", "--config", self._write(tmp_path, cfg), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_jobs_option_rejected_as_usage_error(self, tmp_path):
        cfg_path = self._write(tmp_path, quad_config())
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--jobs", "2"])
        assert exc.value.code == 2

    def test_out_root_env_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDMOO_OUT", str(tmp_path / "root"))
        cfg_path = self._write(tmp_path, quad_config())
        assert main(["run", "--config", cfg_path]) == 0
        assert (tmp_path / "root" / "quad-mini" / "rounds.csv").exists()

    @pytest.mark.parametrize("name", ["", ".", "..", "../up", "/escaped"])
    def test_name_outside_one_path_component_exits_2_naming_it(self, tmp_path, monkeypatch,
                                                                capsys, name):
        monkeypatch.setenv("FEDMOO_OUT", str(tmp_path / "root" / "out"))
        cfg_path = self._write(tmp_path, quad_config(
            name=str(tmp_path / "escaped") if name == "/escaped" else name))
        assert main(["run", "--config", cfg_path]) == 2
        assert "error: name: must be one path component" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    def test_identity_indicator_config_runs(self, tmp_path):
        cfg_path = self._write(tmp_path, quad_config(indicator="identity", M=2, S=2))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["indicator"] == "identity"
        assert summary["termination"] == "completed"


class TestSweepCommand:
    def test_k_sweep_structure_and_decreasing_thresholds(self, tmp_path):
        base = quad_config(T=60, eta_global=0.1, eta_local=0.05,
                           normalize_delta_by_K=False)
        sweep = {"base": base, "axis": "K", "values": [1, 3, 9]}
        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump(sweep))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(spath), "--out", str(out), "--jobs", "2"]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [m["value"] for m in summary["members"]] == [1, 3, 9]
        hits = [m["thresholds"]["delta_Q"]["0.001"] for m in summary["members"]]
        assert all(h is not None for h in hits)
        assert hits[0] > hits[1] > hits[2]  # more local steps, fewer rounds

    def test_members_run_in_order_on_the_calling_thread_whatever_jobs_says(
            self, tmp_path, monkeypatch):
        # stochastic per-objective minibatches on a label-skewed split, swept over K: the
        # benchmark's classification sweep at a few rounds.  --jobs is accepted and has
        # no effect: no thread is started and every output byte is the --jobs 1 byte.
        base = {"name": "cls", "M": 10, "S": 2, "d": 24, "indicator": "all_ones", "K": 1,
                "T": 6, "eta_global": 0.5, "eta_local": 0.05, "mode": "stochastic",
                "batch_size": 16, "sample_sharing": "per_objective",
                "normalize_delta_by_K": False, "seed": 1,
                "problem": {"kind": "classification", "n_per_client": 200,
                            "partition": "label_skew", "labels_per_client": 2,
                            "n_components": 10, "ridge": 0.05}}
        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump({"base": base, "axis": "K", "values": [1, 5, 10]}))
        calls = []
        run_member = cli._run_member

        def recording(config, *args):
            calls.append((threading.get_ident(), config.K, threading.active_count()))
            return run_member(config, *args)

        monkeypatch.setattr(cli, "_run_member", recording)

        def outputs(name, jobs):
            calls.clear()
            threads = threading.active_count()
            out = tmp_path / name
            assert main(["sweep", "--config", str(spath), "--out", str(out),
                         "--jobs", jobs]) == 0
            caller = threading.get_ident()
            assert calls == [(caller, K, threads) for K in (1, 5, 10)]
            assert threading.active_count() == threads
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        serial = outputs("serial", "1")
        assert sorted(serial) == ["K=1/rounds.csv", "K=1/summary.json", "K=10/rounds.csv",
                                  "K=10/summary.json", "K=5/rounds.csv", "K=5/summary.json",
                                  "sweep_summary.json"]
        assert outputs("jobs2", "2") == serial

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump({"base": quad_config(), "axis": "K", "values": [1, 2]}))
        out = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(spath), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --jobs: expected an integer >= 1, got '{jobs}'" in err
        assert not out.exists()

    def test_member_failure_is_recorded_and_sweep_continues(self, tmp_path):
        base = quad_config(T=40)
        sweep = {"base": base, "axis": "eta_local", "values": [0.01, 1e6]}
        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump(sweep))
        out = tmp_path / "sw2"
        assert main(["sweep", "--config", str(spath), "--out", str(out)]) == 3
        summary = json.loads((out / "sweep_summary.json").read_text())
        statuses = [m["status"] for m in summary["members"]]
        assert statuses[0] == "ok" and statuses[1] == "error(3)"

    def test_parallel_members_with_overflowing_aggregates_are_recorded(self, tmp_path):
        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump({"base": aggregate_overflow_config(), "axis": "M",
                                         "values": [2, 3]}))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(spath), "--out", str(out), "--jobs", "2"]) == 3
        members = json.loads((out / "sweep_summary.json").read_text())["members"]
        assert [m["status"] for m in members] == ["error(3)", "error(3)"]
        for member in members:
            summary = json.loads((out / member["dir"] / "summary.json").read_text())
            assert summary["termination"].endswith("aggregate at round 1, objective 0")

    def test_diverging_parallel_members_write_whole_stderr_lines(self, tmp_path, monkeypatch):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump({"base": aggregate_overflow_config(), "axis": "M",
                                         "values": [2, 3]}))
        monkeypatch.setattr(sys, "stderr", Recorder())
        assert main(["sweep", "--config", str(spath), "--out", str(tmp_path / "sw"),
                     "--jobs", "2"]) == 3
        assert len(writes) == 2
        assert all(text.endswith("\n") and text.count("\n") == 1 for text in writes)

    def test_out_of_range_member_is_recorded_and_sweep_continues(self, tmp_path):
        # label skew with 2 labels per client cannot cover 4 labels with one client
        sweep = {"base": str(GOLDEN / "cls_full.yaml"), "axis": "M", "values": [4, 1]}
        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump(sweep))
        out = tmp_path / "sw3"
        assert main(["sweep", "--config", str(spath), "--out", str(out)]) == 2
        members = json.loads((out / "sweep_summary.json").read_text())["members"]
        assert [m["status"] for m in members] == ["ok", "error(2)"]
        assert members[1]["error"].startswith("problem: label skew infeasible")
        assert "final" not in members[1]
        assert not (out / "M=1").exists()

    def test_refused_members_carry_no_results_of_an_earlier_run(self, tmp_path):
        spath = tmp_path / "sweep.yaml"
        spath.write_text(yaml.safe_dump({"base": quad_config(), "axis": "K", "values": [1, 2]}))
        out = tmp_path / "sw4"
        assert main(["sweep", "--config", str(spath), "--out", str(out)]) == 0
        (out / "sweep_summary.json").unlink()
        assert main(["sweep", "--config", str(spath), "--out", str(out)]) == 2
        members = json.loads((out / "sweep_summary.json").read_text())["members"]
        assert [m["status"] for m in members] == ["error(2)", "error(2)"]
        for member in members:
            assert "already contains" in member["error"]
            assert not {"final", "thresholds", "rate_fits"} & set(member)

    def test_exponent_values_without_a_dot_are_numbers(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({"base": quad_config(), "axis": "eta_local"})
                        + "values: [1e-3, 1e-2]\n")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["values"] == [0.001, 0.01]
        assert [m["dir"] for m in summary["members"]] == ["eta_local=0.001", "eta_local=0.01"]
        assert (out / "eta_local=0.001" / "rounds.csv").exists()

    @pytest.mark.parametrize("axis,values", [("K", "[2, 2]"),
                                             ("eta_local", "[0.01, 1.0e-2]")])
    def test_values_sharing_a_member_directory_exit_2_before_any_run(
            self, tmp_path, capsys, axis, values):
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({"base": quad_config(), "axis": axis})
                        + f"values: {values}\n")
        out = tmp_path / "sw"
        code = main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "2"])
        assert code == 2
        assert "values: two values share the member directory" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_quick_battery_passes_within_budget(self, capsys, monkeypatch, minnorm_oracle):
        # the lattice pass is the session's one run of it; every other check runs here
        oracle, oracle_s = minnorm_oracle
        monkeypatch.setattr(verify, "check_minnorm_oracle", lambda: oracle)
        start = time.perf_counter()
        assert main(["verify", "--level", "quick"]) == 0
        assert time.perf_counter() - start + oracle_s < 60.0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6 and "FAIL" not in out

    def test_failing_check_exits_4_naming_its_seed(self, capsys, monkeypatch):
        failing = CheckResult("minnorm-kkt", False, "S=3, d=2: vertex below ||u||^2 by 1.00e-03",
                              seed=17)
        monkeypatch.setattr(cli, "run_battery", lambda level: [failing])
        assert main(["verify"]) == 4
        assert capsys.readouterr().out.splitlines() == [
            "FAIL  minnorm-kkt: S=3, d=2: vertex below ||u||^2 by 1.00e-03 [seed 17]",
            "0/1 checks passed"]

    def test_corrupted_solver_tolerance_fails_named_check(self):
        def sloppy(G, tol=1e-10, max_iter=None):
            return solve_min_norm(G, tol=1e6, max_iter=1)

        result = check_minnorm_oracle(n_instances=40, solver=sloppy)
        assert not result.passed
        assert result.seed is not None  # failing instance is replayable

    def test_truncated_solver_fails_kkt_check(self):
        def truncated(G, tol=1e-10, max_iter=None):
            return solve_min_norm(G, max_iter=1)

        result = check_minnorm_kkt(n_instances=40, solver=truncated)
        assert not result.passed and result.name == "minnorm-kkt"
        assert result.seed is not None
        assert check_minnorm_kkt(n_instances=40).passed

    def test_battery_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            run_battery(level="paranoid")


class TestReportCommand:
    def _run_pair(self, tmp_path):
        dirs = []
        for name, seed in (("a", 1), ("b", 2)):
            cfg = quad_config(name=name, seed=seed)
            cfg_path = tmp_path / f"{name}.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg))
            out = tmp_path / name
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            dirs.append(str(out))
        return dirs

    def test_two_runs_merge_into_long_csv(self, tmp_path):
        dirs = self._run_pair(tmp_path)
        assert main(["report", *dirs, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "run_id,t,metric,value"
        run_ids = {ln.split(",")[0] for ln in lines[1:]}
        assert run_ids == {"a", "b"}

    def test_empty_run_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2

    def test_missing_run_skipped_with_nonzero_exit(self, tmp_path, capsys):
        dirs = self._run_pair(tmp_path)
        code = main(["report", dirs[0], str(tmp_path / "ghost"), "--out", str(tmp_path)])
        assert code != 0
        assert "ghost" in capsys.readouterr().err

    def test_empty_rounds_csv_skipped_with_exit_2(self, tmp_path, capsys):
        dirs = self._run_pair(tmp_path)
        (Path(dirs[1]) / "rounds.csv").write_text("")
        assert main(["report", *dirs, "--out", str(tmp_path)]) == 2
        assert "unrecognized rounds.csv header" in capsys.readouterr().err

    def test_rounds_csv_without_objective_columns_skipped_with_exit_2(self, tmp_path, capsys):
        dirs = self._run_pair(tmp_path)
        (Path(dirs[1]) / "rounds.csv").write_text(
            "t,d_norm_sq,dbar_norm_sq,running_min_dbar,delta_Q,fw_gap,lambda_drift\n"
            "1,1.0,1.0,1.0,,0.0,\n")
        assert main(["report", *dirs, "--out", str(tmp_path)]) == 2
        assert "unrecognized rounds.csv header" in capsys.readouterr().err

    @pytest.mark.parametrize("summary, why", [
        ([], "expected a JSON object, got list"),
        ({"f_min": [0.0, 0.0, 0.0]}, "f_min must be null or 2 finite numbers"),
        ({"f_min": [0.0, "0.0"]}, "f_min must be null or 2 finite numbers"),
        ({"f_min": [0.0, True]}, "f_min must be null or 2 finite numbers"),
        ({"f_min": 0.0}, "f_min must be null or 2 finite numbers"),
    ])
    def test_malformed_summary_skipped_with_exit_2(self, tmp_path, capsys, summary, why):
        dirs = self._run_pair(tmp_path)
        (Path(dirs[1]) / "summary.json").write_text(json.dumps(summary))
        assert main(["report", *dirs, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"skipping {dirs[1]}: {dirs[1]}/summary.json: {why}" in err
        assert "Traceback" not in err
        assert {ln.split(",")[0] for ln in (tmp_path / "report.csv").read_text()
                .strip().splitlines()[1:]} == {"a"}

    @pytest.mark.parametrize("value", ["Infinity", "NaN", "1e400", "1" + "0" * 400])
    def test_non_finite_f_min_skipped_with_exit_2(self, tmp_path, capsys, value):
        dirs = self._run_pair(tmp_path)
        (Path(dirs[1]) / "summary.json").write_text('{"f_min": [0.0, %s]}' % value)
        assert main(["report", *dirs, "--out", str(tmp_path)]) == 2
        assert "f_min must be null or 2 finite numbers" in capsys.readouterr().err

    def test_runs_sharing_a_directory_name_exit_2_naming_both(self, tmp_path, capsys):
        dirs = []
        for parent, seed in (("x", 1), ("y", 2)):  # two different runs, both named K=1
            cfg_path = tmp_path / f"{parent}.yaml"
            cfg_path.write_text(yaml.safe_dump(quad_config(seed=seed)))
            dirs.append(str(tmp_path / parent / "K=1"))
            assert main(["run", "--config", str(cfg_path), "--out", dirs[-1]]) == 0
        out = tmp_path / "report"
        assert main(["report", *dirs, "--out", str(out)]) == 2
        assert f"runs {dirs[0]} and {dirs[1]} share the run id 'K=1'" in capsys.readouterr().err
        assert not out.exists()

    def test_report_reproduces_summary_numbers_exactly(self, tmp_path):
        run_dir = self._run_pair(tmp_path)[0]
        with open(run_dir + "/summary.json") as fh:
            summary = json.load(fh)
        cols = read_rounds_csv(run_dir + "/rounds.csv")
        derived = summarize_columns(cols, f_min=summary["f_min"])
        assert derived["thresholds"] == summary["thresholds"]
        for name, fit in derived["rate_fits"].items():
            stored = summary["rate_fits"][name]
            assert fit["slope"] == stored["slope"]
            assert fit["residual"] == stored["residual"]


def _sweep_doc(**changes):
    """A two-member K sweep over ``quad_config()``; a change to None deletes the key."""
    doc = {"base": quad_config(), "axis": "K", "values": [1, 2], **changes}
    return {key: value for key, value in doc.items() if value is not None}


def _default_mode(doc):
    """``doc`` without its ``mode`` key, so it runs in the default full-gradient mode."""
    return {key: value for key, value in doc.items() if key != "mode"}


def _golden_doc(name, **problem):
    """The golden config ``name`` with ``problem`` merged into its problem section."""
    doc = yaml.safe_load((GOLDEN / f"{name}.yaml").read_text())
    doc["problem"].update(problem)
    return doc


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, document, message", [
    ("run", quad_config(etaglobal=0.1), "etaglobal: unknown key"),
    ("run", quad_config(snapshot_every=1), "snapshot_every: unknown key"),
    ("run", quad_config(init=3), "init: expected a list of numbers, got 3"),
    ("run", quad_config(d=2, init=["abc", 0.0]), "init: expected a finite number, got 'abc'"),
    ("run", {**_golden_doc("quad_full"), "init": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
     "init: model point has dimension 7, expected 4"),
    ("run", {**_golden_doc("quad_full"), "init": [[1.0, 0.0]] * 2},
     "init: model point must be 1-D, got shape (2, 2)"),
    ("run", {**_golden_doc("quad_full"), "indicator": [[1, 1, 1], [1, 1]]},
     "indicator: expected rows of equal length, got [[1, 1, 1], [1, 1]]"),
    ("run", {**_golden_doc("quad_full"), "indicator": [[True, 1, 1], [1, 1, 1]]},
     "indicator: expected an integer, got True"),
    ("run", quad_config(indicator=3),
     "indicator: expected 'identity', 'all_ones' or a matrix, got 3"),
    ("run", quad_config(indicator=[[1, 1, 0], [0, 1, 1]]),
     "indicator: shape (2, 3) does not match S=2, M=2"),
    ("run", quad_config(mode="stochastic", batch_size=4.5),
     "batch_size: expected an integer or 'full', got 4.5"),
    ("run", quad_config(problem=3), "problem: expected a mapping"),
    ("run", quad_config(problem={"curvature": 1.0}), "problem.kind: required key is missing"),
    ("run", quad_config(problem={"kind": "cubic"}), "problem.kind: unknown problem kind 'cubic'"),
    ("run", [quad_config()], "<root>: {path}: expected a key-value mapping"),
    ("run", quad_config(batch_size=4), "batch_size: applies only to mode 'stochastic'"),
    ("run", quad_config(batch_size="full"), "batch_size: applies only to mode 'stochastic'"),
    ("run", _default_mode(quad_config(batch_size=4)),
     "batch_size: applies only to mode 'stochastic'"),
    ("run", quad_config(sample_sharing="per_client"),
     "sample_sharing: applies only to mode 'stochastic'"),
    ("run", _default_mode(quad_config(sample_sharing="per_objective")),
     "sample_sharing: applies only to mode 'stochastic'"),
    ("run", {**_golden_doc("quad_stoch"), "batch_size": 50},  # shards hold 12 samples
     "batch_size: 50 is larger than the smallest client shard (12 samples)"),
    ("run", quad_config(problem={**quad_config()["problem"], "curvature": "steep"}),
     "problem.curvature: expected a finite number, got 'steep'"),
    ("run", quad_config(problem={**quad_config()["problem"], "curvature_spread": 2.0}),
     "problem: curvature_spread must be in [0, 1), got 2.0"),
    ("run", _golden_doc("cls_full", ridge=0.0), "problem: ridge must be > 0, got 0.0"),
    ("run", _golden_doc("cls_full", ridge=-0.5), "problem: ridge must be > 0, got -0.5"),
    ("run", _golden_doc("tanh_stoch", ridge=-0.5), "problem: ridge must be >= 0, got -0.5"),
    ("run", _golden_doc("cls_full", n_components=1),
     "problem: n_components must be >= 2, got 1"),
    ("run", _golden_doc("quad_stoch", heterogeneity=-0.5),
     "problem: heterogeneity must be >= 0, got -0.5"),
    ("run", _golden_doc("tanh_stoch", heterogeneity=-0.5),
     "problem: heterogeneity must be >= 0, got -0.5"),
    ("run", _golden_doc("quad_stoch", data_spread=-0.5),
     "problem: data_spread must be >= 0, got -0.5"),
    ("run", _golden_doc("tanh_stoch", amp_noise=-0.5),
     "problem: amp_noise must be >= 0, got -0.5"),
    ("run", _golden_doc("quad_full", n_per_client=0),
     "problem: n_per_client must be >= 1, got 0"),
    ("run", _golden_doc("tanh_stoch", n_per_client=0),
     "problem: n_per_client must be >= 1, got 0"),
    ("run", _golden_doc("cls_full", n_per_client=0),
     "problem: n_per_client must be >= 1, got 0"),
    ("run", _golden_doc("cls_full", n_components=0),
     "problem: n_components must be >= 1, got 0"),
    ("run", _golden_doc("tanh_stoch", n_terms=0), "problem: n_terms must be >= 1, got 0"),
    ("run", _golden_doc("tanh_stoch", n_terms=-1), "problem: n_terms must be >= 1, got -1"),
    ("run", _golden_doc("cls_full", partition="iid"),  # labels_per_client: 2 stays
     "problem: labels_per_client applies to partition 'label_skew', not 'iid'"),
    ("run", _golden_doc("cls_full", partition="dirichlet"),
     "problem: partition must be 'iid' or 'label_skew', got 'dirichlet'"),
    ("run", _golden_doc("cls_full", feature_scale=3.0), "problem.feature_scale: unknown key"),
    ("run", _golden_doc("cls_full", noise=1.0), "problem.noise: unknown key"),
    ("run", quad_config(seed=2**64 + 7),
     "seed: must be in [0, 2**64), got 18446744073709551623"),
    ("run", quad_config(seed=7 - 2**64),
     "seed: must be in [0, 2**64), got -18446744073709551609"),
    ("run", _golden_doc("cls_full", seed=2**64),
     "problem.seed: must be in [0, 2**64), got 18446744073709551616"),
    ("run", _golden_doc("cls_full", seed=-1), "problem.seed: must be in [0, 2**64), got -1"),
    ("sweep", [_sweep_doc()], "<root>: expected a mapping, got list"),
    ("sweep", _sweep_doc(axis=None), "axis: required key is missing"),
    ("sweep", _sweep_doc(base=3), "base: expected an inline config mapping or a path"),
    ("sweep", _sweep_doc(values=[]), "values: expected a nonempty list"),
    ("run", quad_config(mode="stochastic"), "batch_size: required by mode 'stochastic'"),
    ("run", quad_config(mode="stochastic", batch_size=None),
     "batch_size: required by mode 'stochastic'"),
])
def test_config_error_exits_2_naming_the_field(tmp_path, capsys, command, document, message):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(document))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"error: {message.format(path=path)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
@pytest.mark.parametrize("command", ["run", "sweep", "report"])
def test_out_through_a_file_exits_2_naming_it(tmp_path, capsys, command, out):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(quad_config()))
    run_dir = tmp_path / "r"
    assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    sweep_path = tmp_path / "sweep.yaml"
    sweep_path.write_text(yaml.safe_dump({"base": quad_config(), "axis": "K", "values": [1, 2]}))
    (tmp_path / "taken").write_text("a file")
    args = {"run": ["--config", str(cfg_path)], "sweep": ["--config", str(sweep_path)],
            "report": [str(run_dir)]}[command]
    capsys.readouterr()
    assert main([command, *args, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / out}: {tmp_path / 'taken'} is not a directory" in err
    assert (tmp_path / "taken").read_text() == "a file"
