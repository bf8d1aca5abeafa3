"""Mutation catalogue: one-line faults in delicate code, each with the test that must catch it.

    python tests/mutants.py

For each mutant, a fresh copy of the checkout's ``src``, ``tests`` and
``pyproject.toml`` goes under a temporary directory.  Its named test runs there
as it is under each Hypothesis seed of ``SEEDS``, and must pass; then the
mutant replaces one exact text of one file and the test runs again under each
seed.  Each run is a subprocess under ``TIMEOUT`` seconds and starts without
Hypothesis's example database, so no run replays another's failure.  It
prints one line per mutant:

- ``killed``: the test failed under every seed, so it catches the fault
  whatever examples Hypothesis draws;
- ``survived``: the test passed under some seed, so the fault can go unseen
  (a property that finds it only by random search needs an ``@example``);
- ``timeout``: a run went past the limit, which shows nothing about its
  assertions.

Exits 1 when a mutant survived or timed out.  ``EQUIVALENT`` lists the changes
that no test can catch, each with the reason no result moves; they are not run.
Standard library only, and not part of tier-1 (pytest collects ``test_*.py``
files only); ``tests/test_mutants.py`` checks that every mutant's and every
equivalent's old text still occurs exactly once in its file and that each
mutant's named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120.0  # seconds per test run
SEEDS = (0, 1)   # --hypothesis-seed values; a kill must hold under each


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str   # relative to the checkout root
    old: str    # occurs exactly once in the file
    new: str
    test: str   # pytest node id (relative to the checkout root) that must fail


@dataclass(frozen=True)
class Equivalent:
    """A one-line change that no test can catch, because no result moves."""
    path: str
    old: str    # occurs exactly once in the file
    new: str
    reason: str


MUTANTS = [
    # min-norm solver: the lattice oracle, the KKT conditions and golden bytes
    Mutant("no-rows-resolve", "src/fedmoo/minnorm.py",
           "if np.isfinite(alpha).all() and (alpha[-1] > 0.0 or not entering):", "if True:",
           "tests/test_minnorm.py::TestSolverProperties::test_nearly_collinear_vertices_converge"),
    Mutant("minor-cycle-keeps-gram", "src/fedmoo/minnorm.py",
           "if np.isfinite(alpha).all() and (alpha[-1] > 0.0 or not entering):",
           "if not entering or np.isfinite(alpha).all() and alpha[-1] > 0.0:",
           "tests/test_minnorm.py::TestHandInstances"
           "::test_overflowing_minor_cycle_is_solved_from_the_rows"),
    Mutant("singular-kkt-least-squares", "src/fedmoo/minnorm.py",
           "        return np.full(p, np.nan)\n",
           "        return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:p]\n",
           "tests/test_minnorm.py::TestFiniteGramMatrix"
           "::test_a_finite_gram_matrix_gives_finite_weights_on_the_simplex"),
    Mutant("start-at-vertex-0", "src/fedmoo/minnorm.py",
           "first = int(Q.diagonal().argmin())", "first = 0",
           "tests/test_golden.py"),
    Mutant("zero-tol-accepted", "src/fedmoo/minnorm.py",
           "if tol <= 0:", "if tol < 0:",
           "tests/test_minnorm.py::TestHandInstances::test_zero_tolerance_rejected"),
    Mutant("no-stall-exit", "src/fedmoo/minnorm.py",
           "if j in support:", "if False:",  # re-adds the vertex until max_iter
           "tests/test_minnorm.py::TestHandInstances"
           "::test_a_supported_vertex_entering_again_stalls_the_solve"),
    # the lattice oracle's argument checks, each with a value on its boundary
    Mutant("oracle-rejects-four-objectives", "src/fedmoo/minnorm.py",
           "if n > 4:", "if n >= 4:",
           "tests/test_minnorm.py::TestGridOracle::test_four_objectives_accepted"),
    Mutant("oracle-rejects-step-one-half", "src/fedmoo/minnorm.py",
           "if not 0 < step <= 0.5:", "if not 0 < step < 0.5:",
           "tests/test_minnorm.py::TestGridOracle::test_step_one_half_accepted"),
    Mutant("oracle-accepts-zero-step", "src/fedmoo/minnorm.py",
           "if not 0 < step <= 0.5:", "if not 0 <= step <= 0.5:",
           "tests/test_minnorm.py::TestGridOracle::test_zero_step_rejected"),
    Mutant("oracle-refines-one-objective", "src/fedmoo/minnorm.py",
           "refine_to < 1.0 / cells and n > 1:", "refine_to < 1.0 / cells and n >= 1:",
           "tests/test_minnorm.py::TestGridOracle::test_one_objective_is_not_refined"),
    Mutant("oracle-refine-skips-last-face", "src/fedmoo/minnorm.py",
           "& (tail >= 0)", "& (tail > 0)",
           "tests/test_minnorm.py::TestGridOracle"
           "::test_refinement_reaches_the_face_without_the_last_vertex"),
    Mutant("oracle-refine-takes-ties", "src/fedmoo/minnorm.py",
           "if nsq2 < best_nsq:", "if nsq2 <= best_nsq:",
           "tests/test_minnorm.py::TestGridOracle::test_a_refined_tie_keeps_the_coarse_minimizer"),
    # streams and batches: Monte Carlo and the stream-definition oracles
    Mutant("batch-range-short", "src/fedmoo/federation.py",
           "m = u[:, :batch] * n\n", "m = u[:, :batch] * (n - 1)\n",
           "tests/test_federation.py::TestClientUpdateStochastic"
           "::test_single_step_expectation_matches_gradient"),
    Mutant("lemire-never-rejects", "src/fedmoo/federation.py",
           "thr = (2**32 - n) % n", "thr = 0 * n",
           "tests/test_federation.py::TestDrawBatches::test_batches_are_the_v2_streams_draws"),
    Mutant("output-domain-is-client", "src/fedmoo/core.py",
           "_DOMAIN_OUTPUT = 1", "_DOMAIN_OUTPUT = 0",
           "tests/test_core.py::TestClientStream"),
    Mutant("counter-round-step-swapped", "src/fedmoo/core.py",
           "np.array((0, step, round_index, 0), dtype=np.uint64)",
           "np.array((0, round_index, step, 0), dtype=np.uint64)",
           "tests/test_federation.py::TestDrawBatches::test_batches_are_the_v2_streams_draws"),
    Mutant("key-ignores-objective", "src/fedmoo/core.py",
           "else (_DOMAIN_CLIENT, client, 1 + objective))", "else (_DOMAIN_CLIENT, client))",
           "tests/test_core.py::TestClientStream::test_objective_extends_key"),
    Mutant("key-cache-without-seed", "src/fedmoo/core.py",
           "@functools.lru_cache(maxsize=_KEYS_CACHED)\n",
           # the first seed's key for a (client[, objective]) serves every later seed
           "@lambda f: lambda seed, key, _keys={}: _keys.setdefault(key, f(seed, key))\n",
           "tests/test_core.py::TestClientStream::test_state_is_the_v2_key_and_counter"),
    Mutant("covering-batch-not-exact", "src/fedmoo/federation.py",
           "if batch is None or batch == n_shard:", "if batch is None:",
           "tests/test_local_steps.py::test_run_matches_reference_bit_for_bit"),
    # round engine and its exits
    Mutant("divergence-norm-1e9", "src/fedmoo/federation.py",
           "DIVERGENCE_NORM = 1e8", "DIVERGENCE_NORM = 1e9",
           "tests/test_config_cli.py::TestRunCommand"
           "::test_overflowing_server_step_exits_3_with_json_summaries"),
    Mutant("client-weights-column-0", "src/fedmoo/federation.py",
           "scale[sel, i][:, None]", "scale[sel, 0][:, None]",
           "tests/test_federation.py::TestServerAggregate"
           "::test_client_weights_give_weighted_average"),
    Mutant("aggregate-descending-clients", "src/fedmoo/federation.py",
           "    lo = 0\n"
           "    for i, objs in enumerate(indicator.client_objectives):\n"
           "        rows, lo = deltas[lo:lo + len(objs)], lo + len(objs)\n",
           # the same rows, added from the last client to the first
           "    lo = n_rows\n"
           "    for i, objs in reversed(list(enumerate(indicator.client_objectives))):\n"
           "        rows, lo = deltas[lo - len(objs):lo], lo - len(objs)\n",
           "tests/test_federation.py::TestServerAggregate"
           "::test_equals_per_objective_loop_bit_for_bit"),
    # weighted output: acceptance 11's frequency bound
    Mutant("output-decay-halved", "src/fedmoo/federation.py",
           "log_decay = np.log1p(-half)", "log_decay = np.log1p(-half / 2.0)",
           "tests/test_acceptance.py::test_11_weighted_output_sampler"),
    # metrics
    Mutant("fit-clip-flag-off", "src/fedmoo/metrics.py",
           "clipped = bool((vals < _CLIP_FLOOR).any())", "clipped = False",
           "tests/test_metrics.py::TestFitRate::test_zeros_are_clipped_and_flagged"),
    Mutant("fit-clip-flag-at-floor", "src/fedmoo/metrics.py",
           "clipped = bool((vals < _CLIP_FLOOR).any())",
           "clipped = bool((vals <= _CLIP_FLOOR).any())",
           "tests/test_metrics.py::TestFitRate::test_a_value_at_the_clip_floor_is_not_flagged"),
    Mutant("lambda-drift-linf", "src/fedmoo/metrics.py",
           "float(np.abs(w - ref.weights).sum())", "float(np.abs(w - ref.weights).max())",
           "tests/test_metrics.py::TestLambdaDrift"
           "::test_value_is_the_l1_distance_to_the_full_gradient_weights"),
    Mutant("delta-q-abs", "src/fedmoo/metrics.py",
           "return max(gap, 0.0)", "return abs(gap)",
           "tests/test_metrics.py::TestDeltaQ"
           "::test_roundoff_below_zero_within_the_bound_reads_zero"),
    Mutant("delta-q-raises-at-bound", "src/fedmoo/metrics.py",
           "if gap < -roundoff_bound(", "if gap <= -roundoff_bound(",
           "tests/test_metrics.py::TestDeltaQ::test_roundoff_exactly_at_the_bound_reads_zero"),
    Mutant("fit-window-needs-two-rounds", "src/fedmoo/metrics.py",
           "if not 1 <= t_lo <= t_hi <= y.shape[0]:", "if not 1 <= t_lo < t_hi <= y.shape[0]:",
           "tests/test_metrics.py::TestFitRate::test_one_point_window_has_too_few_points"),
    Mutant("threshold-strict", "src/fedmoo/metrics.py",
           "np.flatnonzero(y <= epsilon)", "np.flatnonzero(y < epsilon)",
           "tests/test_metrics.py::TestThresholds::test_value_exactly_at_epsilon_counts"),
    # config schema
    Mutant("stochastic-without-batch", "src/fedmoo/config.py",
           'if mode == "stochastic" and batch is None:', "if False:",
           "tests/test_config_cli.py::test_config_error_exits_2_naming_the_field"),
    # the rule-table walker: each table's edge values, through files and direct calls
    Mutant("walker-skips-first-rule", "src/fedmoo/core.py",
           "for key, (_, rule) in rules.items():",
           "for key, (_, rule) in list(rules.items())[1:]:",
           "tests/test_config_cli.py::test_rule_edges_hold_for_files_and_direct_calls"),
    Mutant("walker-checks-none", "src/fedmoo/core.py",
           "if rule is not None and value is not None and not rule[1](value):",
           "if rule is not None and not rule[1](value):",
           "tests/test_config_cli.py::test_rule_edges_hold_for_files_and_direct_calls"),
    Mutant("at-least-strict", "src/fedmoo/core.py",
           "lambda v: v >= bound", "lambda v: v > bound",
           "tests/test_config_cli.py::test_rule_edges_hold_for_files_and_direct_calls"),
    # problem suites: finite differences in verify and the public-array oracles
    Mutant("tanh-ridge-dropped", "src/fedmoo/problems.py",
           "        return np.add(out, self._ridge * x, out)\n", "        return out\n",
           "tests/test_config_cli.py::TestVerifyCommand::test_quick_battery_passes_within_budget"),
    Mutant("loss-table-other-objective", "src/fedmoo/problems.py",
           "_read_only(self._anchor_const[s, rows])",
           "_read_only(self._anchor_const[s - 1, rows])",
           "tests/test_problems.py::TestOperandTables"
           "::test_quadratic_losses_are_the_closed_form_mean"),
    Mutant("curvature-python-float", "src/fedmoo/problems.py",
           "(client_curv[s, i, ...], client_centers[s, i])",
           "(float(client_curv[s, i]), client_centers[s, i])",
           "tests/test_problems.py::TestOperandTables"
           "::test_numeric_operands_are_read_only_float64_arrays"),
    Mutant("logistic-numerator-one", "src/fedmoo/problems.py",
           "np.divide(_MINUS_ONE, coef, coef)", "np.divide(_ONE, coef, coef)",
           "tests/test_problems.py::TestOperandTables"
           "::test_shard_surface_matches_the_public_array_formula"),
    Mutant("logistic-ridge-once", "src/fedmoo/problems.py",
           "            acc += float(np.add.reduce(m[lo:hi])) / (hi - lo) + ridge\n"
           "        return acc / len(spans)\n",
           # the ridge term joins the sum of the owners' means once, not once per owner
           "            acc += float(np.add.reduce(m[lo:hi])) / (hi - lo)\n"
           "        return (acc + ridge) / len(spans)\n",
           "tests/test_problems.py::TestOperandTables"
           "::test_logistic_losses_are_the_base_owner_loop"),
    Mutant("logistic-count-off-by-one", "src/fedmoo/problems.py",
           "/ (hi - lo) + ridge", "/ (hi - lo + 1) + ridge",
           "tests/test_problems.py::TestOperandTables"
           "::test_logistic_losses_are_the_base_owner_loop"),
    Mutant("anchor-key-without-objective", "src/fedmoo/problems.py",
           "_rng(self.seed, _TAG_ANCHORS, s)", "_rng(self.seed, _TAG_ANCHORS)",
           "tests/test_problems.py::TestQuadraticBuild"
           "::test_in_place_build_matches_the_out_of_place_expressions"),
]

EQUIVALENT = [
    Equivalent("src/fedmoo/minnorm.py",
               "refine_to < 1.0 / cells and n > 1:", "refine_to <= 1.0 / cells and n > 1:",
               "a re-scan at the coarse resolution visits only coarse lattice points, so it "
               "cannot strictly beat the coarse minimum"),
]


def _pytest(work: Path, test: str, seed: int) -> tuple[str, float]:
    """Run one pytest node id in ``work`` under one Hypothesis seed: ``passed``,
    ``failed`` or ``timeout``."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"--hypothesis-seed={seed}", test]
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if proc.returncode in (0, 1):  # 1: tests ran and some failed
        return ("passed", "failed")[proc.returncode], elapsed
    tail = proc.stdout.decode(errors="replace").strip().splitlines()[-1:]
    raise SystemExit(f"{test}: pytest exited {proc.returncode} "
                     f"(not a test failure): {' '.join(tail)}")


def _runs(work: Path, test: str) -> tuple[set, float]:
    """The outcomes of ``test`` under each of ``SEEDS``, and their total time."""
    runs = [_pytest(work, test, seed) for seed in SEEDS]
    return {status for status, _ in runs}, sum(elapsed for _, elapsed in runs)


def run(mutant: Mutant) -> tuple[str, float]:
    """Check ``mutant``'s test on a fresh copy of the checkout, then mutate and rerun it."""
    with tempfile.TemporaryDirectory(prefix="fedmoo-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                             f"times in {mutant.path}")
        statuses, _ = _runs(work, mutant.test)
        if statuses != {"passed"}:  # a kill must come from the mutant, not from the copy
            raise SystemExit(f"{mutant.name}: {mutant.test} {'/'.join(sorted(statuses))} "
                             f"before mutation")
        target.write_text(text.replace(mutant.old, mutant.new))
        statuses, elapsed = _runs(work, mutant.test)
        if statuses == {"failed"}:
            return "killed", elapsed
        return ("timeout" if "timeout" in statuses else "survived"), elapsed


def main() -> int:
    unseen = 0
    for mutant in MUTANTS:
        status, elapsed = run(mutant)
        unseen += status != "killed"
        print(f"{status:8s} {elapsed:6.1f} s  {mutant.name}  ({mutant.test})", flush=True)
    return 1 if unseen else 0


if __name__ == "__main__":
    sys.exit(main())
