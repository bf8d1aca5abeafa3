"""Runs one workload for a fixed time, checks its outputs and reduces it to metrics.

A run is whole episodes until the time budget is spent, then a replay of the
first episode for the determinism check.  An episode is what a user runs:
parse, build, all rounds and output writing through the public API, or one
``fedmoo sweep`` command.  Before each episode the set-up (config parse plus
problem build) runs ``setup_reps`` times on its own; the median over the run
is ``setup_s``, spread over the run so that one burst of load from other
tenants cannot move it.  Every
``federation.run_round`` call gets one timestamp pair and its record is kept,
so round times and time to target come from the same calls in traced and
untraced episodes.  The gated times, ``setup_s`` and ``round_ms_scaled``, are
thread CPU times rescaled by the reference passes timed next to them
(``reference.py``), because a shared core's speed changes twofold in phases
longer than a run.  With tracing on, every second episode also runs under the
span tracer; per-layer metrics come from those, and the others give the
untraced baseline for ``trace.overhead``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import yaml

import fedmoo
from fedmoo import cli, config as fconfig, federation, metrics, problems, reporting

from reference import REF_MS, cpu_clock, kernel_ms, setup_scale
from tracer import Tracer, layer_totals, trace_points
from workloads import WORKLOADS, Workload, episode_seed

clock = time.perf_counter

END_TO_END = {
    "setup_s": "s", "round_ms_scaled": "ms", "rounds_to_target": "rounds", "peak_rss_mb": "MB",
    # Printed and kept in result.json; wall-clock times, too unsteady on a shared VM to gate on.
    "setup_wall_s": "s", "wall_s": "s", "rounds_per_s": "1/s", "round_ms_p50": "ms",
    "round_ms_p90": "ms", "round_ms_p99": "ms", "time_to_target_s": "s",
}
PER_LAYER = {
    "core.client_stream_calls_per_round": "calls/round",
    "core.client_stream_s": "s",
    "problems.grad_calls_per_round": "calls/round",
    "problems.grad_s": "s",
    "federation.client_update_self_s": "s",
    "problems.losses_calls_per_round": "calls/round",
    "problems.gradient_matrix_calls_per_round": "calls/round",
    "metrics.dbar_s": "s",
    "metrics.delta_q_s": "s",
    "metrics.lambda_drift_self_s": "s",
    "minnorm.server_solve_s": "s",
    "minnorm.drift_solve_s": "s",
    "minnorm.iterations_per_solve": "iter/solve",
    "minnorm.nonconverged": "count",
    "federation.server_aggregate_s": "s",
    "federation.run_round_self_s": "s",
    "problems.build_s": "s",
    "config.parse_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes_written": "bytes",
    "cli.sweep_concurrency": "ratio",
    "cli.member_wall_max_s": "s",
    "trace.overhead": "ratio",
}
# Layers whose calls inside rounds the self-check compares with analytic counts.
COUNTED = ("core.client_stream", "problems.grad", "problems.losses", "problems.gradient_matrix")


class CheckFailed(Exception):
    """An output of the program is wrong; the episode counts as failed."""


class RoundLog:
    """Every ``run_round`` call per run name, as an entry ``(start, end, record,
    problem, scaled_ms, kernel_s)``.

    ``start``/``end`` are the wall-clock timestamp pair.  ``scaled_ms`` is the
    round's thread CPU time rescaled by a reference-kernel pass run right after
    it, outside the timestamp pair.  ``kernel_s`` is the wall time of all kernel
    passes before this round ended, so wall-clock metrics can leave them out.
    """

    def __init__(self):
        self.runs: dict[str, list] = {}
        self.kernel_s = 0.0

    @contextlib.contextmanager
    def installed(self):
        original = federation.run_round
        runs = self.runs

        @functools.wraps(original)
        def timed(round_index, x_t, config, problem, **kwargs):
            cpu_start = cpu_clock()
            start = clock()
            out = original(round_index, x_t, config, problem, **kwargs)
            end = clock()
            cpu_ms = (cpu_clock() - cpu_start) * 1e3
            scaled_ms = cpu_ms * REF_MS / kernel_ms()
            runs.setdefault(config.name, []).append(
                (start, end, out[1], problem, scaled_ms, self.kernel_s))
            self.kernel_s += clock() - end
            return out

        federation.run_round = timed
        try:
            yield self
        finally:
            federation.run_round = original


@dataclasses.dataclass
class Episode:
    traced: bool
    wall_s: float
    rounds: int
    run_s: float
    member_ms: list         # run_round times in ms, one list per run (sweep member)
    member_scaled_ms: list  # the same calls' rescaled CPU times in ms
    target_round: int
    ttt_s: float
    digests: dict
    bytes_written: int
    totals: dict | None = None

    def values(self) -> dict:
        """This episode's value of the end-to-end metrics; runs report their medians."""
        p50, p90 = np.percentile(np.concatenate(self.member_ms), [50, 90])
        return {"wall_s": self.wall_s, "rounds_per_s": self.rounds / self.run_s,
                "round_ms_p50": float(p50), "round_ms_p90": float(p90),
                "time_to_target_s": self.ttt_s, "rounds_to_target": self.target_round}


def expected_counts(wl: Workload, seed: int) -> dict:
    """Analytic calls of each counted layer over one episode, from its configs.

    Per round: K local gradient calls per owned (objective, client) pair,
    plus one per pair in each of the two gradient matrices (dbar and
    lambda_drift); one stream per (client, step) under per-client sharing and
    per (pair, step) under per-objective sharing, none for full gradients;
    losses once for the record and twice more inside delta_q, which only the
    quadratic suite's closed-form minimizer provides.
    """
    counts = dict.fromkeys(COUNTED, 0)
    for raw in _member_mappings(wl, seed):
        cfg = fconfig.parse_config(raw)
        pairs = int(cfg.indicator.entries.sum())
        if cfg.mode == "full_gradient":
            streams = 0
        else:
            streams = cfg.K * (cfg.M if cfg.sample_sharing == "per_client" else pairs)
        per_round = {
            "core.client_stream": streams,
            "problems.grad": pairs * cfg.K + 2 * pairs,
            "problems.losses": 3 if cfg.problem.kind == "quadratic" else 1,
            "problems.gradient_matrix": 2,
        }
        for name, n in per_round.items():
            counts[name] += n * cfg.T
    return counts


def _member_mappings(wl, seed):
    raw = wl.build(seed, wl.T)
    if not wl.is_sweep:
        return [raw]
    return [{**raw["base"], raw["axis"]: v} for v in raw["values"]]


def _target_series(wl, entries) -> np.ndarray:
    records = [e[2] for e in entries]
    if wl.target == "running_min_dbar":
        return metrics.running_min([r.dbar_norm_sq for r in records])
    if wl.target == "delta_Q":
        return np.array([np.nan if r.delta_q is None else r.delta_q for r in records])
    f_min = np.asarray(entries[0][3].f_min)
    return np.array([float((r.losses - f_min).max()) for r in records])


def _check_run(wl, rounds_csv: Path, entries, T) -> tuple[int, float, str]:
    """Gate one run's outputs; returns the crossing round, its end time and the digest."""
    if len(entries) != T:
        raise CheckFailed(f"{rounds_csv}: {len(entries)} rounds ran, expected {T}")
    records = [e[2] for e in entries]
    dbar = [r.dbar_norm_sq for r in records]
    in_memory = {
        "t": np.array([r.t for r in records]),
        "lambda": np.vstack([r.weights for r in records]),
        "d_norm_sq": np.array([r.d_norm_sq for r in records]),
        "dbar_norm_sq": np.array(dbar),
        "running_min_dbar": metrics.running_min(dbar),
        "losses": np.vstack([r.losses for r in records]),
        "delta_Q": np.array([np.nan if r.delta_q is None else r.delta_q for r in records]),
        "fw_gap": np.array([r.fw_gap for r in records]),
        "lambda_drift": np.array([np.nan if r.lambda_drift is None else r.lambda_drift
                                  for r in records]),
    }
    cols = reporting.read_rounds_csv(rounds_csv)
    for name, values in in_memory.items():
        if not np.array_equal(cols[name], values, equal_nan=True):
            raise CheckFailed(f"{rounds_csv}: column {name} does not read back equal "
                              "to the in-memory records")
    series = _target_series(wl, entries)
    if not series[-1] <= wl.final_bound:
        raise CheckFailed(f"{rounds_csv}: final {wl.target} {series[-1]!r} above the "
                          f"bound {wl.final_bound!r}")
    hits = np.flatnonzero(series <= wl.threshold)
    if hits.size == 0:
        raise CheckFailed(f"{rounds_csv}: {wl.target} never reached {wl.threshold!r}")
    digest = hashlib.sha256(rounds_csv.read_bytes()).hexdigest()
    return int(hits[0]) + 1, entries[hits[0]][1], digest


def _single_episode(wl, seed, out_dir: Path, log: RoundLog) -> Episode:
    raw = wl.build(seed, wl.T)
    out_dir.mkdir()
    k0 = log.kernel_s
    t0 = clock()
    cfg = fconfig.parse_config(raw)
    problem = problems.build_problem(cfg)
    t1 = clock()
    traj = federation.run_experiment(cfg, problem)
    t2 = clock()
    reporting.write_rounds_csv(out_dir / "rounds.csv", traj)
    reporting.write_summary_json(out_dir / "summary.json",
                                 reporting.build_summary(traj, raw, problem))
    t3 = clock()
    if traj.termination != "completed":
        raise CheckFailed(f"{wl.name}: run ended '{traj.termination}'")
    entries = log.runs.pop(cfg.name)
    target_round, crossed_at, digest = _check_run(wl, out_dir / "rounds.csv", entries, wl.T)
    kernel_s = log.kernel_s - k0
    return Episode(False, t3 - t0 - kernel_s, wl.T, t2 - t1 - kernel_s,
                   [[(e[1] - e[0]) * 1e3 for e in entries]], [[e[4] for e in entries]],
                   target_round, crossed_at - t0 - (entries[target_round - 1][5] - k0),
                   {"rounds.csv": digest}, _dir_bytes(out_dir))


def _sweep_episode(wl, seed, out_dir: Path, log: RoundLog) -> Episode:
    raw = wl.build(seed, wl.T)
    sweep_file = out_dir.with_suffix(".yaml")
    sweep_file.write_text(yaml.safe_dump(raw))
    argv = ["sweep", "--config", str(sweep_file), "--out", str(out_dir),
            "--jobs", str(wl.sweep_jobs)]
    k0 = log.kernel_s
    t0 = clock()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    t1 = clock()
    if code != 0:
        raise CheckFailed(f"fedmoo {' '.join(argv)} exited {code}")
    member_ms, member_scaled_ms, digests, crossings = [], [], {}, []
    for value in raw["values"]:
        run_dir = out_dir / f"{raw['axis']}={value}"
        summary = json.loads((run_dir / "summary.json").read_text())
        if summary["termination"] != "completed":
            raise CheckFailed(f"{run_dir}: run ended '{summary['termination']}'")
        entries = log.runs.pop(f"{raw['base']['name']}-{raw['axis']}={value}")
        target_round, crossed_at, digests[run_dir.name] = _check_run(
            wl, run_dir / "rounds.csv", entries, wl.T)
        crossings.append((target_round, crossed_at - (entries[target_round - 1][5] - k0)))
        member_ms.append([(e[1] - e[0]) * 1e3 for e in entries])
        member_scaled_ms.append([e[4] for e in entries])
    rounds = wl.T * len(raw["values"])
    last_round, last_time = (max(c) for c in zip(*crossings))
    # The members' threads take turns on the GIL, so their kernel passes add up.
    wall_s = t1 - t0 - (log.kernel_s - k0)
    return Episode(False, wall_s, rounds, wall_s, member_ms, member_scaled_ms,
                   last_round, last_time - t0, digests, _dir_bytes(out_dir))


def _round_ms_scaled(episodes: list[Episode]) -> float:
    """Median rescaled round time of each run, pooled over episodes, summed.

    A sweep's members differ in K and so in round cost; their sum is the
    cost of one round at every K.
    """
    members = zip(*(ep.member_scaled_ms for ep in episodes))
    return float(sum(np.median(np.concatenate(m)) for m in members))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _setup_once(wl, seed, scratch: Path) -> tuple[float, float]:
    """One config parse plus problem build (every member's, for a sweep).

    Returns its wall seconds and its thread CPU seconds rescaled by the
    reference passes of ``setup_scale``, timed before and after it.
    """
    raw = wl.build(seed, wl.T)
    if wl.is_sweep:
        path = scratch / "setup.yaml"
        path.write_text(yaml.safe_dump(raw))
    scale = setup_scale()
    cpu_start = cpu_clock()
    t0 = clock()
    if not wl.is_sweep:
        problems.build_problem(fconfig.parse_config(raw))
    else:
        for _, cfg, _ in fconfig.load_sweep(path).member_configs():
            problems.build_problem(cfg)
    wall_s = clock() - t0
    cpu_s = cpu_clock() - cpu_start
    return wall_s, cpu_s * (scale + setup_scale()) / 2


def _layer_metrics(ep: Episode) -> dict:
    totals = ep.totals

    def get(name, key):
        return totals[name][key] if name in totals else ([] if key == "notes" else 0.0)

    def per_round(name):
        return get(name, "round_calls") / ep.rounds

    solves = get("minnorm.server_solve", "notes") + get("minnorm.drift_solve", "notes")
    members = get("cli.member", "calls")
    return {
        "core.client_stream_calls_per_round": per_round("core.client_stream"),
        "core.client_stream_s": get("core.client_stream", "round_s"),
        "problems.grad_calls_per_round": per_round("problems.grad"),
        "problems.grad_s": get("problems.grad", "round_s"),
        "federation.client_update_self_s": get("federation.client_update", "self_s"),
        "problems.losses_calls_per_round": per_round("problems.losses"),
        "problems.gradient_matrix_calls_per_round": per_round("problems.gradient_matrix"),
        "metrics.dbar_s": get("metrics.dbar", "s"),
        "metrics.delta_q_s": get("metrics.delta_q", "s"),
        "metrics.lambda_drift_self_s": get("metrics.lambda_drift", "self_s"),
        "minnorm.server_solve_s": get("minnorm.server_solve", "s"),
        "minnorm.drift_solve_s": get("minnorm.drift_solve", "s"),
        "minnorm.iterations_per_solve": sum(i for i, _ in solves) / len(solves),
        "minnorm.nonconverged": sum(1 for _, ok in solves if not ok),
        "federation.server_aggregate_s": get("federation.server_aggregate", "s"),
        "federation.run_round_self_s": get("federation.run_round", "self_s"),
        "problems.build_s": get("problems.build", "s"),
        "config.parse_s": get("config.parse", "s"),
        "reporting.write_s": get("reporting.write", "s"),
        "reporting.bytes_written": ep.bytes_written,
        # A single run is one member of its own: concurrency 1, member wall = run wall.
        "cli.sweep_concurrency": get("cli.member", "s") / ep.wall_s if members else 1.0,
        "cli.member_wall_max_s": get("cli.member", "max_s") if members else ep.wall_s,
    }


def _check_counts(wl, seed, traced: list[Episode]) -> None:
    """Counts must repeat exactly between episodes and equal their analytic values."""
    expected = expected_counts(wl, seed)
    for ep in traced:
        for name, want in expected.items():
            got = ep.totals.get(name, {}).get("round_calls", 0)
            if got != want:
                raise CheckFailed(f"{wl.name}: {name} was called {got} times in rounds, "
                                  f"analytic value {want}")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    """Run the workload and return its result: correctness, counts, metrics."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    episode_fn = _sweep_episode if wl.is_sweep else _single_episode
    tracer = Tracer() if trace else None
    points = trace_points(fedmoo) if trace else None
    log = RoundLog()
    episodes: list[Episode] = []
    failures: list[str] = []
    attempted = 0

    def attempt(i, traced, seed_index, setup_reps=0):
        nonlocal attempted
        attempted += 1
        ep_dir = out_dir / f"ep{i:03d}"
        if traced:
            tracer.spans.clear()  # spans.csv keeps the last traced episode
        try:
            setup.extend(_setup_once(wl, episode_seed(seed, seed_index), out_dir)
                         for _ in range(setup_reps))
            # The round log wraps the traced run_round, so its kernel passes
            # stay outside the spans and its round times include the tracing.
            with tracer.installed(points) if traced else contextlib.nullcontext(), \
                    log.installed():
                ep = episode_fn(wl, episode_seed(seed, seed_index), ep_dir, log)
        except Exception as exc:  # a failing episode is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            failures.append(f"episode {i}: {exc}")
            return None
        finally:
            log.runs.clear()
            shutil.rmtree(ep_dir, ignore_errors=True)
            ep_dir.with_suffix(".yaml").unlink(missing_ok=True)
        ep.traced = traced
        if traced:
            ep.totals = layer_totals(tracer.spans)
        return ep

    setup: list[tuple[float, float]] = []  # (wall, rescaled) seconds
    start = clock()
    i = 0
    while i < (2 if trace else 1) or clock() - start < seconds:
        ep = attempt(i, trace and i % 2 == 1, i, wl.setup_reps)
        if ep is not None:
            episodes.append(ep)
        i += 1
    replay = attempt(i, False, 0)
    if replay is not None and episodes and episodes[0].digests != replay.digests:
        failures.append("replaying episode 0 on its seed gave different rounds.csv digests")
    traced = [ep for ep in episodes if ep.traced]
    untraced = [ep for ep in episodes if not ep.traced]
    if traced:
        try:
            _check_counts(wl, seed, traced)
        except CheckFailed as exc:
            failures.append(str(exc))
        tracer.write_csv(out_dir / "spans.csv")

    values = [dict(ep.values(), traced=ep.traced) for ep in episodes]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "failures": failures, "metrics": {}, "samples": {},
              "setup_s": setup, "per_episode": values}

    def median(key, traced_episodes):
        return statistics.median(v[key] for v in values if v["traced"] == traced_episodes)

    if untraced:
        # The gated times are rescaled CPU times: on a shared VM the same round
        # takes up to twice as long, wall and CPU time alike, while a neighbour
        # loads the core, and such phases outlast a run.  The wall-clock times
        # are reported beside them.
        pooled = np.concatenate([ms for ep in untraced for ms in ep.member_ms])
        p99 = np.percentile(pooled, 99)
        scaled = _round_ms_scaled(untraced)
        e2e = {"setup_s": statistics.median(s for _, s in setup), "round_ms_scaled": scaled,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "setup_wall_s": statistics.median(w for w, _ in setup),
               "round_ms_p99": float(p99)}
        e2e.update((key, median(key, False)) for key in values[0] if key != "traced")
        result["metrics"].update({k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()})
        result["samples"] = {"episodes_untraced": len(untraced),
                             "rounds_per_episode": untraced[0].rounds,
                             "rounds_timed": len(pooled),
                             "rounds_beyond_p99": int((pooled > p99).sum()),
                             "setup_reps": len(setup)}
    if traced and untraced:
        per_ep = [_layer_metrics(ep) for ep in traced]
        layer = {k: statistics.median(m[k] for m in per_ep) for k in per_ep[0]}
        layer["trace.overhead"] = _round_ms_scaled(traced) / scaled
        result["metrics"].update({k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()})
        result["samples"]["episodes_traced"] = len(traced)
    return result


def provenance(root: Path, workload: str, seed: int) -> dict:
    """Machine, toolchain and source identity recorded with every result."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "fedmoo": fedmoo.__version__,
        "git_commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def smoke(root: Path, out_root: Path, declared: dict) -> list[str]:
    """Run every workload at tiny T, traced, and check every declared metric and unit.

    Thresholds and final bounds are lifted, because tiny runs cannot reach
    the full-length targets; every other check runs as usual.
    """
    problems_found = []
    for wl in WORKLOADS.values():
        tiny = dataclasses.replace(wl, T=wl.smoke_T, threshold=math.inf,
                                   final_bound=math.inf)
        t0 = clock()
        result = run_workload(tiny, 0, 0.0, True, out_root / f"smoke-{wl.name}")
        print(f"smoke {wl.name}: {result['attempted']} attempted, {result['failed']} failed, "
              f"{clock() - t0:.1f}s")
        problems_found += [f"{wl.name}: {f}" for f in result["failures"]]
        for name, unit in declared.items():
            got = result["metrics"].get(name)
            if got is None:
                problems_found.append(f"{wl.name}: metric {name} not emitted")
            elif got["unit"] != unit:
                problems_found.append(f"{wl.name}: metric {name} has unit {got['unit']}, "
                                      f"declared {unit}")
            elif not math.isfinite(got["value"]):
                problems_found.append(f"{wl.name}: metric {name} is {got['value']}")
    return problems_found
