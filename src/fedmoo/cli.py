"""Experiment driver: ``fedmoo run | sweep | verify | report``.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime divergence
(a non-finite local update, averaged block or min-norm solve, named by round
and phase, or a global point beyond the norm guard; the partial log is
written), 4 verification failure.  Output directories are immutable run
artifacts: ``rounds.csv`` plus ``summary.json`` per run, and
``sweep_summary.json`` at the sweep root.  Nothing is overwritten without
``--force``.  The default output root is ``$FEDMOO_OUT`` (falling back to
``./runs``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import load_config, load_sweep, member_dir
from .core import ConfigError
from .federation import run_experiment
from .problems import build_problem
from .reporting import (COLUMNS, build_summary, format_cell, read_rounds_csv,
                        summarize_columns, write_rounds_csv, write_summary_json)
from .verify import run_battery

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4

OUT_ROOT_ENV = "FEDMOO_OUT"


def _out_root() -> str:
    return os.environ.get(OUT_ROOT_ENV, os.path.join(".", "runs"))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _not_a_directory(out_dir: str) -> str | None:
    """Why ``out_dir`` cannot be made: it, or its nearest existing parent, is a file."""
    probe = os.path.abspath(out_dir)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    return None if os.path.isdir(probe) else f"{out_dir}: {probe} is not a directory"


def _refusal(out_dir: str, force: bool) -> str | None:
    """Why ``out_dir`` may not be written: outputs kept without force, or not a directory."""
    existing = [f for f in ("rounds.csv", "summary.json", "sweep_summary.json")
                if os.path.exists(os.path.join(out_dir, f))]
    if existing and not force:
        return f"{out_dir} already contains {existing[0]}; pass --force to overwrite"
    return _not_a_directory(out_dir)


def _execute_run(config, raw, out_dir: str) -> tuple[int, dict]:
    """Run one config into ``out_dir``; returns the exit code and the summary written.

    The directory is created once the problem is built, so a config refused
    there leaves nothing behind.
    """
    problem = build_problem(config)
    os.makedirs(out_dir, exist_ok=True)
    traj = run_experiment(config, problem)
    write_rounds_csv(os.path.join(out_dir, "rounds.csv"), traj)
    summary = build_summary(traj, raw, problem)
    write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    if traj.termination != "completed":
        # one write per line, so another writer to stderr cannot split it
        sys.stderr.write(f"{config.name}: {traj.termination} "
                         f"(partial log written to {out_dir})\n")
        return EXIT_DIVERGED, summary
    print(f"{config.name}: {len(traj.records)} rounds -> {out_dir}")
    return EXIT_OK, summary


def _run_member(config, raw, out_dir: str, force: bool) -> tuple[int, str | None, dict | None]:
    """One run, standalone or in a sweep: (exit code, error message, summary)."""
    err = _refusal(out_dir, force)
    if err is not None:
        return EXIT_USAGE, err, None
    try:
        code, summary = _execute_run(config, raw, out_dir)
    except ConfigError as exc:
        return EXIT_USAGE, str(exc), None
    return code, None, summary


def cmd_run(args) -> int:
    try:
        config, raw = load_config(args.config)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    out_dir = args.out or os.path.join(_out_root(), config.name)
    code, err, _ = _run_member(config, raw, out_dir, args.force)
    return code if err is None else _fail(err, code)


def cmd_sweep(args) -> int:
    try:
        spec = load_sweep(args.config)
        members = spec.member_configs()
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    out_dir = args.out or os.path.join(_out_root(), f"sweep-{spec.axis}")
    err = _refusal(out_dir, args.force)
    if err is not None:
        return _fail(err, EXIT_USAGE)
    os.makedirs(out_dir, exist_ok=True)

    def one(member):
        value, config, raw = member
        run_dir = os.path.join(out_dir, member_dir(spec.axis, value))
        return value, run_dir, *_run_member(config, raw, run_dir, args.force)

    results = [one(member) for member in members]  # --jobs is accepted and has no effect

    entries = []
    worst = EXIT_OK
    for value, run_dir, code, err_msg, summary in results:
        entry = {"value": value, "dir": os.path.basename(run_dir),
                 "status": "ok" if code == EXIT_OK else f"error({code})"}
        if err_msg:
            entry["error"] = err_msg
        if summary is not None:
            entry.update((key, summary[key]) for key in ("thresholds", "rate_fits", "final"))
        entries.append(entry)
        worst = max(worst, code)
    sweep_summary = {"axis": spec.axis, "values": list(spec.values), "members": entries}
    write_summary_json(os.path.join(out_dir, "sweep_summary.json"), sweep_summary)
    print(f"sweep over {spec.axis}: {len(entries)} runs -> {out_dir}")
    return worst


def cmd_verify(args) -> int:
    results = run_battery(level=args.level)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY


def _read_f_min(path: str, n_objectives: int) -> list | None:
    """A run summary's ``f_min``: null or one finite number per objective."""
    with open(path) as fh:
        summary = json.load(fh)
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(summary).__name__}")
    f_min = summary.get("f_min")
    if f_min is None:
        return None
    try:
        valid = (isinstance(f_min, list) and len(f_min) == n_objectives
                 and all(type(v) in (int, float) and math.isfinite(v) for v in f_min))
    except OverflowError:  # an integer beyond the float range
        valid = False
    if not valid:
        raise ValueError(f"{path}: f_min must be null or {n_objectives} finite numbers, "
                         f"got {f_min!r}")
    return f_min


def cmd_report(args) -> int:
    # per round: the per-objective columns interleaved by objective, then the rest
    wide = [(key, stem) for key, stem in COLUMNS.items() if stem]
    scalars = [key for key, stem in COLUMNS.items() if not stem and key != "t"]
    err = _not_a_directory(args.out)
    if err is not None:
        return _fail(err, EXIT_USAGE)
    dirs = {}  # run id (the directory's name) -> directory
    for run_dir in args.runs:
        run_id = os.path.basename(os.path.normpath(run_dir))
        if run_id in dirs:
            return _fail(f"runs {dirs[run_id]} and {run_dir} share the run id {run_id!r}",
                         EXIT_USAGE)
        dirs[run_id] = run_dir
    rows = []
    tables = []
    failures = 0
    for run_id, run_dir in dirs.items():
        try:
            cols = read_rounds_csv(os.path.join(run_dir, "rounds.csv"))
            f_min = _read_f_min(os.path.join(run_dir, "summary.json"), cols["lambda"].shape[1])
        except (OSError, ValueError) as exc:
            print(f"skipping {run_dir}: {exc}", file=sys.stderr)
            failures += 1
            continue
        derived = summarize_columns(cols, f_min=f_min)
        tables.append((run_id, derived))
        for r, t in enumerate(cols["t"]):
            for s in range(cols["lambda"].shape[1]):
                rows += [(run_id, int(t), f"{stem}_{s + 1}", cols[key][r, s])
                         for key, stem in wide]
            rows += [(run_id, int(t), key, cols[key][r]) for key in scalars]

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "report.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write("run_id,t,metric,value\n")
        for run_id, t, metric, value in rows:
            fh.write(f"{run_id},{t},{metric},{format_cell(value)}\n")

    for run_id, derived in tables:
        print(f"== {run_id} ({derived['rounds']} rounds)")
        for name, fit in derived["rate_fits"].items():
            print(f"   {name:18s} {fit['model']:12s} slope={fit['slope']:+.4g} "
                  f"residual={fit['residual']:.3g}")
        for name, eps_map in derived["thresholds"].items():
            hits = ", ".join(f"{eps}: {t if t is not None else '-'}"
                             for eps, t in eps_map.items())
            print(f"   {name:18s} rounds-to-threshold  {hits}")
    print(f"long-format CSV -> {csv_path}")
    return EXIT_OK if failures == 0 else EXIT_USAGE


def _positive_int(text) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmoo",
                                     description="Federated multi-objective optimization "
                                                 "experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.add_argument("--out", help="output directory (default $FEDMOO_OUT/<name>)")
    p_run.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a one-axis sweep")
    p_sweep.add_argument("--config", required=True, help="path to the sweep file")
    p_sweep.add_argument("--out", help="sweep output root")
    p_sweep.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="accepted for compatibility and has no effect: "
                              "members run one after another")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in verification battery")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="merge run outputs into a plot-ready CSV")
    p_report.add_argument("runs", nargs="+", help="run directories to merge")
    p_report.add_argument("--out", default=".", help="where to write report.csv")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
