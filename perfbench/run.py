"""fedmoo benchmark entry point.

    python3 perfbench/run.py --workload toy-stoch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Runs from the root of a source checkout and imports fedmoo from its ``src``
directory.  Prints a line per metric with its unit, a provenance line, and as
the last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Exits 1 when an output check fails and 2 when the
checkout has no fedmoo sources.  Outputs go to ``.perfbench_out/`` in the
checkout.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="toy-stoch, quad-wide or cls-sweep")
    parser.add_argument("--seed", type=int, help="workload seed; the episode seeds derive from it")
    parser.add_argument("--seconds", type=float, help="how long to repeat episodes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced episodes")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny T and check every metric is emitted")
    args = parser.parse_args(argv)
    if not args.smoke and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "fedmoo" / "__init__.py").is_file():
        print(f"error: no fedmoo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: the benchmark is one process using at most nproc (2) threads,
    # and the sweep's two member threads are the only parallelism measured.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # numpy must load after the thread settings above
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.smoke:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        problems = harness.smoke(ROOT, OUT_ROOT, declared)
        for problem in problems:
            print(f"smoke: {problem}")
        print(f"smoke: {len(declared)} metrics checked on {len(WORKLOADS)} workloads, "
              f"{len(problems)} problems")
        return 1 if problems else 0

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = OUT_ROOT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result = harness.run_workload(wl, args.seed, args.seconds, bool(args.trace), run_dir)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: result["metrics"][m["name"]] for m in wanted
               if m["name"] in result["metrics"]}
    result["provenance"] = harness.provenance(ROOT, wl.name, args.seed)
    with open(run_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=2)

    shown = harness.PER_LAYER if args.trace else harness.END_TO_END
    for name in shown:
        if name in result["metrics"]:
            m = result["metrics"][name]
            note = "" if name in metrics else "  (reported, not gated)"
            print(f"{name} = {m['value']!r} {m['unit']}{note}")
    print(f"failed_share = {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} runs)")
    print("samples " + json.dumps(result["samples"]))
    print("provenance " + json.dumps(result["provenance"]))
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    correct = result["correct"] and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
