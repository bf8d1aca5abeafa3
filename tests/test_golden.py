"""Golden outputs: fresh runs of small configs reproduce committed files byte for byte.

Each ``tests/golden/<case>.yaml`` is run through ``fedmoo run`` and its
``rounds.csv`` and ``summary.json`` are compared with the files committed in
``tests/golden/<case>/``.  Each ``tests/golden/sweeps/<case>.yaml`` is run
through ``fedmoo sweep`` and its ``sweep_summary.json`` is compared with
``tests/golden/sweeps/<case>/sweep_summary.json``.  ``fedmoo report`` over
the committed run directories must reproduce ``tests/golden/report.csv``.
When a ``rounds.csv`` differs, the failure names the first differing round,
its column and the relative difference, so that roundoff from another BLAS
kernel reads differently from a change of logic.  A change that alters the
bytes on purpose regenerates them in a commit of its own::

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedmoo.cli import main
from fedmoo.reporting import COLUMNS, read_rounds_csv, rounds_header

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.yaml"))
OUTPUTS = ("rounds.csv", "summary.json")
SWEEPS = GOLDEN / "sweeps"
SWEEP_CASES = sorted(p.stem for p in SWEEPS.glob("*.yaml"))


def run_case(case, out_dir):
    code = main(["run", "--config", str(GOLDEN / f"{case}.yaml"), "--out", str(out_dir),
                 "--force"])
    assert code == 0, f"{case}: fedmoo run exited {code}"


def run_sweep(case, out_dir):
    code = main(["sweep", "--config", str(SWEEPS / f"{case}.yaml"), "--out", str(out_dir),
                 "--jobs", "2"])
    assert code == 0, f"{case}: fedmoo sweep exited {code}"


def run_report(out_dir):
    """``fedmoo report`` over the committed run directories; run ids are the case names."""
    code = main(["report", *(str(GOLDEN / case) for case in CASES), "--out", str(out_dir)])
    assert code == 0, f"fedmoo report exited {code}"


def rounds_diff(path, golden_path) -> str:
    """Where two rounds.csv files first differ in value: round, column, relative size."""
    try:
        got, want = read_rounds_csv(path), read_rounds_csv(golden_path)
    except ValueError as exc:
        return str(exc)
    if got["lambda"].shape != want["lambda"].shape:
        return (f"(rounds, objectives) {got['lambda'].shape}, golden "
                f"{want['lambda'].shape}")
    grid, golden = (np.column_stack([cols[key] for key in COLUMNS]) for cols in (got, want))
    differs = ~((grid == golden) | (np.isnan(grid) & np.isnan(golden)))
    if not differs.any():
        return "every value is equal; the bytes differ in formatting only"
    row, col = np.argwhere(differs)[0]
    a, b = float(grid[row, col]), float(golden[row, col])
    with np.errstate(all="ignore"):
        rel = abs(a - b) / abs(b)
    return (f"first at round {want['t'][row]}, column "
            f"{rounds_header(want['lambda'].shape[1]).split(',')[col]}: "
            f"{a!r} against golden {b!r}, relative difference {rel:.1e}")


def test_cases_cover_every_suite_and_mode():
    assert {"quad_full", "quad_stoch", "quad_client_weights", "tanh_full", "tanh_stoch",
            "cls_full", "cls_per_objective"} <= set(CASES)
    assert SWEEP_CASES


@pytest.mark.parametrize("case", CASES)
def test_rerun_matches_golden_bytes(case, tmp_path):
    run_case(case, tmp_path)
    for name in OUTPUTS:
        got, want = tmp_path / name, GOLDEN / case / name
        assert got.read_bytes() == want.read_bytes(), \
            f"{case}/{name} differs from the golden file" + (
                f": {rounds_diff(got, want)}" if name == "rounds.csv" else "")


def test_rounds_diff_names_the_first_differing_round_and_column(tmp_path):
    golden = GOLDEN / "quad_full" / "rounds.csv"
    lines = golden.read_text().splitlines()
    header, row = lines[0].split(","), lines[3].split(",")
    col = header.index("dbar_norm_sq")
    value = float(row[col])
    row[col] = repr(value * 1.5)
    lines[3] = ",".join(row)
    changed = tmp_path / "rounds.csv"
    changed.write_text("\n".join(lines) + "\n")
    assert rounds_diff(changed, golden) == (f"first at round 3, column dbar_norm_sq: "
                                            f"{value * 1.5!r} against golden {value!r}, "
                                            "relative difference 5.0e-01")
    assert rounds_diff(golden, golden).startswith("every value is equal")


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_summary_matches_golden_bytes(case, tmp_path):
    run_sweep(case, tmp_path / "sweep")
    assert (tmp_path / "sweep" / "sweep_summary.json").read_bytes() == \
        (SWEEPS / case / "sweep_summary.json").read_bytes(), \
        f"sweeps/{case}/sweep_summary.json differs from the golden file"


def test_report_matches_golden_bytes(tmp_path):
    run_report(tmp_path)
    assert (tmp_path / "report.csv").read_bytes() == (GOLDEN / "report.csv").read_bytes(), \
        "report.csv differs from the golden file"


if __name__ == "__main__":
    for case in CASES:
        run_case(case, GOLDEN / case)
    for case in SWEEP_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            run_sweep(case, Path(tmp) / "sweep")
            (SWEEPS / case).mkdir(exist_ok=True)
            shutil.copyfile(Path(tmp) / "sweep" / "sweep_summary.json",
                            SWEEPS / case / "sweep_summary.json")
    run_report(GOLDEN)
