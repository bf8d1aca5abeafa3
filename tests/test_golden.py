"""Golden outputs: fresh runs of small configs reproduce committed files byte for byte.

Each ``tests/golden/<case>.yaml`` is run through ``fedmoo run`` and its
``rounds.csv`` and ``summary.json`` are compared with the files committed in
``tests/golden/<case>/``.  Each ``tests/golden/sweeps/<case>.yaml`` is run
through ``fedmoo sweep`` and its ``sweep_summary.json`` is compared with
``tests/golden/sweeps/<case>/sweep_summary.json``.  ``fedmoo report`` over
the committed run directories must reproduce ``tests/golden/report.csv``.
A change that alters the bytes on purpose regenerates them in a commit of its
own::

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import tempfile
from pathlib import Path

import pytest

from fedmoo.cli import main

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


def test_cases_cover_every_suite_and_mode():
    assert {"quad_full", "quad_stoch", "quad_client_weights", "tanh_full", "tanh_stoch",
            "cls_full", "cls_per_objective"} <= set(CASES)
    assert SWEEP_CASES


@pytest.mark.parametrize("case", CASES)
def test_rerun_matches_golden_bytes(case, tmp_path):
    run_case(case, tmp_path)
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), \
            f"{case}/{name} differs from the golden file"


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
