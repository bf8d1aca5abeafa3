"""Golden outputs: fresh runs of small configs reproduce committed files byte for byte.

Each ``tests/golden/<case>.yaml`` is run through ``fedmoo run`` and its
``rounds.csv`` and ``summary.json`` are compared with the files committed in
``tests/golden/<case>/``.  A change that alters the bytes on purpose
regenerates them in a commit of its own::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from fedmoo.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.yaml"))
OUTPUTS = ("rounds.csv", "summary.json")


def run_case(case, out_dir):
    code = main(["run", "--config", str(GOLDEN / f"{case}.yaml"), "--out", str(out_dir),
                 "--force"])
    assert code == 0, f"{case}: fedmoo run exited {code}"


def test_cases_cover_every_suite_and_mode():
    assert {"quad_full", "quad_stoch", "quad_client_weights", "tanh_full", "tanh_stoch",
            "cls_full", "cls_per_objective"} <= set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_rerun_matches_golden_bytes(case, tmp_path):
    run_case(case, tmp_path)
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), \
            f"{case}/{name} differs from the golden file"


if __name__ == "__main__":
    for case in CASES:
        run_case(case, GOLDEN / case)
