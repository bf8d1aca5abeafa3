"""Smoke test of ``demos/`` and the README: every demo script, every demo config and
every fenced python block of ``README.md`` runs to exit 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from fedmoo.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
README = DEMOS.parent / "README.md"


def _run_python(args, cwd):
    """Run the interpreter on ``args`` in ``cwd``, with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script_runs(script, tmp_path):
    _run_python([str(DEMOS / script)], tmp_path)


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        _run_python(["-c", block], tmp_path)


@pytest.mark.parametrize("config", sorted(p.name for p in (DEMOS / "configs").glob("*.yaml")))
def test_demo_config_runs(config, tmp_path):
    path = DEMOS / "configs" / config
    command = "sweep" if "axis" in yaml.safe_load(path.read_text()) else "run"
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_parallel_classification_sweep_in_a_fresh_process(tmp_path):
    """``python -m fedmoo.cli sweep`` runs in a fresh process, and ``--jobs 2`` (accepted,
    with no effect) writes the ``--jobs 1`` tree.  No other test starts the module's
    ``__main__`` entry point."""
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        _run_python(["-m", "fedmoo.cli", "sweep", "--config",
                     str(DEMOS / "configs" / "k_sweep.yaml"), "--out", str(out),
                     "--jobs", jobs], tmp_path)
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 7
    assert trees[1] == trees[0]
