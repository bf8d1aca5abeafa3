"""Smoke test of ``demos/``: every script and every demo config runs to exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from fedmoo.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", sorted(p.name for p in (DEMOS / "configs").glob("*.yaml")))
def test_demo_config_runs(config, tmp_path):
    path = DEMOS / "configs" / config
    command = "sweep" if "axis" in yaml.safe_load(path.read_text()) else "run"
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_parallel_classification_sweep_in_a_fresh_process(tmp_path):
    """A fresh ``sweep --jobs 2`` writes the serial tree.  No run loads scipy, so this
    guards no import race inside the member threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        proc = subprocess.run([sys.executable, "-m", "fedmoo.cli", "sweep", "--config",
                               str(DEMOS / "configs" / "k_sweep.yaml"), "--out", str(out),
                               "--jobs", jobs], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 7
    assert trees[1] == trees[0]
