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
