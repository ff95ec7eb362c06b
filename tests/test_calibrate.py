"""Smoke test: scripts/calibrate.py runs against the package API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_calibrate_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "calibrate.py"),
                           "--trials", "200"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "cutoff d* =" in done.stdout
    # one LA rate line per calibration endpoint, from the rate_mbps sweep
    assert done.stdout.count(" Mbps (+- ") == 2
