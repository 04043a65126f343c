"""The scripts the README documents run end to end."""

import os
import subprocess
import sys

from conftest import REPO_ROOT


def test_rank_demo_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "rank_demo.py")],
        capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "== standings (JSON twin carries the final score) =="
    assert lines[1] == "Player | Team | IPM"
    assert lines[-1].startswith("stationary solve: method=power, ")
