"""The scripts run from a clean checkout, without PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, cwd) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_scripts_run_without_pythonpath(tmp_path):
    acceptance = _run("run_acceptance.py", tmp_path)
    assert (acceptance.returncode, acceptance.stderr) == (0, "")
    lines = acceptance.stdout.splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS criterion") for line in lines)

    demo = _run("real_picard_demo.py", tmp_path)
    assert (demo.returncode, demo.stderr) == (0, "")
    assert demo.stdout.startswith("lattice: ")
