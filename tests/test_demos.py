"""Every demo script runs to completion against the package in src/ and
prints exactly the bytes pinned in tests/data/demos/<name>.out."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "data" / "demos"


def test_demos_present():
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout == (PINNED / f"{script.stem}.out").read_bytes()
