"""The narrated demos run to completion and print the same bytes twice.

Each demo runs in a fresh interpreter, so memos start cold on both runs.
The first run's stdout must also match the demo's golden file in
``tests/golden``, so what a demo prints cannot change unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_prints_the_same_bytes_twice(path):
    first = _run(path)
    assert first.returncode == 0, first.stderr
    assert first.stdout == (GOLDEN / f"{path.stem}.txt").read_text()
    second = _run(path)
    assert second.returncode == 0, second.stderr
    assert first.stdout
    assert first.stdout == second.stdout
