"""The benchmark's trace mode still wraps every kernel function it names.

`bench/request.py 1 ...` rebinds 24 public functions of the package
before it runs the command.  A renamed or removed function makes that
install fail, so each request runs here once traced and once untraced,
in fresh interpreters, and must exit 0 with the same output both ways.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REQUEST = ROOT / "bench" / "request.py"
TRACED_FUNCTIONS = 24

PACK3X3_TEXT = "sense packing\nn 3\nm 3\nA\n3 2 4\n2 5 1\n4 1 3\nb\n9 10 8\n"
COVER2X2_TEXT = "sense covering\nn 2\nm 2\nA\n2 0\n1 3\nb\n3 4\n"
COVER1X5_TEXT = "sense covering\nn 1\nm 5\nA\n9\n2\n8\n8\n2\nb\n48 37 34 57 26\n"


def _request(trace, argv):
    done = subprocess.run(
        [sys.executable, str(REQUEST), str(trace)] + argv,
        capture_output=True,
        text=True,
        env=dict(os.environ),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture
def instance_dir(tmp_path):
    (tmp_path / "pack3x3.txt").write_text(PACK3X3_TEXT)
    (tmp_path / "cover2x2.txt").write_text(COVER2X2_TEXT)
    (tmp_path / "one" / "cover1x5.txt").parent.mkdir()
    (tmp_path / "one" / "cover1x5.txt").write_text(COVER1X5_TEXT)
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [["closure", "{dir}/pack3x3.txt", "--grid", "2"], ["verify", "{dir}"]],
    ids=["closure", "verify"],
)
def test_traced_request_matches_untraced(instance_dir, argv):
    argv = [a.format(dir=instance_dir) for a in argv]
    plain = _request(0, argv)
    traced = _request(1, argv)
    assert plain["returncode"] == traced["returncode"] == 0
    assert plain["trace"] is None
    assert len(traced["trace"]) == TRACED_FUNCTIONS
    assert traced["stdout"] == plain["stdout"]
    assert traced["stdout"]


def test_one_variable_closure_builds_no_hull(instance_dir):
    # the one-variable sampled closure is read off the grid's hull keys:
    # the trace sees the one sampled_closure call and no relaxation or hull
    argv = ["closure", f"{instance_dir}/one/cover1x5.txt", "--grid", "16"]
    plain = _request(0, argv)
    traced = _request(1, argv)
    assert traced["trace"]["closure.sampled_closure"]["calls"] == 1
    assert traced["trace"]["knapsack.integer_hull"]["calls"] == 0
    assert traced["trace"]["knapsack.build_relaxation"]["calls"] == 0
    assert traced["stdout"] == plain["stdout"]
    assert traced["stdout"]
