"""Instance file format and command-line behavior."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from aggclosure import cli, verify
from aggclosure.errors import UsageError
from aggclosure.knapsack import COVERING, Instance, PACKING
from aggclosure.verify import FAIL, CheckReport
from aggclosure.polyhedra import make_inequality, LE
from oracles import build_parser, serialize_instance

PACK23_TEXT = "sense packing\nn 2\nm 1\nA\n2 3\nb\n4\n"
COVER23_TEXT = "sense covering\nn 2\nm 1\nA\n2 3\nb\n4\n"
COVERFIX_TEXT = "sense covering\nn 2\nm 2\nA\n2 0\n1 3\nb\n3 4\n"
PACK4X3_TEXT = "sense packing\nn 4\nm 3\nA\n3 2 4 1\n2 5 1 3\n4 1 3 2\nb\n9 10 8\n"
PACK5X2_TEXT = "sense packing\nn 5\nm 2\nA\n3 2 4 1 2\n2 5 1 3 1\nb\n9 10\n"
SRC = Path(__file__).resolve().parent.parent / "src"
RUN_CLI = "import sys; from aggclosure.cli import main; sys.exit(main(sys.argv[1:]))"

PACK4X3_G4_CLOSURE = (
    "closure\n"
    "1 0 0 0 >= 0\n"
    "0 1 0 0 >= 0\n"
    "0 0 1 0 >= 0\n"
    "0 0 0 1 >= 0\n"
    "1 0 1 0 <= 2\n"
    "1 1 2 0 <= 4\n"
    "1 3 0 2 <= 6\n"
    "2 1 1 1 <= 4\n"
    "2 1 2 1 <= 5\n"
    "2 1 2 2 <= 6\n"
    "2 2 1 2 <= 6\n"
    "2 2 2 1 <= 6\n"
    "2 5 1 3 <= 10\n"
    "2 5 2 3 <= 11\n"
    "3 6 2 3 <= 12\n"
    "4 1 3 2 <= 8\n"
    "L\n"
    "1 0 0 0 >= 0\n"
    "0 1 0 0 >= 0\n"
    "0 0 1 0 >= 0\n"
    "0 0 0 1 >= 0\n"
    "0 1 2 2 <= 6\n"
    "0 5 1 3 <= 10\n"
    "0 5 2 3 <= 11\n"
    "0 6 2 3 <= 12\n"
    "1 0 1 0 <= 2\n"
    "1 0 1 1 <= 3\n"
    "1 1 0 1 <= 3\n"
    "1 1 1 0 <= 3\n"
    "1 1 2 0 <= 4\n"
    "1 2 0 1 <= 4\n"
    "1 3 0 2 <= 6\n"
    "2 1 0 1 <= 4\n"
    "2 1 1 0 <= 4\n"
    "3 6 2 0 <= 12\n"
    "4 0 3 2 <= 8\n"
    "K\n"
    "1 1 3 1 <= 7\n"
    "1 2 1 1 <= 5\n"
    "1 2 1 2 <= 6\n"
    "2 1 1 1 <= 4\n"
    "2 1 2 1 <= 5\n"
    "2 1 2 2 <= 6\n"
    "2 2 1 2 <= 6\n"
    "2 2 2 1 <= 6\n"
    "2 5 1 3 <= 10\n"
    "2 5 2 3 <= 11\n"
    "3 1 2 1 <= 6\n"
    "3 1 3 1 <= 7\n"
    "3 2 4 1 <= 9\n"
    "3 6 2 3 <= 12\n"
    "4 1 3 2 <= 8\n"
    "9 2 7 4 <= 18\n"
    "T_sample 40\n"
    "S 40\n"
    "saturation true\n"
)

PACK5X2_G8_CLOSURE = (
    "closure\n"
    "1 0 0 0 0 >= 0\n"
    "0 1 0 0 0 >= 0\n"
    "0 0 1 0 0 >= 0\n"
    "0 0 0 1 0 >= 0\n"
    "0 0 0 0 1 >= 0\n"
    "1 1 2 0 1 <= 4\n"
    "1 2 1 1 0 <= 4\n"
    "1 3 0 2 0 <= 6\n"
    "1 3 1 2 1 <= 7\n"
    "2 1 3 0 1 <= 6\n"
    "2 2 2 1 1 <= 6\n"
    "2 2 3 1 1 <= 7\n"
    "2 3 2 2 1 <= 8\n"
    "2 5 1 3 1 <= 10\n"
    "3 2 4 1 2 <= 9\n"
    "3 5 3 3 3 <= 15\n"
    "3 8 2 4 2 <= 16\n"
    "4 4 8 3 4 <= 20\n"
    "4 9 2 5 2 <= 18\n"
    "6 6 7 3 4 <= 20\n"
    "7 6 9 3 5 <= 23\n"
    "8 7 11 4 6 <= 28\n"
    "27 62 16 32 14 <= 124\n"
    "L\n"
    "1 0 0 0 0 >= 0\n"
    "0 1 0 0 0 >= 0\n"
    "0 0 1 0 0 >= 0\n"
    "0 0 0 1 0 >= 0\n"
    "0 0 0 0 1 >= 0\n"
    "0 2 3 1 1 <= 7\n"
    "0 2 4 1 2 <= 9\n"
    "0 3 1 2 1 <= 7\n"
    "0 3 2 2 1 <= 8\n"
    "0 4 1 2 1 <= 8\n"
    "0 4 8 3 4 <= 20\n"
    "0 5 1 3 1 <= 10\n"
    "0 5 3 3 3 <= 15\n"
    "0 6 9 3 5 <= 23\n"
    "0 7 11 4 6 <= 28\n"
    "1 0 1 1 1 <= 5\n"
    "1 0 1 2 1 <= 7\n"
    "1 1 2 0 1 <= 4\n"
    "1 2 1 1 0 <= 4\n"
    "1 3 0 2 0 <= 6\n"
    "1 3 0 2 1 <= 7\n"
    "2 0 1 3 1 <= 10\n"
    "2 0 2 1 1 <= 6\n"
    "2 0 2 2 1 <= 8\n"
    "2 0 3 1 1 <= 7\n"
    "2 1 3 0 1 <= 6\n"
    "2 2 0 1 1 <= 6\n"
    "2 2 2 0 1 <= 6\n"
    "2 2 2 1 0 <= 6\n"
    "2 2 3 1 0 <= 7\n"
    "2 5 0 3 1 <= 10\n"
    "3 0 4 1 2 <= 9\n"
    "3 2 0 1 2 <= 9\n"
    "3 2 4 0 2 <= 9\n"
    "3 2 4 1 0 <= 9\n"
    "3 5 0 3 3 <= 15\n"
    "3 8 0 4 2 <= 16\n"
    "3 8 2 0 2 <= 16\n"
    "4 0 8 3 4 <= 20\n"
    "4 9 0 5 2 <= 18\n"
    "4 9 2 0 2 <= 18\n"
    "6 6 0 3 4 <= 20\n"
    "7 6 0 3 5 <= 23\n"
    "8 0 11 4 6 <= 28\n"
    "27 62 16 0 14 <= 124\n"
    "K\n"
    "1 1 3 1 1 <= 7\n"
    "1 3 1 1 1 <= 7\n"
    "1 3 1 2 1 <= 7\n"
    "2 2 2 1 1 <= 6\n"
    "2 2 3 1 1 <= 7\n"
    "2 3 2 2 1 <= 8\n"
    "2 5 1 3 1 <= 10\n"
    "2 5 2 3 1 <= 11\n"
    "3 2 4 1 1 <= 9\n"
    "3 2 4 1 2 <= 9\n"
    "3 5 3 3 3 <= 15\n"
    "3 7 2 4 1 <= 14\n"
    "3 8 2 4 2 <= 16\n"
    "4 4 8 3 4 <= 20\n"
    "4 5 4 2 2 <= 14\n"
    "4 7 2 4 2 <= 16\n"
    "4 9 2 5 2 <= 18\n"
    "6 4 7 2 4 <= 18\n"
    "6 6 6 4 3 <= 20\n"
    "6 6 7 3 4 <= 20\n"
    "6 11 4 6 2 <= 24\n"
    "7 6 9 3 5 <= 23\n"
    "8 7 11 4 6 <= 28\n"
    "27 62 16 32 14 <= 124\n"
    "T_sample 50\n"
    "S 50\n"
    "saturation true\n"
)


class TestParseInstance:
    def test_golden(self):
        inst = cli.parse_instance(PACK23_TEXT)
        assert inst.sense == PACKING
        assert inst.A == ((2, 3),)
        assert inst.b == (4,)

    def test_id_line(self):
        inst = cli.parse_instance("id demo-1\n" + PACK23_TEXT)
        assert inst.instance_id == "demo-1"

    def test_default_id_used_when_absent(self):
        inst = cli.parse_instance(PACK23_TEXT, default_id="from-filename")
        assert inst.instance_id == "from-filename"

    def test_blank_lines_ignored(self):
        inst = cli.parse_instance("\nsense packing\n\nn 2\nm 1\n\nA\n2 3\nb\n4\n\n")
        assert inst.A == ((2, 3),)

    def test_unknown_sense(self):
        with pytest.raises(UsageError, match="line 1: unknown sense 'mixed'"):
            cli.parse_instance("sense mixed\nn 1\nm 1\nA\n1\nb\n1\n")

    def test_missing_section(self):
        with pytest.raises(UsageError, match="missing"):
            cli.parse_instance("sense packing\nn 2\nm 1\nA\n2 3\n")

    def test_non_integer_entry_has_position(self):
        with pytest.raises(UsageError, match="line 5, column 2"):
            cli.parse_instance("sense packing\nn 2\nm 1\nA\n2 x\nb\n4\n")

    def test_negative_entry_has_position(self):
        with pytest.raises(UsageError, match="line 5, column 1: matrix entries"):
            cli.parse_instance("sense packing\nn 2\nm 1\nA\n-2 3\nb\n4\n")

    def test_nonpositive_rhs(self):
        with pytest.raises(UsageError, match="rhs must be positive"):
            cli.parse_instance("sense packing\nn 2\nm 1\nA\n2 3\nb\n0\n")

    def test_covering_zero_row(self):
        with pytest.raises(UsageError, match="zero row infeasible for covering"):
            cli.parse_instance("sense covering\nn 2\nm 1\nA\n0 0\nb\n4\n")

    def test_row_width_checked(self):
        with pytest.raises(UsageError, match="expected 2 entries, got 3"):
            cli.parse_instance("sense packing\nn 2\nm 1\nA\n2 3 4\nb\n4\n")

    def test_trailing_content(self):
        with pytest.raises(UsageError, match="unexpected trailing content"):
            cli.parse_instance(PACK23_TEXT + "extra\n")


@st.composite
def instances(draw):
    sense = draw(st.sampled_from([PACKING, COVERING]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    rows = [
        tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)))
        for _ in range(m)
    ]
    b = tuple(draw(st.integers(1, 20)) for _ in range(m))
    ident = draw(st.sampled_from(["", "fix-1", "a b"]))
    return Instance(sense, tuple(rows), b, instance_id=ident)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_serialize_parse_round_trip(inst):
    assert cli.parse_instance(serialize_instance(inst)) == inst


def run_fresh_closure(path, grid):
    # `closure PATH --grid GRID` in a new interpreter, so no memo is warm
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", RUN_CLI, "closure", str(path), "--grid", grid],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.fixture
def fixture_dir(tmp_path):
    (tmp_path / "pack23.txt").write_text(PACK23_TEXT)
    (tmp_path / "cover23.txt").write_text(COVER23_TEXT)
    (tmp_path / "coverfix.txt").write_text(COVERFIX_TEXT)
    return tmp_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHullCommand:
    def test_packing_golden(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys, "hull", str(fixture_dir / "pack23.txt"), "--lam", "1"
        )
        assert code == 0
        assert out == "1 0 >= 0\n0 1 >= 0\n1 2 <= 2\n"

    def test_covering_golden(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys, "hull", str(fixture_dir / "cover23.txt"), "--lam", "1"
        )
        assert code == 0
        assert out.endswith("1 1 >= 2\n")

    def test_two_columns(self, fixture_dir, capsys):
        path = fixture_dir / "two.txt"
        path.write_text("sense packing\nn 2\nm 2\nA\n2 3\n1 0\nb\n4 1\n")
        code, out, _ = run_cli(
            capsys, "hull", str(path), "--lam", "1 0", "--lam", "0 1"
        )
        assert code == 0
        assert out == "1 0 >= 0\n0 1 >= 0\n1 1 <= 1\n"

    @pytest.mark.parametrize(
        "text,golden",
        [
            (
                "sense packing\nn 2\nm 2\nA\n3 2\n2 5\nb\n9 10\n",
                "1 0 >= 0\n0 1 >= 0\n0 1 <= 2\n1 1 <= 3\n",
            ),
            (
                "sense covering\nn 2\nm 2\nA\n3 2\n2 5\nb\n9 10\n",
                "1 0 >= 0\n0 1 >= 0\n3 4 >= 12\n",
            ),
            ("sense packing\nn 1\nm 2\nA\n3\n2\nb\n9 10\n", "1 >= 0\n1 <= 3\n"),
        ],
        ids=["packing", "covering", "one-variable"],
    )
    def test_fractional_weights_golden(self, tmp_path, capsys, text, golden):
        path = tmp_path / "frac.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "hull", str(path), "--lam", "1/2 1/3")
        assert code == 0
        assert out == golden

    def test_trivial_aggregation(self, fixture_dir, capsys):
        code, _, err = run_cli(
            capsys, "hull", str(fixture_dir / "pack23.txt"), "--lam", "0"
        )
        assert code == 1
        assert "trivial aggregation" in err

    def test_weight_length_checked(self, fixture_dir, capsys):
        code, _, err = run_cli(
            capsys, "hull", str(fixture_dir / "pack23.txt"), "--lam", "1/2 1/2"
        )
        assert code == 1
        assert "length" in err

    def test_malformed_weight_is_usage_error(self, fixture_dir, capsys):
        code, _, err = run_cli(
            capsys,
            "hull", str(fixture_dir / "pack23.txt"), "--lam", "2/codegolf",
        )
        assert code == 1
        assert "malformed rational" in err

    def test_budget_exit_code(self, fixture_dir, capsys):
        # hull results are memoized per instance, so exercise the budget
        # guard on coefficients nothing else in the suite uses
        path = fixture_dir / "wide.txt"
        path.write_text("sense packing\nn 2\nm 1\nA\n7 11\nb\n937\n")
        code, _, err = run_cli(
            capsys, "hull", str(path), "--lam", "1", "--budget", "10"
        )
        assert code == 2
        assert "budget" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "hull", "/nonexistent/f.txt", "--lam", "1")
        assert code == 1
        assert "cannot read" in err

    def test_missing_flag_is_usage_error(self, fixture_dir, capsys):
        code, _, err = run_cli(capsys, "hull", str(fixture_dir / "pack23.txt"))
        assert code == 1
        assert "--lam" in err


class TestClosureCommand:
    def test_packing_golden(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys, "closure", str(fixture_dir / "pack23.txt"), "--grid", "2"
        )
        assert code == 0
        assert out == (
            "closure\n1 0 >= 0\n0 1 >= 0\n1 2 <= 2\n"
            "L\n1 0 >= 0\n0 1 >= 0\n0 1 <= 1\n1 0 <= 2\n"
            "K\n1 2 <= 2\n"
            "T_sample 1\nS 1\nsaturation true\n"
        )

    def test_covering_fixture_prints_gamma(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys, "closure", str(fixture_dir / "coverfix.txt"), "--grid", "3"
        )
        assert code == 0
        assert "gamma 4\n" in out
        assert "saturation true\n" in out

    def test_out_directory(self, fixture_dir, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code, out, _ = run_cli(
            capsys,
            "closure", str(fixture_dir / "pack23.txt"),
            "--grid", "2", "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "closure.txt").read_text() == out
        record = json.loads((out_dir / "closure.json").read_text())
        assert record["closure"] == ["1 0 >= 0", "0 1 >= 0", "1 2 <= 2"]
        assert record["saturation"] is True

    def test_kernel_budget_exit_code(self, fixture_dir, capsys):
        # every lattice box of pack4x3 at grid 4 fits in 792 cells, but one
        # of its double description runs tests 1,296 ray pairs
        path = fixture_dir / "pack4x3.txt"
        path.write_text(PACK4X3_TEXT)
        code, out, err = run_cli(
            capsys, "closure", str(path), "--grid", "4", "--budget", "1000"
        )
        assert code == 2 and out == ""
        assert "hrep_to_vrep double description of" in err
        assert "ray pairs exceeds budget 1000" in err

    def test_grid_budget_exit_code(self, fixture_dir, capsys):
        # five rows at grid 16 give 4,845 weights, so 11,739,435 pairs
        # at k = 2: over the default budget before any hull is built
        path = fixture_dir / "fine5.txt"
        path.write_text("sense packing\nn 1\nm 5\nA\n9\n2\n8\n3\n5\nb\n48 37 34 57 26\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "closure", str(path), "--grid", "16", "--k", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: grid walk of 11739435 aggregations exceeds budget 10000000\n"

    def test_pack4x3_golden_and_fast(self, fixture_dir):
        # a fresh process, so no memo is warm.  With subset enumeration in
        # the kernel this took 4.5 to 5.4 s on a 2-CPU host, and about
        # 0.6 s with double description
        path = fixture_dir / "pack4x3.txt"
        path.write_text(PACK4X3_TEXT)
        start = time.perf_counter()
        done = run_fresh_closure(path, "4")
        elapsed = time.perf_counter() - start
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == PACK4X3_G4_CLOSURE
        assert elapsed < 2.5

    def test_pack5x2_golden(self, fixture_dir):
        # the L recursion at n = 5, in a fresh process
        path = fixture_dir / "pack5x2.txt"
        path.write_text(PACK5X2_TEXT)
        done = run_fresh_closure(path, "8")
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == PACK5X2_G8_CLOSURE

    def test_identical_bytes_across_runs_and_threads(self, fixture_dir, capsys):
        argv = ["closure", str(fixture_dir / "coverfix.txt"), "--grid", "3"]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        threaded = run_cli(capsys, *argv, "--threads", "3")
        assert first == second == threaded


class TestSeparateCommand:
    def test_cut_golden(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "separate", str(fixture_dir / "pack23.txt"),
            "--point", "3/2 1/2", "--grid", "1",
        )
        assert code == 0
        assert out == "1 2 <= 2  violation 1/2  lambda 1\n"

    @pytest.mark.parametrize(
        "text,point,golden",
        [
            (
                "sense packing\nn 2\nm 2\nA\n1 2\n1 3\nb\n7 12\n",
                "8 3/2",
                "3 7 <= 24  violation 21/2  lambda 7/9 2/9\n",
            ),
            (
                "sense covering\nn 2\nm 2\nA\n2 4\n2 1\nb\n7 14\n",
                "1 0",
                "8 5 >= 55  violation 47  lambda 3/40 37/40\n",
            ),
        ],
        ids=["packing", "covering"],
    )
    def test_refined_witness_golden(self, tmp_path, capsys, text, point, golden):
        # the winning weights lie off the grid of halves: refinement found them
        path = tmp_path / "refine.txt"
        path.write_text(text)
        code, out, _ = run_cli(
            capsys, "separate", str(path), "--point", point,
            "--grid", "2", "--refine", "2",
        )
        assert code == 0
        assert out == golden

    def test_inside_golden(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys, "separate", str(fixture_dir / "pack23.txt"), "--point", "0 0"
        )
        assert code == 0
        assert out == "inside\n"

    def test_integral_interior_point(self, fixture_dir, capsys):
        path = fixture_dir / "lpint.txt"
        path.write_text("sense packing\nn 2\nm 1\nA\n2 3\nb\n6\n")
        code, out, _ = run_cli(
            capsys, "separate", str(path), "--point", "1/2 1/2"
        )
        assert code == 0
        assert out == "inside\n"

    def test_negative_point_rejected(self, fixture_dir, capsys):
        code, _, err = run_cli(
            capsys, "separate", str(fixture_dir / "pack23.txt"), "--point", "-1 0"
        )
        assert code == 1
        assert "nonnegative" in err


class TestVerifyCommand:
    def test_fixture_directory(self, fixture_dir, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code, out, _ = run_cli(
            capsys,
            "verify", str(fixture_dir), "--grid", "2", "--out", str(out_dir),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "summary pass=11 fail=0 skipped=0"
        tsv = (out_dir / "suite.tsv").read_text()
        assert tsv == "\n".join(lines[:-1]) + "\n"
        data = json.loads((out_dir / "suite.json").read_text())
        assert len(data) == len(lines) - 1

    def test_empty_directory(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "verify", str(tmp_path))
        assert code == 0
        assert out == "summary pass=0 fail=0 skipped=0\n"

    def test_malformed_file_skipped(self, fixture_dir, capsys):
        (fixture_dir / "broken.txt").write_text("sense covering\nn 2\nm 1\nA\n0 0\nb\n4\n")
        code, out, _ = run_cli(capsys, "verify", str(fixture_dir), "--grid", "2")
        assert code == 0
        assert "parse\tbroken\tskipped" in out
        assert "zero row infeasible for covering" in out

    def test_not_a_directory(self, fixture_dir, capsys):
        code, _, err = run_cli(capsys, "verify", str(fixture_dir / "pack23.txt"))
        assert code == 1
        assert "not a directory" in err

    def test_failure_exit_code(self, fixture_dir, capsys, monkeypatch):
        bad = CheckReport(
            "sandwich", "x", FAIL,
            witness_inequality=make_inequality((1, 0), 0, LE),
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [bad, bad])
        code, out, _ = run_cli(capsys, "verify", str(fixture_dir))
        assert code == 4
        assert "summary pass=0 fail=2 skipped=0" in out

    def test_timings_set_only_timing_ms(self, fixture_dir, tmp_path, capsys, monkeypatch):
        class Clock:
            # every reading is 0.25 s after the one before
            now = 0.0

            def perf_counter(self):
                self.now += 0.25
                return self.now

        argv = ["verify", str(fixture_dir), "--grid", "2", "--out"]
        assert run_cli(capsys, *argv, str(tmp_path / "plain"))[0] == 0
        monkeypatch.setattr(verify, "time", Clock())
        code, out, _ = run_cli(capsys, *argv, str(tmp_path / "timed"), "--timings")
        assert code == 0
        plain = json.loads((tmp_path / "plain" / "suite.json").read_text())
        timed = json.loads((tmp_path / "timed" / "suite.json").read_text())
        assert len(timed) == len(plain) == 11
        for a, b in zip(plain, timed):
            assert a["timing_ms"] == 0 and b["timing_ms"] == 250
            assert {**b, "timing_ms": 0} == a
        assert all(line.split("\t")[4] == "250" for line in out.splitlines()[:-1])

    def test_identical_bytes_across_runs_and_threads(self, fixture_dir, capsys):
        argv = ["verify", str(fixture_dir), "--grid", "2"]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        threaded = run_cli(capsys, *argv, "--threads", "2")
        assert first == second == threaded


@pytest.mark.parametrize(
    "command, flag",
    [
        ("closure", "--threads"),
        ("closure", "--budget"),
        ("separate", "--threads"),
        ("separate", "--budget"),
        ("verify", "--threads"),
        ("verify", "--budget"),
        ("hull", "--budget"),
    ],
)
@pytest.mark.parametrize("value", ["0", "-1", "-3"])
def test_nonpositive_numeric_flag_is_usage_error(
    fixture_dir, capsys, command, flag, value
):
    pack = str(fixture_dir / "pack23.txt")
    base = {
        "closure": [pack, "--grid", "2"],
        "separate": [pack, "--point", "3/2 1/2"],
        "verify": [str(fixture_dir), "--grid", "2"],
        "hull": [pack, "--lam", "1"],
    }[command]
    code, out, err = run_cli(capsys, command, *base, flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "positive integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["closure"],
        ["closure", "f", "--grid"],
        ["closure", "f", "--grid", "two"],
        ["closure", "f", "g"],
        ["closure", "f", "--bogus"],
        ["closure", "f", "--point", "1"],
        ["verify", "d", "--t"],
        ["verify", "d", "--timings=yes"],
        ["hull", "f"],
        ["separate", "f"],
    ],
)
def test_parse_failure_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]])
def test_top_level_help(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    for command in ("hull", "closure", "separate", "verify"):
        assert command in out


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_names_every_flag(capsys, command, flag):
    code, out, err = run_cli(capsys, command, flag)
    assert (code, err) == (0, "")
    _, _, (positional, _), flags, _ = cli.COMMANDS[command]
    assert positional.upper() in out
    for name in flags:
        assert name in out


# Differential test of `cli.parse_args` against the argparse parser it
# replaced.  Values never look like flags and a flag with no value comes
# last: there argparse reports a missing value, while `parse_args` takes
# the next token whatever it is.
POSITIVE = st.integers(1, 40).map(str)
INT_VALUES = st.one_of(
    POSITIVE,
    POSITIVE,
    POSITIVE,
    st.integers(-3, 0).map(str),
    st.sampled_from(["abc", "1.5", "", " 7 ", "+3", "0x10", "1/2"]),
)
TEXT_VALUES = st.sampled_from(["1/2 1/2", "-1 0", "3", "1", "x", "2/3", "out dir", "a=b", ""])
POSITIONALS = st.sampled_from(["f.txt", "inst", "dir/x", "-1", "-.5", "-1 0", "-", "a=b"])


def _prefixes(flag, flags):
    names = (*flags, "--help")
    return [
        flag[:i]
        for i in range(3, len(flag))
        if [f for f in names if f.startswith(flag[:i])] == [flag]
    ]


def _ambiguous(flags):
    names = (*flags, "--help")
    return [
        f[:i]
        for f in names
        for i in range(3, len(f))
        if len([g for g in names if g.startswith(f[:i])]) > 1
    ]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, _, flags, _ = cli.COMMANDS[command]
    groups = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
        groups.append([draw(POSITIONALS)])
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=6)):
        name = draw(st.sampled_from([flag, flag, *_prefixes(flag, flags)]))
        convert = flags[flag][1]
        if convert is None:
            groups.append([name])
            continue
        value = draw(TEXT_VALUES if convert is str else INT_VALUES)
        groups.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    unknown = [f for f in ("--bogus", "-x", "--point", "--lam", "--timings") if f not in flags]
    stray = draw(st.sampled_from([None] * 12 + unknown + _ambiguous(flags)))
    if stray is not None:
        groups.append([stray])
    if stray not in _ambiguous(flags) and draw(st.integers(0, 9)) == 0:
        groups.append([draw(st.sampled_from(["--help", "-h", "--he"]))])
    argv = [command] + [t for group in draw(st.permutations(groups)) for t in group]
    takes_value = sorted(f for f in flags if flags[f][1] is not None)
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(takes_value)))
    return argv


def _parse_outcome(parse, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = parse(argv)
    except UsageError:
        return "usage error"
    except SystemExit as exc:  # argparse's help action
        return ("help", exc.code)
    if args.func is cli._print_help:
        return ("help", 0)
    return vars(args)


ORACLE_PARSER = build_parser()


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["separate", "f.txt", "--point", "-1 0"])
@example(["closure", "f.txt", "--grid=2"])
@example(["closure", "--grid", "2", "--", "f.txt"])
@example(["hull", "f.txt", "--lam", "1", "--la=1/2 1/2", "--budget", "9"])
@example(["verify", "d", "--ti", "--t", "2"])
@example(["closure", "--gr", "3", "f.txt", "--r=2", "--k", "-1"])
@example([])
@example(["bogus", "f.txt"])
@example(["-h"])
def test_parse_args_matches_argparse(argv):
    assert _parse_outcome(cli.parse_args, argv) == _parse_outcome(
        ORACLE_PARSER.parse_args, argv
    )
