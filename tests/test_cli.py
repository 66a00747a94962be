"""Instance file format and command-line behavior."""

import contextlib
import io
import json
import os
import re
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
from aggclosure.polyhedra import LE, LinearInequality
from conftest import clear_caches
from oracles import build_parser, serialize_instance

PACK23_TEXT = "sense packing\nn 2\nm 1\nA\n2 3\nb\n4\n"
COVER23_TEXT = "sense covering\nn 2\nm 1\nA\n2 3\nb\n4\n"
COVERFIX_TEXT = "sense covering\nn 2\nm 2\nA\n2 0\n1 3\nb\n3 4\n"
PACK3X3_TEXT = "sense packing\nn 3\nm 3\nA\n3 2 4\n2 5 1\n4 1 3\nb\n9 10 8\n"
PACK4X3_TEXT = "sense packing\nn 4\nm 3\nA\n3 2 4 1\n2 5 1 3\n4 1 3 2\nb\n9 10 8\n"
PACK5X2_TEXT = "sense packing\nn 5\nm 2\nA\n3 2 4 1 2\n2 5 1 3 1\nb\n9 10\n"
# bytes that are not UTF-8
BINARY = b"\xff\xfe\x00"
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

    def test_tab_in_id_rejected(self):
        # a tab in the id would shift every column of a report line
        with pytest.raises(UsageError, match="line 2: instance id must not contain a tab"):
            cli.parse_instance("\nid my inst\tx\n" + PACK23_TEXT)

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
    # `closure PATH --grid GRID` in a new interpreter, so no cache is warm
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


@pytest.mark.parametrize(
    "argv",
    [["hull", "--lam", "1"], ["closure"], ["separate", "--point", "0 0"]],
    ids=["hull", "closure", "separate"],
)
def test_binary_file_is_usage_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(BINARY)
    code, out, err = run_cli(capsys, argv[0], str(bad), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")


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
        # hulls are cached per budget, so the budget guard trips here
        # whatever the suite built before
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

    def test_out_on_an_existing_file_is_usage_error(self, fixture_dir, capsys):
        out = fixture_dir / "cover23.txt"
        code, stdout, err = run_cli(
            capsys, "closure", str(fixture_dir / "pack23.txt"), "--grid", "2", "--out", str(out)
        )
        assert code == 1
        assert stdout.startswith("closure\n")
        assert err == f"error: cannot write {out}: [Errno 17] File exists: '{out}'\n"

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
        # every lattice box of pack4x3 at grid 4 fits in 792 cells, but the
        # one double description run of the top-level closure tests 1,292
        # ray pairs and passes the budget at 1,025
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
        path = fixture_dir / "fine5x2.txt"
        path.write_text(
            "sense packing\nn 2\nm 5\nA\n9 4\n2 7\n8 3\n3 5\n5 6\nb\n48 37 34 57 26\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "closure", str(path), "--grid", "16", "--k", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: grid walk of 11739435 aggregations exceeds budget 10000000\n"

    def test_refine_is_rejected(self, fixture_dir, capsys):
        # only separation refines, so `closure` takes no --refine
        path = fixture_dir / "pack3x3.txt"
        path.write_text(PACK3X3_TEXT)
        for rounds in ("0", "1", "3"):
            code, out, err = run_cli(capsys, "closure", str(path), "--grid", "2", "--refine", rounds)
            assert (code, out) == (1, "")
            assert err == f"error: unrecognized arguments: --refine {rounds}\n"

    def test_one_variable_grid_is_not_walked(self, fixture_dir, capsys):
        # the same grid in one variable is the closed form, read off the
        # rows with no walk, so the grid's size is never charged
        path = fixture_dir / "fine5.txt"
        path.write_text("sense packing\nn 1\nm 5\nA\n9\n2\n8\n3\n5\nb\n48 37 34 57 26\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "closure", str(path), "--grid", "16", "--k", "2")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == (
            "closure\n1 >= 0\n1 <= 4\nL\n1 >= 0\n1 <= 4\nK\n"
            "T_sample 0\nS 0\nsaturation true\n"
        )

    def test_pack4x3_golden_and_fast(self, fixture_dir):
        # a fresh process, so no cache is warm.  With subset enumeration in
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

    def test_refinement_budget_exit_code(self, fixture_dir, capsys):
        # 15 rows give 3^15 - 1 weights a round, counted before the first;
        # in one variable the grid's cut is final and nothing is refined
        a = [2, 3, 4, 5, 6] * 3
        b = " ".join(str(v) for v in range(20, 63, 3))
        two = fixture_dir / "rows15x2.txt"
        two.write_text(
            "sense packing\nn 2\nm 15\nA\n"
            + "".join(f"{v} {v + 1}\n" for v in a)
            + f"b\n{b}\n"
        )
        one = fixture_dir / "rows15.txt"
        one.write_text(
            "sense packing\nn 1\nm 15\nA\n" + "".join(f"{v}\n" for v in a) + f"b\n{b}\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "separate", str(two), "--point", "9 0", "--grid", "1")
        assert code == 2 and out == ""
        assert err == (
            "error: separation refinement of 14348906 aggregations exceeds budget 10000000\n"
        )
        code, out, err = run_cli(capsys, "separate", str(one), "--point", "9", "--grid", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == "1 <= 5  violation 4  lambda 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0\n"

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

    def test_one_variable_gamma_walks_no_grid(self, tmp_path, capsys):
        # at grid 16 and k = 2 the grid walk is over the default budget
        (tmp_path / "cover5.txt").write_text(
            "sense covering\nn 1\nm 5\nA\n9\n2\n8\n3\n5\nb\n48 37 34 57 26\n"
        )
        code, out, err = run_cli(capsys, "verify", str(tmp_path), "--grid", "16", "--k", "2")
        assert (code, err) == (0, "")
        assert out == (
            "sandwich\tcover5\tpass\t-\t0\tsaturation=true\n"
            "gamma\tcover5\tpass\t-\t0\tgamma=19\n"
            "onerow_ratio\tcover5\tpass\t-\t0\tratio=1\n"
            "summary pass=3 fail=0 skipped=0\n"
        )

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_zero_cut_hull_over_budget_is_not_built(self, tmp_path, capsys, k):
        # at grid 4 the weights (1, 3), (2, 2) and (3, 1) round to zero
        # cuts, whose hulls walk 10000004 or more values of x1, over the
        # default budget; the rounding check builds only the hulls of the
        # nonzero cuts of (4, 0) and (0, 4), which walk 1 and 4 values
        clear_caches()
        (tmp_path / "big.txt").write_text(
            "sense packing\nn 2\nm 2\nA\n0 1\n1 0\nb\n30000000 3\n"
        )
        code, out, err = run_cli(capsys, "verify", str(tmp_path), "--k", k)
        assert (code, err) == (0, "")
        skip = "skipped\t-\t0\tenumeration box of 10000004+ cells exceeds budget 10000000"
        assert out == (
            f"sandwich\tbig\t{skip}\n"
            "cg_dominance\tbig\tpass\t-\t0\n"
            f"onerow_ratio\tbig\t{skip}\n"
            "summary pass=1 fail=0 skipped=2\n"
        )

    def test_packbox_rounding_check_passes_under_a_small_budget(
        self, tmp_path, capsys
    ):
        # the zero cut of weights (1, 3) walks 12 values of x1
        clear_caches()
        (tmp_path / "packbox.txt").write_text("sense packing\nn 2\nm 2\nA\n1 0\n0 1\nb\n2 3\n")
        code, out, err = run_cli(capsys, "verify", str(tmp_path), "--budget", "10")
        assert (code, err) == (0, "")
        skip = "skipped\t-\t0\tenumeration box of 12+ cells exceeds budget 10"
        assert out == (
            f"sandwich\tpackbox\t{skip}\n"
            "cg_dominance\tpackbox\tpass\t-\t0\n"
            f"onerow_ratio\tpackbox\t{skip}\n"
            "summary pass=1 fail=0 skipped=2\n"
        )

    def test_unwritable_out_is_usage_error(self, fixture_dir, capsys):
        # a file where the report directory's parent should be
        out = fixture_dir / "pack23.txt" / "sub"
        code, stdout, err = run_cli(
            capsys, "verify", str(fixture_dir), "--grid", "2", "--out", str(out)
        )
        assert code == 1
        assert stdout.endswith("summary pass=11 fail=0 skipped=0\n")
        assert err == f"error: cannot write {out}: [Errno 20] Not a directory: '{out}'\n"

    def test_malformed_file_skipped(self, fixture_dir, capsys):
        (fixture_dir / "broken.txt").write_text("sense covering\nn 2\nm 1\nA\n0 0\nb\n4\n")
        code, out, _ = run_cli(capsys, "verify", str(fixture_dir), "--grid", "2")
        assert code == 0
        assert "parse\tbroken\tskipped" in out
        assert "zero row infeasible for covering" in out

    def test_tab_in_id_skipped_with_its_line(self, tmp_path, capsys):
        (tmp_path / "tabbed.txt").write_text("id my inst\tx\n" + PACK23_TEXT)
        code, out, _ = run_cli(capsys, "verify", str(tmp_path), "--grid", "2")
        assert code == 0
        assert out == (
            "parse\ttabbed\tskipped\t-\t0\tline 1: instance id must not contain a tab\n"
            "summary pass=0 fail=0 skipped=1\n"
        )

    def test_tab_or_line_break_in_stem_skipped(self, tmp_path, capsys):
        # a default id from such a stem would split a report line, and a
        # `parse` line writes the stem with escapes
        (tmp_path / "my\tfile.txt").write_text(PACK23_TEXT)
        (tmp_path / "bad\tstem.txt").write_text("nonsense\n")
        (tmp_path / "line\nbreak.txt").write_text(PACK23_TEXT)
        (tmp_path / "with\tid.txt").write_text("id named\n" + PACK23_TEXT)
        # a form feed is a line boundary of `str.splitlines`, and a note
        # echoes its line with the tab inside
        (tmp_path / "p\x0cq.txt").write_text(PACK23_TEXT)
        (tmp_path / "tabnote.txt").write_text(PACK23_TEXT.replace("A\n", "A\tx\n"))
        code, out, _ = run_cli(capsys, "verify", str(tmp_path), "--grid", "2")
        assert code == 0
        assert out == (
            "parse\tbad\\tstem\tskipped\t-\t0\tline 1: expected 'sense', got 'nonsense'\n"
            "parse\tline\\nbreak\tskipped\t-\t0\tinstance id must not contain a line break\n"
            "parse\tmy\\tfile\tskipped\t-\t0\tinstance id must not contain a tab\n"
            "parse\tp\\x0cq\tskipped\t-\t0\tinstance id must not contain a line break\n"
            "parse\ttabnote\tskipped\t-\t0\tline 4: expected 'A', got 'A\\tx'\n"
            "oracle_m1\tnamed\tpass\t-\t0\n"
            "sandwich\tnamed\tpass\t-\t0\tsaturation=true\n"
            "cg_dominance\tnamed\tpass\t-\t0\n"
            "onerow_ratio\tnamed\tpass\t-\t0\tratio=1\n"
            "summary pass=4 fail=0 skipped=5\n"
        )
        assert len(out.splitlines()) == 10

    def test_binary_file_skipped(self, tmp_path, capsys):
        # a stray binary file, such as a Finder `.DS_Store`, is not UTF-8
        bad = tmp_path / ".DS_Store"
        bad.write_bytes(BINARY)
        (tmp_path / "pack23.txt").write_text(PACK23_TEXT)
        code, out, err = run_cli(capsys, "verify", str(tmp_path), "--grid", "2")
        assert (code, err) == (0, "")
        assert out == (
            f"parse\t.DS_Store\tskipped\t-\t0\tcannot read {bad}: 'utf-8' codec"
            " can't decode byte 0xff in position 0: invalid start byte\n"
            "oracle_m1\tpack23\tpass\t-\t0\n"
            "sandwich\tpack23\tpass\t-\t0\tsaturation=true\n"
            "cg_dominance\tpack23\tpass\t-\t0\n"
            "onerow_ratio\tpack23\tpass\t-\t0\tratio=1\n"
            "summary pass=4 fail=0 skipped=1\n"
        )

    def test_unreadable_file_skipped(self, fixture_dir, capsys, monkeypatch):
        # every file is readable to root, so the refusal is patched in
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_text", refuse)
        code, out, _ = run_cli(capsys, "verify", str(fixture_dir))
        assert code == 0
        assert out == "".join(
            f"parse\t{stem}\tskipped\t-\t0\tcannot read {fixture_dir / stem}.txt:"
            f" [Errno 13] Permission denied: '{fixture_dir / stem}.txt'\n"
            for stem in ("cover23", "coverfix", "pack23")
        ) + "summary pass=0 fail=0 skipped=3\n"

    def test_not_a_directory(self, fixture_dir, capsys):
        code, _, err = run_cli(capsys, "verify", str(fixture_dir / "pack23.txt"))
        assert code == 1
        assert "not a directory" in err

    def test_failure_exit_code(self, fixture_dir, capsys, monkeypatch):
        bad = CheckReport(
            "sandwich", "x", FAIL,
            witness_inequality=LinearInequality((1, 0), 0, LE),
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


def test_readme_lists_each_commands_flags():
    # the README's per-command flag lines follow the `COMMANDS` table
    readme = (SRC.parent / "README.md").read_text()
    listed = {
        command: set(re.findall(r"`(--[a-z-]+)`", flags))
        for command, flags in re.findall(r"^- `([a-z]+)`: (.*)$", readme, re.MULTILINE)
    }
    assert listed == {command: set(spec[3]) for command, spec in cli.COMMANDS.items()}


# Differential test of `cli.parse_args` against the argparse parser it
# replaced.  Values never look like flags and a flag with no value comes
# last: there argparse reports a missing value, while `parse_args` takes
# the next token whatever it is.  For the same reason a `--` never follows
# a flag that takes a value.
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
    groups = draw(st.permutations(groups))
    # a -- between groups, never between a flag and its value
    if draw(st.integers(0, 3)) == 0:
        groups.insert(draw(st.integers(0, len(groups))), ["--"])
    argv = [command] + [t for group in groups for t in group]
    takes_value = sorted(f for f in flags if flags[f][1] is not None)
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(takes_value)))
    return argv


def _parse_outcome(parse, argv):
    # the message of an unrecognized-arguments error is compared too
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = parse(argv)
    except UsageError as exc:
        unrecognized = str(exc).startswith("unrecognized arguments:")
        return ("usage error", str(exc) if unrecognized else None)
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


@pytest.mark.parametrize(
    "argv,extras",
    [
        ("separate f --grid 16 --k 2 --point 7/2", "--k 2"),
        ("closure f --bogus x y", "--bogus x y"),
        ("closure f --grid 4 stray --zap 3", "stray --zap 3"),
        ("closure --bogus 1 f", "--bogus f"),
        ("separate f extra --bogus --point 1", "extra --bogus"),
    ],
)
def test_extras_are_reported_in_command_line_order(argv, extras):
    message = f"unrecognized arguments: {extras}"
    for parse in (cli.parse_args, ORACLE_PARSER.parse_args):
        with pytest.raises(UsageError) as err:
            parse(argv.split())
        assert str(err.value) == message


@pytest.mark.parametrize(
    "argv,extras",
    [
        ("closure f --grid 4 --", "--"),
        ("verify d --timings --", "--"),
        ("closure f x --bogus -- y", "x --bogus -- y"),
        ("closure x --bogus --", "--bogus --"),
        ("closure f x -- --bogus", "x -- --bogus"),
        ("separate f --point 1 -- x", "-- x"),
        ("closure f -- x", "x"),
        ("closure -- f x", "x"),
        ("closure f --", None),
    ],
)
def test_double_dash_is_dropped_only_next_to_the_positional(argv, extras):
    # argparse reads a -- with the command's positional, just before or
    # just after it; any other -- is an unrecognized argument
    for parse in (cli.parse_args, ORACLE_PARSER.parse_args):
        if extras is None:
            assert parse(argv.split()).instance == "f"
            continue
        with pytest.raises(UsageError) as err:
            parse(argv.split())
        assert str(err.value) == f"unrecognized arguments: {extras}"
