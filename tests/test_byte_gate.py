"""The byte gate: `closure` stdout on the named baseline instances.

Each run goes through `cli.main` in process, with every cache cleared,
and its stdout must equal the golden file in ``tests/golden`` byte for
byte.  The instances are the ROADMAP's:
pack5x3 and pack6x3 take the first 5 and 6 columns of
``(3 2 4 1 2 3 / 2 5 1 3 1 2 / 4 1 3 2 5 1)``, ``b = (9 10 8)``;
pack6x2 and pack7x2 the first 6 and 7 of
``(3 2 4 1 2 3 5 2 / 2 5 1 3 1 2 4 3)``, ``b = (9 10)``; pack3x3 is
``(3 2 4 / 2 5 1 / 4 1 3)``, ``b = (9 10 8)``; cover3big is the
covering instance ``(1 1 1 / 2 1 3)``, ``b = (150 100)``.  No
wall-clock bound is asserted.
"""

from pathlib import Path

import pytest

from aggclosure import cli
from conftest import clear_caches

GOLDEN = Path(__file__).resolve().parent / "golden"
ROWS3 = ((3, 2, 4, 1, 2, 3), (2, 5, 1, 3, 1, 2), (4, 1, 3, 2, 5, 1))
ROWS2 = ((3, 2, 4, 1, 2, 3, 5, 2), (2, 5, 1, 3, 1, 2, 4, 3))


def _text(sense, rows, rhs):
    lines = [f"sense {sense}", f"n {len(rows[0])}", f"m {len(rows)}", "A"]
    lines += [" ".join(map(str, row)) for row in rows]
    lines += ["b", " ".join(map(str, rhs))]
    return "\n".join(lines) + "\n"


def _packing(rows, n, rhs):
    return _text("packing", [row[:n] for row in rows], rhs)


CASES = {
    "closure_pack5x3_g4": (_packing(ROWS3, 5, (9, 10, 8)), ["--grid", "4"]),
    "closure_pack6x2_g4": (_packing(ROWS2, 6, (9, 10)), ["--grid", "4"]),
    "closure_pack6x3_g4": (_packing(ROWS3, 6, (9, 10, 8)), ["--grid", "4"]),
    "closure_pack7x2_g4": (_packing(ROWS2, 7, (9, 10)), ["--grid", "4"]),
    "closure_pack3x3_g8_k2": (
        _text("packing", ((3, 2, 4), (2, 5, 1), (4, 1, 3)), (9, 10, 8)),
        ["--grid", "8", "--k", "2"],
    ),
    "closure_cover3big_g4": (
        _text("covering", ((1, 1, 1), (2, 1, 3)), (150, 100)),
        ["--grid", "4"],
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_closure_stdout_matches_golden(name, tmp_path, capsys):
    clear_caches()
    text, flags = CASES[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    code = cli.main(["closure", str(path), *flags])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"{name}.txt").read_text()
