"""Command-line interface and the plain-text instance file format.

Commands: ``hull`` prints the integer hull of an aggregated relaxation,
``closure`` prints the closure construction artifacts, ``separate``
looks for a violated sampled cut at a point, ``verify`` runs the check
suite over a directory of instance files.

Exit codes: 0 success, 1 usage or parse error, 2 resource budget
exceeded; ``verify`` exits with 2 plus the failure count (capped at
125) when any check fails.

All output is deterministic for fixed inputs and flags, so command
output can be used as golden files.  ``--threads N`` is accepted for
compatibility and must be at least 1, but all work runs on one thread:
the hull computations are pure Python and hold the GIL, and a thread
pool made ``closure pack3x3.txt --grid 8`` slower on two CPUs (1.23 to
1.32 s at one thread, 1.50 to 1.55 s at two).  ``--budget`` must be at
least 1 as well.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .closure import SampleScheme, aggregation_closure, saturated, separate
from .errors import ResourceBudgetError, UsageError
from .knapsack import (
    COVERING,
    DEFAULT_CELL_BUDGET,
    Instance,
    PACKING,
    build_relaxation,
    integer_hull,
)
from .rational import format_rat, parse_rat
from .verify import SKIPPED, CheckReport, failures, run_suite, suite_json, suite_lines


def parse_instance(text: str, default_id: str = "") -> Instance:
    """Parse the line-oriented instance format.

    Layout: an optional ``id NAME`` line, then ``sense packing`` or
    ``sense covering``, ``n <int>``, ``m <int>``, a line ``A`` followed
    by m rows of n integers, and a line ``b`` followed by one line of m
    integers.  Blank lines are ignored.  Errors carry the offending
    line (and token column where it applies).
    """
    physical = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(physical) if ln.strip()]
    pos = 0

    def take(what: str):
        nonlocal pos
        if pos >= len(rows):
            raise UsageError(f"line {len(physical) + 1}: missing {what}")
        item = rows[pos]
        pos += 1
        return item

    def keyword_line(key: str, what: str):
        no, ln = take(what)
        parts = ln.split()
        if parts[0] != key:
            raise UsageError(f"line {no}: expected '{key}', got '{parts[0]}'")
        if len(parts) != 2:
            raise UsageError(f"line {no}: expected '{key} <value>'")
        return no, parts[1]

    def int_token(no: int, col: int, tok: str, what: str) -> int:
        try:
            return int(tok, 10)
        except ValueError:
            raise UsageError(
                f"line {no}, column {col}: expected integer for {what}, got '{tok}'"
            ) from None

    instance_id = default_id
    no, ln = take("sense line")
    if ln.split()[0] == "id":
        parts = ln.split(maxsplit=1)
        if len(parts) != 2:
            raise UsageError(f"line {no}: expected 'id <name>'")
        instance_id = parts[1]
        no, value = keyword_line("sense", "sense line")
    else:
        pos -= 1
        no, value = keyword_line("sense", "sense line")
    if value not in (PACKING, COVERING):
        raise UsageError(f"line {no}: unknown sense '{value}'")
    sense = value

    no, value = keyword_line("n", "variable count")
    n = int_token(no, 2, value, "n")
    if n < 1:
        raise UsageError(f"line {no}: n must be at least 1")
    no, value = keyword_line("m", "row count")
    m = int_token(no, 2, value, "m")
    if m < 1:
        raise UsageError(f"line {no}: m must be at least 1")

    no, ln = take("matrix marker 'A'")
    if ln != "A":
        raise UsageError(f"line {no}: expected 'A', got '{ln}'")
    A = []
    for _ in range(m):
        no, ln = take("matrix row")
        toks = ln.split()
        if len(toks) != n:
            raise UsageError(f"line {no}: expected {n} entries, got {len(toks)}")
        row = []
        for c, tok in enumerate(toks, start=1):
            entry = int_token(no, c, tok, "matrix entry")
            if entry < 0:
                raise UsageError(
                    f"line {no}, column {c}: matrix entries must be nonnegative integers"
                )
            row.append(entry)
        if sense == COVERING and not any(row):
            raise UsageError(f"line {no}: zero row infeasible for covering")
        A.append(tuple(row))

    no, ln = take("rhs marker 'b'")
    if ln != "b":
        raise UsageError(f"line {no}: expected 'b', got '{ln}'")
    no, ln = take("rhs row")
    toks = ln.split()
    if len(toks) != m:
        raise UsageError(f"line {no}: expected {m} entries, got {len(toks)}")
    b = []
    for c, tok in enumerate(toks, start=1):
        entry = int_token(no, c, tok, "rhs entry")
        if entry <= 0:
            raise UsageError(f"line {no}, column {c}: rhs must be positive")
        b.append(entry)

    if pos < len(rows):
        no, ln = rows[pos]
        raise UsageError(f"line {no}: unexpected trailing content '{ln}'")
    return Instance(sense, tuple(A), tuple(b), instance_id=instance_id)


def serialize_instance(inst: Instance) -> str:
    lines = []
    if inst.instance_id:
        lines.append(f"id {inst.instance_id}")
    lines.append(f"sense {inst.sense}")
    lines.append(f"n {inst.n}")
    lines.append(f"m {inst.m}")
    lines.append("A")
    for row in inst.A:
        lines.append(" ".join(str(e) for e in row))
    lines.append("b")
    lines.append(" ".join(str(e) for e in inst.b))
    return "\n".join(lines) + "\n"


def _read_instance(path: str) -> Instance:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return parse_instance(text, default_id=p.stem)


def _parse_weights(value: str) -> tuple:
    try:
        return tuple(parse_rat(tok) for tok in value.split())
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scheme(args) -> SampleScheme:
    return SampleScheme(
        grid_denominator=args.grid,
        k=getattr(args, "k", 1),
        refinement_rounds=getattr(args, "refine", 1),
    )


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _render_lambda(agg) -> str:
    return "; ".join(
        " ".join(format_rat(w) for w in col) for col in agg.weights
    )


def cmd_hull(args) -> int:
    inst = _read_instance(args.instance)
    columns = [_parse_weights(v) for v in args.lam]
    hull = integer_hull(build_relaxation(inst, columns), args.budget)
    _emit(hull.render_lines())
    return 0


def cmd_closure(args) -> int:
    inst = _read_instance(args.instance)
    art = aggregation_closure(inst, _scheme(args), budget=args.budget)
    is_saturated = saturated(art, args.budget)

    lines = ["closure"]
    lines += art.closure.render_lines()
    lines.append("L")
    lines += art.L.render_lines()
    lines.append("K")
    lines += art.K.render_lines()
    lines.append(f"T_sample {len(art.T_sample)}")
    lines.append(f"S {len(art.S)}")
    if inst.sense == COVERING and art.gamma is not None:
        lines.append(f"gamma {art.gamma}")
    lines.append(f"saturation {'true' if is_saturated else 'false'}")
    _emit(lines)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "closure.txt").write_text("\n".join(lines) + "\n")
        record = {
            "instance": inst.instance_id,
            "closure": art.closure.render_lines(),
            "L": art.L.render_lines(),
            "K": art.K.render_lines(),
            "T_sample": len(art.T_sample),
            "S": len(art.S),
            "gamma": art.gamma,
            "saturation": is_saturated,
        }
        (out / "closure.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


def cmd_separate(args) -> int:
    inst = _read_instance(args.instance)
    point = _parse_weights(args.point)
    res = separate(inst, _scheme(args), point, budget=args.budget)
    if res.inside:
        _emit(["inside"])
    else:
        _emit(
            [
                f"{res.cut.render()}  violation {format_rat(res.violation)}"
                f"  lambda {_render_lambda(res.witness)}"
            ]
        )
    return 0


def cmd_verify(args) -> int:
    root = Path(args.instances)
    if not root.is_dir():
        raise UsageError(f"not a directory: {args.instances}")
    reports = []
    instances = []
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        try:
            instances.append(parse_instance(path.read_text(), default_id=path.stem))
        except (OSError, UsageError) as exc:
            reports.append(
                CheckReport("parse", path.stem, SKIPPED, note=str(exc))
            )
    reports += run_suite(
        instances,
        _scheme(args),
        budget=args.budget,
        timings=args.timings,
    )
    lines = suite_lines(reports)
    tally = {"pass": 0, "fail": 0, "skipped": 0}
    for rep in reports:
        tally[rep.status] += 1
    summary = (
        f"summary pass={tally['pass']} fail={tally['fail']}"
        f" skipped={tally['skipped']}"
    )
    _emit(lines + [summary])

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "suite.tsv").write_text("\n".join(lines) + "\n" if lines else "")
        (out / "suite.json").write_text(suite_json(reports) + "\n")

    failed = failures(reports)
    return 0 if failed == 0 else min(2 + failed, 125)


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got '{text}'")
    return value


def _add_common(sub, k_flag=True, refine_flag=True, out_flag=False):
    sub.add_argument("--grid", type=int, default=4, help="grid denominator D")
    if k_flag:
        sub.add_argument("--k", type=int, default=1, help="columns per aggregation")
    if refine_flag:
        sub.add_argument("--refine", type=int, default=1, help="refinement rounds")
    sub.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_CELL_BUDGET,
        help="work budget per enumeration: lattice cells, or ray pairs of one kernel run",
    )
    sub.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; all work runs on one thread",
    )
    if out_flag:
        sub.add_argument("--out", default="", help="directory for report files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aggclosure", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    hull = subs.add_parser("hull", help="integer hull of an aggregated relaxation")
    hull.add_argument("instance", help="instance file")
    hull.add_argument(
        "--lam",
        action="append",
        required=True,
        help="aggregation weights, e.g. --lam '1/2 1/2'; repeat for more columns",
    )
    hull.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_CELL_BUDGET,
        help="work budget per enumeration: lattice cells, or ray pairs of one kernel run",
    )
    hull.set_defaults(func=cmd_hull)

    closure = subs.add_parser("closure", help="closure construction artifacts")
    closure.add_argument("instance", help="instance file")
    _add_common(closure, out_flag=True)
    closure.set_defaults(func=cmd_closure)

    sep = subs.add_parser("separate", help="find a violated sampled cut")
    sep.add_argument("instance", help="instance file")
    sep.add_argument("--point", required=True, help="coordinates, e.g. '3/2 1/2'")
    _add_common(sep, k_flag=False)
    sep.set_defaults(func=cmd_separate)

    ver = subs.add_parser("verify", help="run the check suite over a directory")
    ver.add_argument("instances", help="directory of instance files")
    _add_common(ver, refine_flag=False, out_flag=True)
    ver.add_argument(
        "--timings",
        action="store_true",
        help="record check timings (report bytes then vary run to run)",
    )
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
