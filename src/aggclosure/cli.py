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

The command line is read against one table, `COMMANDS`, which also
renders ``--help``.  It takes the command first, then its positional
and its flags in any order, as ``--flag value`` or ``--flag=value``; a
unique prefix of a flag stands for the flag, and the token after a flag
that takes a value is always that value, so ``--point '-1 0'`` works,
and every token after ``--`` is positional.  ``-h`` or ``--help``,
alone or after a command, prints help to stdout.  The table is read
without argparse, whose parser objects and first ``gettext`` call took
3 to 5 ms of every fresh process.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

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
        import json
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
                f"  lambda {res.witness.render()}"
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


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: '{text}'") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"expected a positive integer, got '{text}'")
    return value


# A flag is (dest, convert, default, help).  A convert of None marks a
# switch; a tuple default marks a flag that may repeat, whose values are
# collected in a list.
_GRID = ("grid", _int, 4, "grid denominator D")
_K = ("k", _int, 1, "columns per aggregation")
_REFINE = ("refine", _int, 1, "refinement rounds")
_BUDGET = (
    "budget",
    _positive_int,
    DEFAULT_CELL_BUDGET,
    "work budget per enumeration: lattice cells, ray pairs of one kernel "
    "run, or aggregations of one grid walk",
)
_THREADS = (
    "threads",
    _positive_int,
    1,
    "accepted for compatibility; all work runs on one thread",
)
_OUT = ("out", str, "", "directory for report files")
_LAM = (
    "lam",
    str,
    (),
    "aggregation weights, e.g. --lam '1/2 1/2'; repeat for more columns",
)
_HULL_BUDGET = (
    "budget",
    _positive_int,
    DEFAULT_CELL_BUDGET,
    "work budget per enumeration: lattice cells, or ray pairs of one kernel run",
)
_POINT = ("point", str, None, "coordinates, e.g. '3/2 1/2'")
_TIMINGS = (
    "timings",
    None,
    False,
    "record check timings (report bytes then vary run to run)",
)
# every command takes -h and --help
_HELP = ("help", None, False, "show this help and exit")

# command -> (handler, summary, (positional, help), flags, required flags)
COMMANDS = {
    "hull": (
        cmd_hull,
        "integer hull of an aggregated relaxation",
        ("instance", "instance file"),
        {"--lam": _LAM, "--budget": _HULL_BUDGET},
        ("--lam",),
    ),
    "closure": (
        cmd_closure,
        "closure construction artifacts",
        ("instance", "instance file"),
        {
            "--grid": _GRID,
            "--k": _K,
            "--refine": _REFINE,
            "--budget": _BUDGET,
            "--threads": _THREADS,
            "--out": _OUT,
        },
        (),
    ),
    "separate": (
        cmd_separate,
        "find a violated sampled cut",
        ("instance", "instance file"),
        {
            "--point": _POINT,
            "--grid": _GRID,
            "--refine": _REFINE,
            "--budget": _BUDGET,
            "--threads": _THREADS,
        },
        ("--point",),
    ),
    "verify": (
        cmd_verify,
        "run the check suite over a directory",
        ("instances", "directory of instance files"),
        {
            "--grid": _GRID,
            "--k": _K,
            "--budget": _BUDGET,
            "--threads": _THREADS,
            "--out": _OUT,
            "--timings": _TIMINGS,
        },
        (),
    ),
}


def _flag(name: str, flags) -> str | None:
    """The flag that ``name`` spells out or abbreviates, or None."""
    if name in flags or name == "--help":
        return name
    if name == "-h":
        return "--help"
    if not name.startswith("--") or name == "--":
        return None
    hits = [f for f in (*flags, "--help") if f.startswith(name)]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {name} could match {', '.join(hits)}")
    return hits[0] if hits else None


def _is_loose(token: str) -> bool:
    """Whether a token that names no flag is a positional.

    As argparse reads it: one that does not start with ``-``, ``-``
    itself, a negative number, or one that holds a space.
    """
    if not token.startswith("-") or token == "-" or " " in token:
        return True
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return frac.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def parse_args(argv) -> SimpleNamespace:
    """Read a command line against `COMMANDS`.

    Returns a namespace holding ``command``, the handler as ``func`` and
    one attribute per positional and flag of the command, with defaults
    filled in.  A help request returns a namespace whose ``func`` prints
    the help.  Every usage problem raises `UsageError`.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        if _flag(command, ()) == "--help":
            return SimpleNamespace(command=None, func=_print_help)
        choices = ", ".join(f"'{c}'" for c in COMMANDS)
        raise UsageError(
            f"argument command: invalid choice: '{command}' (choose from {choices})"
        )
    handler, _, (positional, _), flags, required = COMMANDS[command]
    values = {dest: default for dest, _, default, _ in flags.values()}
    given = set()
    # positionals and unknown flags; like argparse, report extras only
    # once the whole line is read, so a later --help still wins
    loose, unknown = [], []
    tokens = iter(rest)
    for token in tokens:
        if token == "--":
            loose += tokens
            break
        name, eq, value = token.partition("=")
        flag = _flag(name, flags) if token.startswith("-") else None
        if flag is None:
            (loose if _is_loose(token) else unknown).append(token)
            continue
        dest, convert, default, _ = flags.get(flag, _HELP)
        if convert is None:
            if eq:
                raise UsageError(f"argument {flag}: ignored explicit argument '{value}'")
            if flag == "--help":
                return SimpleNamespace(command=command, func=_print_help)
            values[dest] = True
            continue
        given.add(flag)
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"argument {flag}: expected one argument")
        try:
            value = convert(value)
        except ValueError as exc:
            raise UsageError(f"argument {flag}: {exc}") from None
        values[dest] = [*values[dest], value] if isinstance(default, tuple) else value
    missing = [] if loose else [positional]
    missing += [f for f in required if f not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if len(loose) > 1 or unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(loose[1:] + unknown)}")
    values[positional] = loose[0]
    return SimpleNamespace(command=command, func=handler, **values)


def _help_text(command) -> str:
    if command is None:
        width = max(map(len, COMMANDS))
        lines = [
            "usage: aggclosure COMMAND ARGS...",
            "",
            __doc__.splitlines()[0],
            "",
            "commands:",
            *(f"  {name:<{width}}  {entry[1]}" for name, entry in COMMANDS.items()),
            "",
            "Run 'aggclosure COMMAND --help' for the flags of a command.",
        ]
        return "\n".join(lines) + "\n"
    _, summary, (positional, about), flags, required = COMMANDS[command]
    rows = [(positional.upper(), about)]
    for flag, (dest, convert, default, text) in flags.items():
        if convert is None:
            rows.append((flag, text))
            continue
        if flag in required:
            text += " (required" + ("; repeatable)" if isinstance(default, tuple) else ")")
        elif default != "":
            text += f" (default {default})"
        rows.append((f"{flag} {dest.upper()}", text))
    rows.append(("-h, --help", _HELP[3]))
    width = max(len(left) for left, _ in rows)
    lines = [
        f"usage: aggclosure {command} {positional.upper()} [flags]",
        "",
        summary,
        "",
        *(f"  {left:<{width}}  {text}" for left, text in rows),
    ]
    return "\n".join(lines) + "\n"


def _print_help(args) -> int:
    sys.stdout.write(_help_text(args.command))
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
