"""Exact helpers that only the tests use.

They are oracles for the integer kernels of `aggclosure.rational`: a
square solver, an affine rank and a rank, on ``Fraction`` input where
it applies, with the small helpers their tests use.  The box enumerator
of covering minimal points is the oracle of `knapsack._covering_minimal`,
the pairwise fold is the oracle of `polyhedra.intersect`,
`serialize_instance` writes the instance format `cli.parse_instance`
reads, and `build_parser` is the argparse command line that
`cli.parse_args` replaced.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from aggclosure import cli
from aggclosure.cli import cmd_closure, cmd_hull, cmd_separate, cmd_verify
from aggclosure.errors import UsageError
from aggclosure.polyhedra import DEFAULT_CELL_BUDGET, hrep_to_vrep, poly_subset
from aggclosure.rational import (
    IntEchelon,
    Rat,
    RatMatrix,
    RatVector,
    as_vector,
    int_clear,
    int_echelon,
)


def rat(numerator: int | str | Fraction, denominator: int = 1) -> Rat:
    """Build an exact rational.  Accepts ints, ``"p/q"`` strings, Fractions."""
    return Fraction(numerator, denominator) if denominator != 1 else Fraction(numerator)


def as_matrix(rows: Iterable[Iterable]) -> RatMatrix:
    mat = tuple(as_vector(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def vdot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    return int_echelon(rows).rank


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[RatVector]:
    """Solve a square exact linear system; None reports a singular matrix.

    Fraction-free (Bareiss-style) forward elimination on the integer-cleared
    augmented system bounds intermediate growth; the solution is read off
    the integer null vector of the augmented system.
    """
    mat = as_matrix(matrix)
    b = as_vector(rhs)
    n = len(mat)
    if n == 0:
        return ()
    if len(mat[0]) != n or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    ech = IntEchelon()
    for row, rhs_entry in zip(mat, b):
        ints, _ = int_clear(tuple(row) + (rhs_entry,))
        ech.insert(ints)
    # a pivot on the rhs column means 0 = nonzero: inconsistent, and the
    # matrix necessarily singular
    if ech.rank != n or n in ech.pivots:
        return None
    # the nullspace of [A | b] is spanned by (-x, 1)
    (v,) = ech.nullspace(n + 1)
    return tuple(Fraction(-a, v[n]) for a in v[:n])


def affine_rank(points: Sequence[Sequence]) -> int:
    """Largest count of affinely independent points in the list.

    Empty input has affine rank 0; a single point has affine rank 1.
    Invariant under translation and permutation of the input.
    """
    pts = [as_vector(p) for p in points]
    if not pts:
        return 0
    base = pts[0]
    ech = IntEchelon()
    for p in pts[1:]:
        diff = tuple(a - b for a, b in zip(p, base))
        ints, _ = int_clear(diff)
        ech.insert(ints)
    return ech.rank + 1


def covering_minimal_box(rel, bounds) -> list:
    """Domination-minimal feasible points of a covering relaxation, by
    listing every cell of the box ``0 <= x_j <= bounds[j]``."""
    n = rel.n
    rows = rel.aggregated_rows
    rhs = rel.aggregated_rhs

    def feasible(p) -> bool:
        return all(
            sum(c * v for c, v in zip(row, p)) >= r for row, r in zip(rows, rhs)
        )

    cells: list = [()]
    for j in range(n):
        cells = [p + (v,) for p in cells for v in range(bounds[j] + 1)]
    fset = {p for p in cells if feasible(p)}
    out = []
    for p in sorted(fset):
        lowered = (
            tuple(v - int(i == j) for i, v in enumerate(p))
            for j in range(n)
            if p[j] > 0
        )
        if all(q not in fset for q in lowered):
            out.append(p)
    return out


def intersect_fold(polys, budget: int = DEFAULT_CELL_BUDGET):
    """Intersection of polyhedra folded pairwise: one double description
    of ``current.hrep + nxt.hrep`` per step, skipped when one side
    contains the other."""
    polys = list(polys)
    if not polys:
        raise ValueError("nothing to intersect")
    dim = polys[0].dim
    if any(p.dim != dim for p in polys):
        raise ValueError("dimension mismatch")
    current = polys[0]
    for nxt in polys[1:]:
        if not current.feasible:
            return current
        if not nxt.feasible:
            return nxt
        if poly_subset(current, nxt):
            continue
        if poly_subset(nxt, current):
            current = nxt
            continue
        current = hrep_to_vrep(current.hrep + nxt.hrep, dim, budget)
    return current


def serialize_instance(inst) -> str:
    """An instance in the text format of `aggclosure.cli.parse_instance`."""
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
        help="work budget per enumeration: lattice cells, ray pairs of one "
        "kernel run, or aggregations of one grid walk",
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
    parser = _Parser(prog="aggclosure", description=cli.__doc__.splitlines()[0])
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
