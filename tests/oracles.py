"""Exact helpers that only the tests use.

They are oracles for the integer kernels of `aggclosure.rational`: a
square solver, an affine rank and a rank, on ``Fraction`` input where
it applies, with the small helpers their tests use.  The box enumerator
of covering minimal points is the oracle of the covering `knapsack._core`,
the pairwise fold is the oracle of `polyhedra.intersect`, the interval
hulls built by double description and `closure_1d_rounding` are the
oracles of `polyhedra.interval` and `closure.closure_1d`,
`cg_cut_floor_ceil`, which rounds each entry of a Fraction row by
`math.floor` or `math.ceil`, is the oracle of `knapsack.cg_cut`, `rowwise_hulls`,
the intersection of the rows' own integer hulls, is the oracle of the
sampled closure at grid 1, which `verify.check_onerow_ratio` and, with
one row, `verify.check_oracle_m1` read, `vertex_hull`,
a hull converted from its lattice points by double description, is the
oracle of the two-variable polygons of `knapsack.integer_hull`,
`packing_core`, read off the set of every feasible point, is the oracle
of the core `knapsack._core` reads off the packing segments,
`sandwich_full_box`, which builds `K` and `L` and tests the generators
of the instance's integer hull that `hull_generators_box` reads off
every cell of its own box, is the oracle of `verify.check_sandwich` and
of the walk `knapsack.instance_generators`,
`tuple_to_inequality`, the hyperplane through a tuple's points, is the
oracle of the sampled facet each `closure.FacetTuple` carries as its row
of K, `serialize_instance` writes the instance format
`cli.parse_instance` reads, and `build_parser` is the argparse command
line that `cli.parse_args` replaced.  Two oracles check the polyhedral
kernel's set-up: `nullspace_start`, one null vector of the other rows per
row, is the oracle of the simplicial start `polyhedra._inverse_columns`,
and `echelon_hrep_to_vrep`, which reads every facet normal off an echelon
of the rays on it, is the oracle of `polyhedra.hrep_to_vrep`.
`make_inequality`, `build_polyhedron` and `empty_polyhedron`, the
separate builders that wrote canonical values before the constructors
did, return the fields they wrote and are the oracles of the
`LinearInequality` and `Polyhedron` constructors.
"""

from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from functools import cache
from math import ceil, floor
from typing import Iterable, Optional, Sequence

from aggclosure import cli, verify
from aggclosure.cli import cmd_closure, cmd_hull, cmd_separate, cmd_verify
from aggclosure.closure import FacetTuple, saturated
from aggclosure.errors import UsageError
from aggclosure.knapsack import (
    COVERING,
    PACKING,
    KnapsackRelaxation,
    build_relaxation,
    integer_hull,
    lattice_points,
)
from aggclosure.polyhedra import (
    DEFAULT_CELL_BUDGET,
    GE,
    LE,
    LinearInequality,
    Polyhedron,
    _canonical_order,
    _canonical_system,
    _double_description,
    _equalities,
    _maximal,
    _negated,
    _transpose,
    hrep_to_vrep,
    intersect,
    poly_subset,
    sort_hrep,
    vrep_to_hrep,
)
from aggclosure.rational import (
    IntEchelon,
    IntVector,
    Rat,
    RatMatrix,
    RatVector,
    as_vector,
    idot,
    int_clear,
    int_echelon,
    int_nullspace,
    int_row_basis,
    reduce_gcd,
)


def make_inequality(normal, rhs, sense: str) -> tuple:
    """The fields ``(normal, rhs, sense)`` of the canonical half-space,
    as a separate function made them before the `LinearInequality`
    constructor did: cleared to integers, divided by the gcd, the first
    nonzero coefficient made positive with the sense flipped."""
    if sense not in (LE, GE):
        raise ValueError(f"bad sense {sense!r}")
    ints, _ = int_clear(tuple(normal) + (rhs,))
    ints = reduce_gcd(ints)
    coeffs, r = ints[:-1], ints[-1]
    if not any(coeffs):
        raise ValueError("zero normal")
    first = next(a for a in coeffs if a)
    if first < 0:
        coeffs = tuple(-a for a in coeffs)
        r = -r
        sense = GE if sense == LE else LE
    return coeffs, r, sense


def build_polyhedron(dim, generators, hrep, affine_dim) -> tuple:
    """The fields ``(dim, hrep, generators, feasible, integral_flag,
    affine_dim)`` of a nonempty polyhedron in canonical form, as a
    separate builder wrote them before the `Polyhedron` constructor
    did: sorted rows and ordered generators, with the two flags
    stored."""
    generators = tuple(_canonical_order(generators))
    integral = all(g[-1] <= 1 for g in generators)
    return dim, sort_hrep(hrep), generators, True, integral, affine_dim


def empty_polyhedron(dim: int, hrep=()) -> tuple:
    """The fields of the empty polyhedron with the rows ``hrep``, as
    `build_polyhedron` gives them."""
    return dim, sort_hrep(hrep), (), False, False, -1


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


def column_bounds_scan(sense: str, rows, rhs) -> list:
    """The bound of each column by scanning candidate values: the largest
    v with ``v·a <= r`` (packing) or the smallest with ``v·a >= r``
    (covering) on every row with ``a > 0``; None for a column no row
    uses.  For ``a = p/q >= 1/q``, ``|r / a| <= |r|·q``, so the scan
    covers every bound."""
    out = []
    for col in zip(*rows):
        used = [(Fraction(a), Fraction(r)) for a, r in zip(col, rhs) if a > 0]
        if not used:
            out.append(None)
            continue
        span = max((abs(r.numerator) + 1) * a.denominator for a, r in used)
        values = range(-span, span + 1)
        if sense == PACKING:
            out.append(max(v for v in values if all(v * a <= r for a, r in used)))
        else:
            out.append(min(v for v in values if all(v * a >= r for a, r in used)))
    return out


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


def nullspace_start(B, width: int) -> list[IntVector]:
    """The extreme rays of the simplicial cone ``{v : B v >= 0}`` of a
    nonsingular square integer ``B``, in row order: the ray of row i is
    the one integer null vector of the other rows, oriented so that
    ``B_i . r > 0``."""
    rays = []
    for i in range(len(B)):
        (r,) = int_nullspace([B[j] for j in range(len(B)) if j != i], width)
        if idot(B[i], r) < 0:
            r = _negated(r)
        rays.append(r)
    return rays


def echelon_hrep_to_vrep(ineqs, dim: int, budget: int = DEFAULT_CELL_BUDGET):
    """`polyhedra.hrep_to_vrep` with every facet normal read off an
    echelon: the null vector of the equalities, the lineality and the
    rays on the facet, oriented away from a ray off it.  The double
    description finds its own start."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    canon = _canonical_system(ineqs)
    lineality = int_nullspace([iq.normal for iq in canon], dim)
    width = dim + 1
    rows = [(0,) * dim + (1,)]
    lines = []
    for ell in lineality:
        lines += [ell + (0,), _negated(ell) + (0,)]
    rows += lines
    first = len(rows)
    for iq in canon:
        h = iq.normal + (-iq.rhs,)
        rows.append(h if iq.sense == GE else _negated(h))
    rays = _double_description(rows, width, "hrep_to_vrep", budget)
    gens = [g for g, _ in rays]
    if not any(g[-1] for g in gens):
        return Polyhedron(dim, canon, (), -1)
    tight = _transpose([z for _, z in rays], len(rows))
    at_infinity, tight = tight[0], tight[first:]
    full = (1 << len(gens)) - 1
    nullbasis = int_row_basis([h for h, t in zip(rows[first:], tight) if t == full])
    base = int_echelon(nullbasis + lines)
    facets = []
    for face in _maximal(tight, full):
        if face == at_infinity:
            continue
        ech = IntEchelon(base.rows, base.pivots)
        for k, g in enumerate(gens):
            if face >> k & 1 and ech.insert(g) and ech.rank == width - 1:
                break
        (y,) = ech.nullspace(width)
        off = full & ~face
        if idot(y, gens[(off & -off).bit_length() - 1]) > 0:
            y = _negated(y)
        facets.append(LinearInequality(y[:-1], -y[-1], LE))
    ineqs = _equalities(nullbasis, dim) + facets
    return Polyhedron(dim, ineqs, gens + lines, dim - len(nullbasis))


def packing_core(points) -> list:
    """The points of a packing set, in their order, that no unit
    increment inside their support keeps feasible, found by looking each
    increment up in the set of all points."""
    fset = set(points)
    out = []
    for p in points:
        raised = (
            tuple(v + int(i == j) for i, v in enumerate(p)) for j in range(len(p)) if p[j]
        )
        if all(q not in fset for q in raised):
            out.append(p)
    return out


def vertex_hull(rel, budget: int = DEFAULT_CELL_BUDGET):
    """The integer hull of a relaxation converted from its lattice points
    by `vrep_to_hrep`: covering minimal points with every unit ray, or
    the `packing_core` of every feasible point with a unit ray per free
    column.  The oracle of `knapsack.integer_hull`, whose generating
    set `knapsack._generators` reads the packing core off the segments
    of `knapsack._segments` and whose two-variable polygons take
    no double description."""
    points, free = lattice_points(rel, budget)
    if not points:
        return Polyhedron(rel.n, (), (), -1)
    units = [tuple(int(i == j) for i in range(rel.n)) for j in range(rel.n)]
    if rel.sense == COVERING:
        return vrep_to_hrep(points, units, budget=budget)
    rays = [units[j] for j in sorted(free)]
    return vrep_to_hrep(packing_core(points), rays, budget=budget)


@cache
def interval_hull(sense: str, c: int, bounded: bool):
    """The one-variable hull ``[0, c]``, or ``[c, inf)`` when not
    ``bounded``, converted from its generators by double description."""
    if not bounded:
        return vrep_to_hrep([(c,)], [(1,)])
    points = [(0,)] if c == 0 else [(0,), (c,)]
    return vrep_to_hrep(points, [])


def closure_1d_rounding(inst):
    """The one-variable closure from the row ratios: packing keeps
    ``[0, min floor(b_i / a_i)]``, covering ``[max ceil(b_i / a_i), inf)``."""
    ratios = [(inst.b[i], inst.A[i][0]) for i in range(inst.m)]
    if inst.sense == PACKING:
        return interval_hull(PACKING, min(b // a for b, a in ratios), bounded=True)
    return interval_hull(COVERING, max(-((-b) // a) for b, a in ratios), bounded=False)


def cg_cut_floor_ceil(rel):
    """The Chvatal-Gomory rounding of a single aggregated row, entry by
    entry: ``floor`` of each coefficient and of the rhs for packing,
    ``ceil`` for covering; None when the normal rounds to zero."""
    row, r = rel.aggregated_rows[0], rel.aggregated_rhs[0]
    if rel.sense == PACKING:
        coeffs, bound, sense = [floor(a) for a in row], floor(r), LE
    else:
        coeffs, bound, sense = [ceil(a) for a in row], ceil(r), GE
    if not any(coeffs):
        return None
    return LinearInequality(coeffs, bound, sense)


def rowwise_hulls(inst, budget: int = DEFAULT_CELL_BUDGET):
    """The intersection of the integer hulls of the instance's rows, each
    row taken alone as the aggregation by its unit weight."""
    units = [[int(t == i) for t in range(inst.m)] for i in range(inst.m)]
    return intersect(
        [integer_hull(build_relaxation(inst, e), budget) for e in units], budget
    )


def tuple_to_inequality(t, sense: str) -> LinearInequality:
    """Inequality ``<a, x> <= c`` (``>=`` for covering) of the hyperplane
    through a tuple's points.

    ``(a, -c)`` is the one integer null vector of the homogeneous points
    ``(p_i, 1)``, oriented so that ``c > 0``.  The points must be
    linearly independent: a null space of another dimension, or a
    hyperplane through the origin (``c == 0``), raises RuntimeError.
    """
    pts = t.points if isinstance(t, FacetTuple) else t
    rows = [int_clear(tuple(p) + (1,))[0] for p in pts]
    basis = int_nullspace(rows, len(rows[0]))
    if len(basis) != 1 or not basis[0][-1]:
        raise RuntimeError("tuple points do not determine a hyperplane")
    (v,) = basis
    if v[-1] > 0:
        v = tuple(-a for a in v)
    return LinearInequality(v[:-1], -v[-1], LE if sense == PACKING else GE)


def _first_cut(bodies, g):
    # first row of the first built body in ``bodies`` that the homogeneous
    # ``g`` violates
    for body in bodies:
        for iq in body.hrep:
            if not iq.holds_at(g):
                return iq
    return None


def _body_escape(generators, bodies):
    # the first point of ``generators`` outside one of the built
    # ``bodies``, or the first point pushed along a ray by doubling steps
    verts = [g for g in generators if g[-1]]
    for g in verts:
        row = _first_cut(bodies, g)
        if row is not None:
            return verify._point(g), row
    if not verts:
        return None
    for ray in (g for g in generators if not g[-1]):
        step = 1
        for _ in range(64):
            probe = verify._pushed(verts[0], ray, step)
            row = _first_cut(bodies, probe)
            if row is not None:
                return verify._point(probe), row
            if _first_cut(bodies, ray) is None:
                break
            step *= 2
    return None


def hull_generators_box(inst) -> list:
    """Homogeneous generators of the instance's integer hull, read off
    every cell of the box of `column_bounds_scan`, 0 along a zero column:
    the `packing_core` of the feasible cells with a unit ray per zero
    column, or the covering minimal points of `covering_minimal_box` with
    every unit ray.  Points come in lexicographic order, rays by column."""
    scanned = column_bounds_scan(inst.sense, inst.A, inst.b)
    bounds = [c or 0 for c in scanned]
    if inst.sense == PACKING:
        cells = itertools.product(*(range(c + 1) for c in bounds))
        feasible = [p for p in cells if all(idot(a, p) <= r for a, r in zip(inst.A, inst.b))]
        points = packing_core(feasible)
        free = [j for j, c in enumerate(scanned) if c is None]
    else:
        rel = KnapsackRelaxation(COVERING, inst.n, inst.A, inst.b)
        points = covering_minimal_box(rel, bounds)
        free = range(inst.n)
    units = [tuple(int(i == j) for i in range(inst.n)) + (0,) for j in free]
    return [p + (1,) for p in points] + units


def sandwich_full_box(inst, art, sc):
    """`verify.check_sandwich` on the artifacts ``art`` and the sampled
    closure ``sc``, decided on the built ``K`` and ``L``: the vertices
    and rays of ``sc`` against each body's rows, then the generators of
    `hull_generators_box` against K's rows and L's, each ray tested for
    recession against every row."""
    K, L = art.K(), art.L()
    name = "sandwich"
    for body, note in ((K, "the tuple body"), (L, "the recursion bound")):
        hit = _body_escape(sc.generators, [body])
        if hit is not None:
            return verify.CheckReport(
                name, inst.instance_id, verify.FAIL,
                witness_point=hit[0], witness_inequality=hit[1],
                note=f"sampled closure escapes {note}",
            )
    hit = _body_escape(hull_generators_box(inst), [K, L])
    if hit is not None:
        return verify.CheckReport(
            name, inst.instance_id, verify.FAIL,
            witness_point=hit[0], witness_inequality=hit[1],
            note="feasible lattice point cut off",
        )
    return verify.CheckReport(
        name, inst.instance_id, verify.PASS,
        note=f"saturation={'true' if saturated(art) else 'false'}",
    )


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


def _add_common(sub, k_flag=True, refine_flag=False, out_flag=False):
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
        "kernel run, or aggregations of one grid walk or refinement round",
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
    _add_common(sep, k_flag=False, refine_flag=True)
    sep.set_defaults(func=cmd_separate)

    ver = subs.add_parser("verify", help="run the check suite over a directory")
    ver.add_argument("instances", help="directory of instance files")
    _add_common(ver, out_flag=True)
    ver.add_argument(
        "--timings",
        action="store_true",
        help="record check timings (report bytes then vary run to run)",
    )
    ver.set_defaults(func=cmd_verify)
    return parser
