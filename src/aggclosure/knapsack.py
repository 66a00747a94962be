"""Aggregated knapsack relaxations and their exact integer hulls.

A packing instance is ``Ax <= b, x >= 0`` and a covering instance is
``Ax >= b, x >= 0`` with A nonnegative integer and b positive integer.
Aggregating rows with nonnegative weights gives a knapsack relaxation whose
integer hull is computed exactly: packing feasible sets are finite over the
bounded coordinates (zero columns become rays), covering feasible sets are
up-closed so the hull is the convex hull of the domination-minimal points
plus the nonnegative orthant cone.  Both are enumerated in the box of
`column_bounds`: ``min floor(r / a_j)`` over the packing rows or ``max
ceil(r / a_j)`` over the covering rows with ``a_j > 0``, and 0 along a
column no row uses, which is free for packing.  Both senses are read
as segments by one walk, `_segments`, over the first n - 1 coordinates
of the box: each prefix gets one end for the last coordinate, the top
every packing row allows or the low every covering row needs.  A
one-variable hull is an interval read off the rows.  Every other hull
reads one generating set, `_generators`: the segment ends that no unit
step inside their support keeps feasible, the `_core` (up for packing,
down for covering), with a unit ray per free packing column or every
unit ray for covering.  A full-dimensional two-variable hull with no
free packing column is the polygon of those points by monotone chains
(Andrew 1979), and every other hull is converted from them by the
polyhedral kernel.  The instance's own hull is handed out as the same
generators by `instance_generators`, with no conversion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import inf
from operator import floordiv, ge, le

from .errors import (
    EmptyRelaxationError,
    ResourceBudgetError,
    TrivialAggregationError,
    UsageError,
)
from .polyhedra import (
    DEFAULT_CELL_BUDGET,
    GE,
    LE,
    LinearInequality,
    Polyhedron,
    _build,
    _unit,
    empty_polyhedron,
    interval,
    make_inequality,
    vrep_to_hrep,
)
from .rational import (
    IntVector,
    RatMatrix,
    RatVector,
    as_vector,
    format_rat,
    idot,
    int_clear,
    reduce_gcd,
)
from .record import Record, set_fields

PACKING = "packing"
COVERING = "covering"


def _ceil_div(r, a) -> int:
    # exact for int and Fraction operands, where ceil(r / a) would round
    # a float quotient of two large ints
    return -(-r // a)


# sense -> (rounding of r / a, pick over rows): a packing row allows at
# most floor(r / a) and the rows together their least, a covering row
# needs at least ceil(r / a) and the rows together their most
_ROUNDING = {PACKING: (floordiv, min), COVERING: (_ceil_div, max)}


class Aggregation(Record):
    """Nonnegative aggregation weights: k columns of m row weights each."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple) -> None:
        set_fields(self, weights)

    def render(self) -> str:
        """Columns as ``p/q`` weights, separated by ``; ``."""
        return "; ".join(" ".join(format_rat(w) for w in col) for col in self.weights)


def _weight_column(col) -> tuple:
    # integer columns stay int: the Fraction conversion of `as_vector`
    # costs more than the whole integer aggregation
    col = tuple(col)
    return col if all(type(w) is int for w in col) else as_vector(col)


def as_aggregation(weights, m: int) -> Aggregation:
    """Normalize a weight vector, a sequence of them, or an Aggregation.

    Integer columns are kept as ints, any other column becomes Fractions.
    """
    if isinstance(weights, Aggregation):
        cols = [_weight_column(c) for c in weights.weights]
    else:
        seq = list(weights)
        if not seq:
            raise UsageError("empty aggregation")
        raw = seq if isinstance(seq[0], (list, tuple)) else [seq]
        cols = [_weight_column(c) for c in raw]
    if not cols:
        raise UsageError("empty aggregation")
    for col in cols:
        if len(col) != m:
            raise UsageError("aggregation length does not match row count")
        if any(w < 0 for w in col):
            raise UsageError("aggregation weights must be nonnegative")
    return Aggregation(tuple(cols))


class Instance(Record):
    """One packing or covering integer program.

    Zero rows are stripped for packing (0 <= b_i is vacuous) and rejected
    for covering (0 >= b_i > 0 empties the feasible region).
    """

    __slots__ = ("sense", "A", "b", "instance_id")

    def __init__(self, sense: str, A: tuple, b: tuple, instance_id: str = "") -> None:
        if sense not in (PACKING, COVERING):
            raise UsageError(f"unknown sense {sense!r}")
        mat = tuple(tuple(row) for row in A)
        rhs = tuple(b)
        if not mat:
            raise UsageError("instance needs at least one row")
        if len(rhs) != len(mat):
            raise UsageError("rhs length does not match row count")
        width = len(mat[0])
        if width == 0:
            raise UsageError("instance needs at least one variable")
        for row in mat:
            if len(row) != width:
                raise UsageError("matrix rows have unequal length")
            for v in row:
                if v != int(v) or v < 0:
                    raise UsageError("matrix entries must be nonnegative integers")
        for v in rhs:
            if v != int(v) or v < 1:
                raise UsageError("rhs must be positive")
        mat = tuple(tuple(int(v) for v in row) for row in mat)
        rhs = tuple(int(v) for v in rhs)
        kept_rows = []
        kept_rhs = []
        for row, bi in zip(mat, rhs):
            if not any(row):
                if sense == COVERING:
                    raise UsageError("zero row infeasible for covering")
                continue
            kept_rows.append(row)
            kept_rhs.append(bi)
        if not kept_rows:
            raise UsageError("trivial instance: every row is zero")
        set_fields(self, sense, tuple(kept_rows), tuple(kept_rhs), instance_id)

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])


class KnapsackRelaxation(Record):
    """k aggregated knapsack rows over the nonnegative orthant.

    `build_relaxation` makes the rows: ints when the weights are
    integers, otherwise Fractions equal to λ·A and λ·b.  The hull
    depends only on the rows' scale-free `canonical_key`, so weights
    that differ by a positive factor per column give the same hull.
    """

    __slots__ = ("sense", "n", "aggregated_rows", "aggregated_rhs")

    def __init__(
        self, sense: str, n: int, aggregated_rows: RatMatrix, aggregated_rhs: RatVector
    ) -> None:
        set_fields(self, sense, n, aggregated_rows, aggregated_rhs)

    @property
    def k(self) -> int:
        return len(self.aggregated_rows)

    def canonical_key(self):
        # scale-free row set: hulls agree exactly on equal keys.  Each row
        # is integer coefficients followed by the rhs; dividing by the gcd
        # maps every positive multiple of a row to the same vector
        rows = (
            reduce_gcd(int_clear(tuple(row) + (r,))[0])
            for row, r in zip(self.aggregated_rows, self.aggregated_rhs)
        )
        return (self.sense, self.n, tuple(sorted(set(rows))))


def build_relaxation(inst: Instance, weights) -> KnapsackRelaxation:
    """Aggregate the rows of ``inst`` with each nonzero weight column.

    A column λ is cleared to integers ``v = λ·den`` and aggregated as
    `integer_row`; the row is divided by ``den`` only when ``den > 1``,
    so integer weights give int rows and every row equals λ·A | λ·b.
    """
    kept = [col for col in as_aggregation(weights, inst.m).weights if any(col)]
    if not kept:
        raise TrivialAggregationError("trivial aggregation")
    rows = []
    for lam in kept:
        ints, den = int_clear(lam)
        row = integer_row(inst, ints)
        rows.append(row if den == 1 else tuple(Fraction(x, den) for x in row))
    return KnapsackRelaxation(
        sense=inst.sense,
        n=inst.n,
        aggregated_rows=tuple(row[:-1] for row in rows),
        aggregated_rhs=tuple(row[-1] for row in rows),
    )


def integer_row(inst: Instance, column) -> IntVector:
    """Aggregated row v·A followed by its rhs v·b, for integer weights v."""
    return tuple(idot(column, a) for a in zip(*inst.A)) + (idot(column, inst.b),)


def hull_keys(sense: str, coords, k: int):
    """Hull keys of the k-aggregations of integer rows, lazily.

    ``coords`` holds one iterator per coordinate of the rows: the n
    coefficients, then the rhs.  Two aggregations with equal keys have
    the same `integer_hull`, and the keys come in the order
    of ``combinations_with_replacement(rows, k)``, which holds the row
    keys in a list when k >= 2.  In one variable every coefficient must
    be positive; a row's key is then the endpoint of its interval hull
    and a k-aggregation's the pick of its rows' keys, both by the sense's
    rule of `_ROUNDING`: ``floor(r / a)`` and the min for packing,
    ``ceil(r / a)`` and the max for covering, the endpoint `_hull_1d`
    reads off `column_bounds`.  In several variables a row's key is the
    row in lowest terms and a k-aggregation's the set of its rows' keys,
    as in `KnapsackRelaxation.canonical_key`.
    """
    if len(coords) == 2:
        coef, rhs = coords
        rounded, combine = _ROUNDING[sense]
        keys = map(rounded, rhs, coef)
    else:
        keys, combine = map(reduce_gcd, zip(*coords)), frozenset
    if k == 1:
        return keys
    return map(combine, combinations_with_replacement(list(keys), k))


def column_bounds(sense: str, rows, rhs) -> list:
    """Per column j, the most a packing row allows alone, ``min floor(r /
    a_j)``, or the least a covering row needs, ``max ceil(r / a_j)``, over
    the rows with ``a_j > 0``; None for a column no row uses.  Exact on
    int and Fraction rows."""
    rounded, pick = _ROUNDING[sense]
    return [
        pick((rounded(r, a) for a, r in zip(col, rhs) if a > 0), default=None)
        for col in zip(*rows)
    ]


def _check_budget(bounds, budget) -> None:
    # the box of 0..b per side, counted one side at a time so a huge box
    # stops at the first product past ``budget``
    cells = 1
    for b in bounds:
        cells *= b + 1
        if cells > budget:
            raise ResourceBudgetError(f"enumeration box of {cells}+ cells exceeds budget {budget}")


def _zero_row_empties(sense: str, rows, rhs) -> bool:
    """Whether an all-zero row leaves nothing feasible.

    A packing row ``0 <= r`` with ``r < 0`` empties the relaxation and
    gives True; a covering row ``0 >= r`` with ``r > 0`` raises
    `EmptyRelaxationError`.  Every other zero row is vacuous.
    """
    for row, r in zip(rows, rhs):
        if any(row):
            continue
        if sense == COVERING and r > 0:
            raise EmptyRelaxationError("empty relaxation")
        if sense == PACKING and r < 0:
            return True
    return False


def _most(residual, col) -> int:
    # the largest step every packing row allows, res - v * c >= 0; a
    # column no row uses is free and carries 0.  A plain loop: a
    # generator under `min` costs a quarter of the walk
    top = None
    for res, c in zip(residual, col):
        if c > 0 and (top is None or res // c < top):
            top = res // c
    return 0 if top is None else top


def _least(residual, col):
    # the least step every covering row needs, res - v * c <= 0, or None
    # when a row still short has 0 in the column
    v = 0
    for res, c in zip(residual, col):
        if res > 0:
            if not c:
                return None
            v = max(v, _ceil_div(res, c))
    return v


def _segments(rel: KnapsackRelaxation, budget) -> tuple[list, set]:
    """The feasible points of the relaxation as segments along the last
    coordinate.

    Walks the first n - 1 coordinates of the `column_bounds` box depth
    first, in lexicographic order, and gives each prefix one end for the
    last coordinate, read off the rows' residuals: packing its top, the
    most every row allows, and covering its low, the least every row
    needs.  A covering prefix coordinate stops at the least value that
    meets every row, since a larger one can step down, and a covering
    prefix gets no segment when a row still short has 0 in the last
    column.  Packing charges the whole box to ``budget`` and covering
    the first n - 1 sides, by `_check_budget`.  Returns the ``(prefix,
    end)`` pairs in lexicographic order, with the set of free packing
    columns, which carry 0; a pair stands for the points ``prefix +
    (v,)`` with ``0 <= v <= end`` for packing, ``v >= end`` for covering.
    """
    sense, rows, rhs = rel.sense, rel.aggregated_rows, rel.aggregated_rhs
    bounds = column_bounds(sense, rows, rhs)
    if sense == COVERING:
        _zero_row_empties(COVERING, rows, rhs)
        free: set = set()
        bounds = [max(c or 0, 0) for c in bounds]
        _check_budget(bounds[:-1], budget)
        end = _least
    else:
        free = {j for j, c in enumerate(bounds) if c is None}
        bounds = [0 if c is None else c for c in bounds]
        if all(b >= 0 for b in bounds):
            _check_budget(bounds, budget)
        if _zero_row_empties(PACKING, rows, rhs) or any(b < 0 for b in bounds):
            return [], free
        end = _most
    *cols, last = zip(*rows)
    pairs: list = []
    x = [0] * len(cols)

    def descend(j: int, residual) -> None:
        if j == len(cols):
            v = end(residual, last)
            if v is not None:
                pairs.append((tuple(x), v))
            return
        col = cols[j]
        hi = end(residual, col)
        for v in range((bounds[j] if hi is None else min(hi, bounds[j])) + 1):
            x[j] = v
            descend(j + 1, tuple(r - v * c for r, c in zip(residual, col)) if v else residual)

    descend(0, tuple(rhs))
    return pairs, free


def _core(sense: str, pairs) -> list:
    """The points of the segments, in lexicographic order, that no unit
    step inside their support keeps feasible: up for packing, where
    every hull vertex survives (a feasible step plus down-closure writes
    the point as a midpoint) and the survivors shrink the reduction
    workload, and down for covering, which leaves the minimal points.

    Along the last coordinate only the ends of a segment can survive:
    ``(prefix, 0)`` and ``(prefix, top)`` for packing, ``(prefix, low)``
    for covering.  A nonzero prefix coordinate steps to the prefix raised
    (packing) or lowered (covering) by one, and the point stays feasible
    when that prefix has a segment holding it.  The walk visits a lowered
    prefix before the point, so its segment is in ``pairs``.
    """
    ends = dict(pairs)
    step, missing, holds = (1, -1, ge) if sense == PACKING else (-1, inf, le)
    out = []
    for prefix, end in pairs:
        for v in ((0, end) if end and sense == PACKING else (end,)):
            if not any(
                c and holds(ends.get(prefix[:j] + (c + step,) + prefix[j + 1 :], missing), v)
                for j, c in enumerate(prefix)
            ):
                out.append(prefix + (v,))
    return out


def lattice_points(rel: KnapsackRelaxation, budget: int = DEFAULT_CELL_BUDGET):
    """Feasible integer points of the relaxation.

    Packing returns every feasible point over the bounded coordinates (zero
    columns are reported as free and carry coordinate 0 in the points),
    expanded from the segments of `_segments`.
    Covering returns only the domination-minimal feasible points, the
    `_core` of the segments; together with the orthant cone they
    generate the full up-closed hull.
    """
    pairs, free = _segments(rel, budget)
    if rel.sense == COVERING:
        return _core(COVERING, pairs), free
    return [prefix + (v,) for prefix, top in pairs for v in range(top + 1)], free


def _hull_1d(sense: str, rows, rhs) -> Polyhedron:
    """Integer hull in one variable of the rows, all at once.

    The hull is the interval the `column_bounds` bound leaves on
    ``x >= 0``: one shared `interval` per endpoint.
    """
    (c,) = column_bounds(sense, rows, rhs)
    if _zero_row_empties(sense, rows, rhs):
        return empty_polyhedron(1)
    if sense == COVERING:
        return interval(max(c or 0, 0))
    if c is None:
        return interval(0)
    if c < 0:
        return empty_polyhedron(1)
    return interval(0, c)


def _cross(o, a, b) -> int:
    # twice the signed area of the triangle o, a, b: positive on a left turn
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _left_chain(points) -> list:
    # one monotone-chain pass (Andrew 1979) over points in lexicographic
    # order or its reverse: the points where the boundary turns left, so
    # collinear points drop out
    chain = []
    for p in points:
        while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _left_side(p, q) -> LinearInequality:
    # the half-plane on the left of the directed line p -> q
    normal = (q[1] - p[1], p[0] - q[0])
    return make_inequality(normal, normal[0] * p[0] + normal[1] * p[1], LE)


def _covering_polygon(points) -> Polyhedron:
    """Covering hull in two variables, read off the minimal points of
    `lattice_points` by one monotone chain.

    The minimal points come with x1 rising and x2 falling, and the hull
    is their lower chain from the leftmost to the lowest, closed by the
    rays e2 above the first and e1 beyond the last.  Every edge keeps the
    side on its left.
    """
    chain = _left_chain(points)
    rows = [
        LinearInequality((1, 0), chain[0][0], GE),
        LinearInequality((0, 1), chain[-1][1], GE),
    ]
    rows += map(_left_side, chain, chain[1:])
    return _build(2, [p + (1,) for p in chain] + [(1, 0, 0), (0, 1, 0)], rows, 2)


def _packing_polygon(points) -> Polyhedron:
    """Full-dimensional packing hull in two variables with no free column:
    the ring of the lower and upper monotone chains (Andrew 1979) over
    the points of `_generators`, in lexicographic order from the origin.

    The core drops a segment end only when a raised prefix reaches as
    high, so that end is no vertex.  Every edge keeps the side on its left.
    """
    ring = _left_chain(points)[:-1] + _left_chain(reversed(points))[:-1]
    rows = map(_left_side, ring, ring[1:] + ring[:1])
    return _build(2, [p + (1,) for p in ring], rows, 2)


def _generators(rel: KnapsackRelaxation, budget) -> tuple[list, list]:
    """The points and ray columns that generate the relaxation's hull.

    Covering: the minimal points of `lattice_points` and every column.
    Packing: the `_core` of the segments of `_segments` and the sorted
    free columns.  Both read one walk, which charges the lattice box to
    ``budget``, and the points come in lexicographic order.
    """
    if rel.sense == COVERING:
        points, _ = lattice_points(rel, budget)
        return points, list(range(rel.n))
    pairs, free = _segments(rel, budget)
    return _core(PACKING, pairs), sorted(free)


def integer_hull(
    rel: KnapsackRelaxation, budget: int = DEFAULT_CELL_BUDGET
) -> Polyhedron:
    """Exact integer hull of the relaxation as a canonical polyhedron.

    The one hull routine.  In one variable the hull is one of a few
    shared intervals, read straight off the rows with no cache entry;
    otherwise it is `_key_hull` of ``(rel.canonical_key(), budget)``,
    so every caller at one budget shares hulls with every other.
    """
    if rel.n == 1:
        return _hull_1d(rel.sense, rel.aggregated_rows, rel.aggregated_rhs)
    return _key_hull(rel.canonical_key(), budget)


@cache
def _key_hull(key, budget) -> Polyhedron:
    """The integer hull of a `KnapsackRelaxation.canonical_key`, cached
    per key and budget.

    A hull does not change when a row is scaled, so it is read off the
    key's rows in lowest terms, from the points and ray columns of
    `_generators`.  In two variables a covering hull is the polygon of
    `_covering_polygon`, and a packing hull with no ray whose points
    leave 0 in both coordinates the polygon of `_packing_polygon`; every
    other hull, a packing segment or point among them, is converted by
    `vrep_to_hrep`, and the kernel writes equalities in its own reduced
    form.
    """
    sense, n, rows = key
    rel = KnapsackRelaxation(sense, n, tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows))
    points, rays = _generators(rel, budget)
    if not points:
        return empty_polyhedron(n)
    if n == 2 and sense == COVERING:
        # a covering hull in two variables holds a quadrant
        return _covering_polygon(points)
    if n == 2 and not rays and all(map(any, zip(*points))):
        # the set holds the origin and is full-dimensional when both
        # coordinates leave 0
        return _packing_polygon(points)
    return vrep_to_hrep(points, [_unit(n, j) for j in rays], budget=budget)


def instance_generators(inst: Instance, budget: int = DEFAULT_CELL_BUDGET) -> list:
    """Homogeneous generators of the instance's own integer hull ``P_I``,
    with no hull built.

    The m rows are read as one relaxation by `_generators`, as
    `integer_hull` reads an aggregated one, charging the lattice box to
    ``budget``: the points come first, in lexicographic order, then the
    unit rays by column.
    """
    rel = KnapsackRelaxation(inst.sense, inst.n, inst.A, inst.b)
    points, rays = _generators(rel, budget)
    return [p + (1,) for p in points] + [_unit(inst.n, j) + (0,) for j in rays]


def _round_row(sense: str, row, den: int):
    """The integer row (coefficients, then rhs) over ``den``, each entry
    rounded by the sense's rule: ``floor(a / den)`` for packing,
    ``ceil(a / den)`` for covering.  Returns the raw ints, not in lowest
    terms, or None when the coefficients round to the zero normal."""
    rounded = _ROUNDING[sense][0]
    out = tuple(rounded(a, den) for a in row)
    return out if any(out[:-1]) else None


def cg_cut(rel: KnapsackRelaxation):
    """Chvatal-Gomory rounding of a single aggregated row; None if it
    degenerates to the zero normal.  The row is cleared to integers
    over one denominator and rounded by `_round_row`."""
    if rel.k != 1:
        raise UsageError("CG cut needs a single aggregated row")
    ints, den = int_clear(rel.aggregated_rows[0] + (rel.aggregated_rhs[0],))
    cut = _round_row(rel.sense, ints, den)
    if cut is None:
        return None
    return make_inequality(cut[:-1], cut[-1], LE if rel.sense == PACKING else GE)
