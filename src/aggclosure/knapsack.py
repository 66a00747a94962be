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
column no row uses, which is free for packing.  A packing set is read
as segments: each feasible prefix of the first n - 1 coordinates with
the top of the last.  A one-variable hull is an interval read off the
rows, a full-dimensional two-variable hull with no free column a polygon
read off the minimal points or the segment tops by one monotone chain
(Andrew 1979), and every other hull is converted by the polyhedral
kernel from the minimal points or from the segment ends no unit step
raises.  The instance's own hull is handed out as those generators by
`instance_generators`, with no conversion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, floor
from operator import floordiv, neg

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

    def key(self):
        return (self.sense, self.A, self.b)


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
    be positive; a row's key is then the endpoint of its interval hull,
    ``floor(r / a)`` for packing or ``ceil(r / a)`` for covering, and a
    k-aggregation's the min or max of its rows' keys, as in `_hull_1d`.
    In several variables a row's key is the row in lowest terms and a
    k-aggregation's the set of its rows' keys, as in
    `KnapsackRelaxation.canonical_key`.
    """
    if len(coords) == 2:
        coef, rhs = coords
        if sense == PACKING:
            keys, combine = map(floordiv, rhs, coef), min
        else:
            keys, combine = map(neg, map(floordiv, map(neg, rhs), coef)), max
    else:
        keys, combine = map(reduce_gcd, zip(*coords)), frozenset
    if k == 1:
        return keys
    return map(combine, combinations_with_replacement(list(keys), k))


def _ceil_div(r, a) -> int:
    # exact for int and Fraction operands, where ceil(r / a) would round
    # a float quotient of two large ints
    return -(-r // a)


def column_bounds(sense: str, rows, rhs) -> list:
    """Per column j, the most a packing row allows alone, ``min floor(r /
    a_j)``, or the least a covering row needs, ``max ceil(r / a_j)``, over
    the rows with ``a_j > 0``; None for a column no row uses.  Exact on
    int and Fraction rows."""
    rounded, pick = (floordiv, min) if sense == PACKING else (_ceil_div, max)
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


def _packing_points(rel: KnapsackRelaxation, budget) -> tuple[list, set]:
    """The feasible points of a packing relaxation as segments.

    Walks the first n - 1 coordinates of the `column_bounds` box, whose
    cells are charged to ``budget`` by `_check_budget`, and gives each
    feasible prefix its top, the largest feasible last coordinate, read
    off the rows' residuals.  Returns the ``(prefix, top)`` pairs in
    lexicographic order, with the set of free columns; a pair stands for
    the points ``prefix + (v,)``, ``0 <= v <= top``, and a free column
    carries 0.
    """
    bounds = column_bounds(PACKING, rel.aggregated_rows, rel.aggregated_rhs)
    free = {j for j, c in enumerate(bounds) if c is None}
    bounds = [0 if c is None else c for c in bounds]
    if all(b >= 0 for b in bounds):
        _check_budget(bounds, budget)
    if _zero_row_empties(PACKING, rel.aggregated_rows, rel.aggregated_rhs):
        return [], free
    if any(b < 0 for b in bounds):
        return [], free
    n = rel.n
    cols = [[row[j] for row in rel.aggregated_rows] for j in range(n)]
    out: list = []
    x = [0] * (n - 1)

    def limit(j: int, residual) -> int:
        # every residual stays >= 0, so every prefix reached has a segment
        top = bounds[j]
        if j not in free:
            for res, c in zip(residual, cols[j]):
                if c > 0:
                    top = min(top, res // c)
        return top

    def descend(j: int, residual) -> None:
        if j == n - 1:
            out.append((tuple(x), limit(j, residual)))
            return
        for v in range(limit(j, residual) + 1):
            x[j] = v
            if v:
                descend(j + 1, tuple(rt - v * ct for rt, ct in zip(residual, cols[j])))
            else:
                descend(j + 1, residual)
        x[j] = 0

    descend(0, tuple(rel.aggregated_rhs))
    return out, free


def _covering_minimal(rel: KnapsackRelaxation, bounds) -> list:
    # depth-first over the first n - 1 coordinates of the box; the last
    # takes its smallest feasible value, so each prefix gives at most one
    # candidate and the candidates come in lex order.  A candidate is
    # minimal when no unit step down along the prefix stays feasible
    n = rel.n
    cols = [[row[j] for row in rel.aggregated_rows] for j in range(n)]
    *prefix_cols, last = cols
    out: list = []
    x = [0] * n

    def descend(j: int, residual) -> None:
        if j == n - 1:
            v = 0
            for res, a in zip(residual, last):
                if res > 0:
                    if not a:
                        return
                    v = max(v, _ceil_div(res, a))
            slack = [v * a - res for res, a in zip(residual, last)]
            for xi, col in zip(x, prefix_cols):
                if xi and all(s >= a for s, a in zip(slack, col)):
                    return
            x[j] = v
            out.append(tuple(x))
            return
        for v in range(bounds[j] + 1):
            x[j] = v
            if v:
                residual = tuple(r - a for r, a in zip(residual, cols[j]))
            descend(j + 1, residual)
            # once every row holds, a larger x_j can step down
            if all(r <= 0 for r in residual):
                break

    descend(0, tuple(rel.aggregated_rhs))
    return out


def lattice_points(rel: KnapsackRelaxation, budget: int = DEFAULT_CELL_BUDGET):
    """Feasible integer points of the relaxation.

    Packing returns every feasible point over the bounded coordinates (zero
    columns are reported as free and carry coordinate 0 in the points),
    expanded from the segments of `_packing_points`.
    Covering returns only the domination-minimal feasible points; together
    with the orthant cone they generate the full up-closed hull.
    """
    if rel.sense == COVERING:
        _zero_row_empties(COVERING, rel.aggregated_rows, rel.aggregated_rhs)
        bounds = [
            max(c or 0, 0)
            for c in column_bounds(COVERING, rel.aggregated_rows, rel.aggregated_rhs)
        ]
        # the search walks only the first n - 1 coordinates of the box
        _check_budget(bounds[:-1], budget)
        return _covering_minimal(rel, bounds), set()
    segments, free = _packing_points(rel, budget)
    return [prefix + (v,) for prefix, top in segments for v in range(top + 1)], free


_HULL_MEMO: dict = {}


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


def _packing_core(segments) -> list:
    # the points, in lexicographic order, that no unit increment inside
    # their support keeps feasible; every hull vertex survives (a feasible
    # increment plus down-closure writes p as a midpoint) and survivors
    # shrink the reduction workload.  Inside a segment the last coordinate
    # steps up to its top, so only the ends (prefix, 0) and (prefix, top)
    # can survive, and a prefix coordinate steps up when the raised prefix
    # has a segment that reaches as high
    tops = dict(segments)
    out = []
    for prefix, top in segments:
        for v in ((0, top) if top else (0,)):
            if not any(
                c and tops.get(prefix[:j] + (c + 1,) + prefix[j + 1 :], -1) >= v
                for j, c in enumerate(prefix)
            ):
                out.append(prefix + (v,))
    return out


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


def _packing_polygon(segments) -> Polyhedron:
    """Full-dimensional packing hull in two variables with no free column,
    read off the segments of `_packing_points` by one monotone chain.

    The set is down-closed, so its hull is the polygon of the staircase,
    the top x2 of each x1 with the two axis points, traversed
    counterclockwise.  Every edge keeps the side on its left.
    """
    last = segments[-1][0][0]
    stair = sorted({(0, 0), (last, 0), *((x1, top) for (x1,), top in segments)})
    ring = _left_chain(stair)[:-1] + _left_chain(reversed(stair))[:-1]
    rows = map(_left_side, ring, ring[1:] + ring[:1])
    return _build(2, [p + (1,) for p in ring], rows, 2)


def integer_hull(
    rel: KnapsackRelaxation, budget: int = DEFAULT_CELL_BUDGET
) -> Polyhedron:
    """Exact integer hull of the relaxation as a canonical polyhedron.

    The one hull routine.  In one variable the hull is one of a few
    shared intervals, read straight off the rows with no memo entry;
    otherwise it is memoized by `KnapsackRelaxation.canonical_key`, so
    every caller shares hulls with every other.  A covering hull comes
    from the minimal points of `lattice_points`, a packing hull from the
    segments of `_packing_points`, which charge the same lattice box to
    ``budget``.  In two variables with no free column a full-dimensional
    hull is written down as the polygon of `_covering_polygon` or
    `_packing_polygon`; every other hull, a packing segment or point
    among them, is converted by `vrep_to_hrep` from the minimal points
    or the packing core, and the kernel writes equalities in its own
    reduced form.
    """
    if rel.n == 1:
        return _hull_1d(rel.sense, rel.aggregated_rows, rel.aggregated_rhs)
    key = rel.canonical_key()
    hull = _HULL_MEMO.get(key)
    if hull is not None:
        return hull
    if rel.sense == COVERING:
        points, _ = lattice_points(rel, budget)
        if not points:
            hull = empty_polyhedron(rel.n)
        elif rel.n == 2:
            # a covering hull in two variables holds a quadrant
            hull = _covering_polygon(points)
        else:
            rays = [_unit(rel.n, j) for j in range(rel.n)]
            hull = vrep_to_hrep(points, rays, budget=budget)
    else:
        segments, free = _packing_points(rel, budget)
        if not segments:
            hull = empty_polyhedron(rel.n)
        elif rel.n == 2 and not free and (
            # the set holds the origin and is full-dimensional when both
            # coordinates leave 0
            segments[-1][0][0] and max(top for _, top in segments)
        ):
            hull = _packing_polygon(segments)
        else:
            rays = [_unit(rel.n, j) for j in sorted(free)]
            hull = vrep_to_hrep(_packing_core(segments), rays, budget=budget)
    _HULL_MEMO[key] = hull
    return hull


def instance_generators(inst: Instance, budget: int = DEFAULT_CELL_BUDGET) -> list:
    """Homogeneous generators of the instance's own integer hull ``P_I``,
    with no hull built.

    The m rows are read as one relaxation by the walkers `integer_hull`
    uses, which charge the lattice box to ``budget``: the `_packing_core`
    of the segments of `_packing_points` with a unit ray per free column,
    or the minimal points of `lattice_points` with every unit ray.  The
    points come first, in lexicographic order, then the rays by column.
    """
    rel = KnapsackRelaxation(inst.sense, inst.n, inst.A, inst.b)
    if inst.sense == COVERING:
        points, _ = lattice_points(rel, budget)
        free = range(inst.n)
    else:
        segments, free = _packing_points(rel, budget)
        points = _packing_core(segments)
    return [p + (1,) for p in points] + [_unit(inst.n, j) + (0,) for j in sorted(free)]


def cg_cut(rel: KnapsackRelaxation):
    """Chvatal-Gomory rounding of a single aggregated row; None if it
    degenerates to the zero normal."""
    if rel.k != 1:
        raise UsageError("CG cut needs a single aggregated row")
    row = rel.aggregated_rows[0]
    r = rel.aggregated_rhs[0]
    if rel.sense == PACKING:
        coeffs = [floor(a) for a in row]
        bound, sense = floor(r), LE
    else:
        coeffs = [ceil(a) for a in row]
        bound, sense = ceil(r), GE
    if not any(coeffs):
        return None
    return make_inequality(coeffs, bound, sense)
