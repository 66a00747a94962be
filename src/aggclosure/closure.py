"""Aggregation closure of packing and covering knapsack systems.

The closure of an instance is the intersection, over every nonnegative
aggregation of its rows, of the integer hull of the resulting single-row
(or k-row) relaxation.  That intersection ranges over a continuum, so it
is approximated from outside by sampling aggregations on a rational grid
(`sampled_closure`) and computed exactly, grid permitting, as the
intersection of two finitely generated outer bodies:

* ``L``: for each coordinate j, the closure of the sub-instance obtained
  by relaxing coordinate j (drop the column for packing; keep only the
  rows that do not use the column for covering), embedded back with the
  coordinate left free.  Computed recursively on fewer variables.
* ``K``: the intersection of the sampled facets whose tight lattice
  tuples ``S`` survive a domination filter; each tuple carries the
  facet it was read from, so K's rows are those facets.

Their intersection with the nonnegative orthant reproduces the closure
whenever the sample grid is fine enough to expose every needed facet;
for a single-row instance any grid does, which is what the verification
checks lean on.  The closure is one kernel run over the tuple rows, the
orthant and ``L``'s parts; ``L`` and ``K`` are built only on request.

All geometry is exact rational arithmetic; nothing here uses floats.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from functools import cache
from math import comb
from operator import add

from .errors import ResourceBudgetError, UsageError
from .knapsack import (
    Aggregation,
    COVERING,
    DEFAULT_CELL_BUDGET,
    Instance,
    PACKING,
    _hull_1d,
    build_relaxation,
    column_bounds,
    hull_keys,
    integer_hull,
)
from .polyhedra import (
    LE,
    LinearInequality,
    Polyhedron,
    embed_with_free_axis,
    facet_lattice_tuple,
    homogenize,
    hrep_to_vrep,
    intersect,
    orthant,
    poly_equal,
    positive_normal_facets,
    whole_space,
)
from .rational import Rat, as_vector, reduce_gcd
from .record import Record, set_fields


class SampleScheme(Record):
    """Grid of aggregation weights used to approximate the closure.

    ``grid_denominator`` D samples every weight vector v/D with v a
    nonnegative integer composition of D, so all sampled weights sum
    to one.  Unit vectors are the extreme compositions and therefore
    present for every D.  ``k`` picks how many aggregated rows are
    formed at once.  ``budget`` caps each enumeration the scheme's work
    makes: the aggregations of one grid walk, the 3^m - 1 aggregations
    of one refinement round of `separate`, the lattice cells of one
    hull, the ray pairs of one kernel run.
    """

    __slots__ = ("grid_denominator", "k", "budget")

    def __init__(
        self, grid_denominator: int = 4, k: int = 1, budget: int = DEFAULT_CELL_BUDGET,
    ) -> None:
        if not isinstance(grid_denominator, int) or grid_denominator < 1:
            raise UsageError("grid denominator must be a positive integer")
        if not isinstance(k, int) or k < 1:
            raise UsageError("aggregation count k must be a positive integer")
        if not isinstance(budget, int) or budget < 1:
            raise UsageError("work budget must be a positive integer")
        set_fields(self, grid_denominator, k, budget)


class FacetTuple(Record):
    """n affinely independent lattice points tight at a sampled facet.

    The points are stored in increasing lexicographic order.  The source
    fields record which sampled aggregation and which facet (in lowest
    integer terms) produced the tuple; ``source_facet`` is the tuple's
    row of K.  Both are None only for tuples built directly from points,
    which can be filtered but give no K.
    """

    __slots__ = ("points", "source_lambda", "source_facet")

    def __init__(
        self, points: tuple, source_lambda: Aggregation | None = None,
        source_facet: LinearInequality | None = None,
    ) -> None:
        set_fields(self, points, source_lambda, source_facet)


class ClosureArtifacts(Record):
    """Everything the closure construction produces for one instance;
    ``L`` is the intersection of ``parts``, built with ``K`` on request."""

    __slots__ = ("instance", "sample", "parts", "closure", "gamma", "T_sample", "S")

    def __init__(
        self, instance: Instance, sample: SampleScheme, parts: tuple,
        closure: Polyhedron, gamma: int | None, T_sample: tuple, S: tuple,
    ) -> None:
        set_fields(self, instance, sample, parts, closure, gamma, T_sample, S)

    def L(self) -> Polyhedron:
        return intersect(self.parts, self.sample.budget)

    def K(self) -> Polyhedron:
        return build_K(self.S, self.instance.n, self.sample.budget)


class SeparationResult(Record):
    """Outcome of separating a point from the sampled closure."""

    __slots__ = ("inside", "cut", "violation", "witness")

    def __init__(
        self, inside: bool, cut: LinearInequality | None = None,
        violation: Rat | None = None, witness: Aggregation | None = None,
    ) -> None:
        set_fields(self, inside, cut, violation, witness)


def _grid_bars(d: int, m: int):
    # stars and bars: the bar positions of every composition of d into m
    # parts, in the lexicographic order of the compositions
    return itertools.combinations(range(d + m - 1), m - 1)


def _composition(bars, d: int) -> tuple:
    # part i is the gap between bars i - 1 and i, with outer bars at -1
    # and d + m - 1
    return tuple(
        hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (d + len(bars),))
    )


def _check_grid_budget(m: int, scheme: SampleScheme) -> None:
    # one walk makes C(d + m - 1, m - 1) multichoose k aggregations
    columns = comb(scheme.grid_denominator + m - 1, m - 1)
    count = comb(columns + scheme.k - 1, scheme.k)
    if count > scheme.budget:
        raise ResourceBudgetError(
            f"grid walk of {count} aggregations exceeds budget {scheme.budget}"
        )


def _rational_aggregation(cols) -> Aggregation:
    # the rational weights v/Σv of integer columns v, which is v/D for a
    # composition v of D
    return Aggregation(
        tuple(tuple(Fraction(v, total) for v in col) for col, total in zip(cols, map(sum, cols)))
    )


def sample_lambdas(m: int, scheme: SampleScheme) -> list[Aggregation]:
    """All grid aggregations for m rows, in lexicographic order.

    Each column is v/D for a nonnegative integer composition v of D, so
    it sums to one.  Compositions of a fixed D are distinct and come in
    lexicographic order, so no column repeats; for k >= 2 the k-tuples
    of columns are taken up to column order, as
    ``combinations_with_replacement`` of the columns.  The compositions
    are read off the bar positions of `_grid_bars`, in the order in
    which `_grid_rows` yields their aggregated rows to `_grid_hulls`,
    and a grid of more than ``scheme.budget`` aggregations raises
    `ResourceBudgetError`.
    """
    if m < 1:
        raise UsageError("need at least one row to aggregate")
    _check_grid_budget(m, scheme)
    d = scheme.grid_denominator
    columns = [_composition(bars, d) for bars in _grid_bars(d, m)]
    return [
        _rational_aggregation(comps)
        for comps in itertools.combinations_with_replacement(columns, scheme.k)
    ]


def _grid_values(col, d: int):
    # Σ v_t·col_t over the compositions v of d in `_grid_bars` order,
    # lazily.  Over the last two parts, with entries c and z, the sums
    # for the compositions of r are the progression r·z + v·(c - z),
    # v = 0..r, made on demand.  Any parts between the two leading ones
    # and the last two go into tail[r], the sums over the compositions
    # of r into the trailing parts, built from the back; it is a factor
    # (d + m - 1) / (m - 1) smaller than the grid.  The leading parts
    # are walked one chunk per choice, and no chunk is empty
    if len(col) == 1:
        return iter((d * col[0],))
    *head, c, z = col
    step = c - z

    def pair(start, r):
        start += r * z
        if step:
            return range(start, start + (r + 1) * step, step)
        return itertools.repeat(start, r + 1)

    lead, mid = head[:2], head[2:]
    if not lead:
        prefixes = [(0, d)]
    elif len(lead) == 1:
        prefixes = ((u * lead[0], d - u) for u in range(d + 1))
    else:
        prefixes = (
            (u * lead[0] + v * lead[1], d - u - v)
            for u in range(d + 1)
            for v in range(d - u + 1)
        )
    if not mid:
        return itertools.chain.from_iterable(itertools.starmap(pair, prefixes))
    tail = [list(pair(0, r)) for r in range(d + 1)]
    for h in reversed(mid):
        tail = [
            [v * h + x for v in range(r + 1) for x in tail[r - v]]
            for r in range(d + 1)
        ]
    chunks = (map(add, itertools.repeat(start), tail[r]) for start, r in prefixes)
    return itertools.chain.from_iterable(chunks)


def _grid_rows(inst: Instance, d: int) -> list:
    # the rows v·A | v·b of the compositions v of d, one lazy iterator
    # per coordinate
    return [_grid_values(col, d) for col in list(zip(*inst.A)) + [inst.b]]


@cache
def _grid_hulls(inst: Instance, scheme: SampleScheme) -> tuple:
    """The distinct integer hulls of the grid aggregations.

    Walks the aggregations in `sample_lambdas` order as their integer
    compositions v: a hull does not change when its row is scaled, so
    the aggregated rows v·A | v·b are integer.  One pass reads the rows
    off `_grid_rows`, which sums each coordinate over the trailing parts
    once and adds the leading parts' share a chunk at a time, keys every
    aggregation's hull by `hull_keys` and keeps, in step, the bar
    positions of `_grid_bars` of the first aggregation of each key.
    Only those build ``integer_hull(build_relaxation(inst, v))``, with
    int rows.  With k = 1 the grid is streamed; with k >= 2 one key per
    composition is held.  A valid one-variable instance has every
    a_i >= 1, so v·a >= D > 0 as `hull_keys` needs.
    Returns one ``(compositions, hull)`` pair per hull key, with the
    compositions of its first aggregation, in order of first appearance;
    keys and hull objects correspond one to one, so no hull repeats.
    `_rational_aggregation` gives back the rational weights.  A grid of
    more than ``scheme.budget`` aggregations raises `ResourceBudgetError`
    before the walk.  Cached per ``(inst, scheme)``, so the closure, its
    tuples, separation and the `gamma` check share one walk.
    """
    _check_grid_budget(inst.m, scheme)
    d, k = scheme.grid_denominator, scheme.k
    bars = _grid_bars(d, inst.m)
    walk = zip(bars) if k == 1 else itertools.combinations_with_replacement(bars, k)
    first: dict = {}
    keys = hull_keys(inst.sense, _grid_rows(inst, d), k)
    deque(map(first.setdefault, keys, walk), maxlen=0)
    hulls = []
    for picked in first.values():
        comps = tuple(_composition(c, d) for c in picked)
        hulls.append((comps, integer_hull(build_relaxation(inst, comps), scheme.budget)))
    return tuple(hulls)


@cache
def sampled_closure(inst: Instance, scheme: SampleScheme) -> Polyhedron:
    """Intersection of the integer hulls of all sampled aggregations.

    Outer approximation of the closure; exact for m = 1 at any grid and
    for one variable at any grid and any k.  In one variable every
    aggregated ratio ``v·b / v·a`` is a weighted mediant of the row
    ratios, so the tightest rounding is reached at a unit weight, which
    every grid and every k-tuple walk holds: the sampled closure is
    `closure_1d`, with no walk and no grid budget.  In several variables
    each distinct hull of `_grid_hulls` enters one intersection once,
    and a grid of more than ``scheme.budget`` aggregations raises
    `ResourceBudgetError` before the walk.  Cached per ``(inst, scheme)``.
    """
    if inst.n == 1:
        return closure_1d(inst)
    return intersect([hull for _, hull in _grid_hulls(inst, scheme)], scheme.budget)


def saturated(art: ClosureArtifacts) -> bool:
    """Whether ``K ∩ L ∩ orthant`` equals the sampled closure exactly.

    ``art.closure`` is that outer intersection in every branch of
    `aggregation_closure`, so the two are compared as canonical
    inequality systems.
    """
    return poly_equal(art.closure, sampled_closure(art.instance, art.sample))


def closure_1d(inst: Instance) -> Polyhedron:
    """Closed form in one variable.

    Every aggregated rhs/coefficient ratio is a weighted mediant of the
    row ratios, so the extreme rounding is attained at a unit weight:
    packing keeps 0 <= x <= min_i floor(b_i / a_i), covering keeps
    x >= max_i ceil(b_i / a_i).  That is `integer_hull`'s one-variable
    hull of all rows taken at once, `_hull_1d`.
    """
    if inst.n != 1:
        raise UsageError("closed form only applies to one variable")
    return _hull_1d(inst.sense, inst.A, inst.b)


def build_Qj(inst: Instance, j: int) -> Instance | None:
    """Sub-instance with coordinate j (1-based) relaxed to be free.

    Packing drops column j and keeps every row; covering keeps only the
    rows with a zero in column j, then drops the column.  Returns None
    when nothing constrains the remaining variables, i.e. the relaxed
    set is the whole nonnegative orthant.
    """
    if not 1 <= j <= inst.n:
        raise UsageError("column index out of range")
    if inst.n < 2:
        raise UsageError("dropping the only column leaves no variables")
    axis = j - 1
    if inst.sense == PACKING:
        rows = tuple(row[:axis] + row[axis + 1 :] for row in inst.A)
        # `Instance` strips the rows left all zero
        return Instance(PACKING, rows, inst.b) if any(map(any, rows)) else None
    keep = [i for i in range(inst.m) if inst.A[i][axis] == 0]
    if not keep:
        return None
    rows = tuple(inst.A[i][:axis] + inst.A[i][axis + 1 :] for i in keep)
    return Instance(COVERING, rows, tuple(inst.b[i] for i in keep))


def build_L(inst: Instance, scheme: SampleScheme) -> tuple:
    """The parts whose intersection is ``L``: over j, the closure of the
    j-relaxed sub-instance, each embedded with coordinate j free."""
    if inst.n < 2:
        raise UsageError("the recursive bound needs at least two variables")
    parts = []
    for j in range(1, inst.n + 1):
        sub = build_Qj(inst, j)
        if sub is None:
            parts.append(orthant(inst.n))
            continue
        art = aggregation_closure(sub, scheme)
        parts.append(embed_with_free_axis(art.closure, j - 1))
    return tuple(parts)


def compute_gamma(inst: Instance) -> int:
    """Ceiling of the worst rhs/coefficient ratio over all nonzero entries.

    For covering instances, adding gamma to any coordinate of a point of
    L lands inside every aggregated hull; columns that appear in no row
    are excluded from the maximum.
    """
    if inst.sense != COVERING:
        raise UsageError("the shift bound is defined for covering instances")
    # the ceiling of the largest ratio is the largest of the ceilings
    ceilings = [c for c in column_bounds(COVERING, inst.A, inst.b) if c is not None]
    if not ceilings:
        raise UsageError("every column is zero")
    return max(ceilings)


def enumerate_tuples(inst: Instance, scheme: SampleScheme) -> list[FacetTuple]:
    """Tight lattice tuples of every positive-normal facet of every
    sampled hull, deduplicated by point tuple and sorted.

    Hulls that are not full-dimensional have no facets with strictly
    positive normals and contribute nothing.  A packing facet with a
    nonpositive offset cannot be rescaled to offset one; such facets do
    not arise for full-dimensional packing hulls (the origin is interior
    to the orthant face they would have to cut), but the guard keeps the
    construction honest and skips such a facet if one ever arises.
    """
    found: dict = {}
    for comps, hull in _grid_hulls(inst, scheme):
        if not hull.feasible or hull.affine_dim < hull.dim:
            continue
        for facet in positive_normal_facets(hull):
            if inst.sense == PACKING and facet.rhs <= 0:
                continue
            pts = facet_lattice_tuple(hull, facet)
            if pts not in found:
                found[pts] = FacetTuple(
                    points=pts,
                    source_lambda=_rational_aggregation(comps),
                    source_facet=facet,
                )
    return [found[key] for key in sorted(found)]


def _flat_key(t: FacetTuple):
    return tuple(itertools.chain.from_iterable(sorted(t.points)))


def _dominates(a, b) -> bool:
    # componentwise a <= b with a != b
    return a != b and all(x <= y for x, y in zip(a, b))


def filter_minimal_tuples(tuples, sense: str) -> list[FacetTuple]:
    """Domination antichain of a tuple family.

    Tuples are compared componentwise on the concatenation of their
    points in within-tuple lexicographic order.  Packing keeps the
    minimal tuples, covering keeps the tuples no other tuple strictly
    dominates from above.  Duplicates collapse to their first instance.
    """
    if sense not in (PACKING, COVERING):
        raise UsageError(f"unknown sense: {sense!r}")
    first: dict = {}
    for t in tuples:
        key = _flat_key(t)
        if key not in first:
            first[key] = t
    # a strict dominator has strictly smaller (packing) or larger
    # (covering) coordinate sum, so one sweep against kept tuples is
    # enough: domination is transitive through dropped tuples
    reverse = sense == COVERING
    ordered = sorted(first.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=reverse)
    kept_keys: list = []
    kept: list[FacetTuple] = []
    for key, t in ordered:
        if reverse:
            beaten = any(_dominates(key, other) for other in kept_keys)
        else:
            beaten = any(_dominates(other, key) for other in kept_keys)
        if not beaten:
            kept_keys.append(key)
            kept.append(t)
    return sorted(kept, key=_flat_key)


def build_K(tuples, dim: int, budget: int = DEFAULT_CELL_BUDGET) -> Polyhedron:
    """Intersection of the sampled facets the tuples were read from.

    Each tuple's ``source_facet`` is its row of K: the tuple's n affinely
    independent points lie on that facet and on no other hyperplane.
    The whole space when there are no tuples.
    """
    if not tuples:
        return whole_space(dim)
    return hrep_to_vrep([t.source_facet for t in tuples], dim, budget)


@cache
def aggregation_closure(inst: Instance, scheme: SampleScheme) -> ClosureArtifacts:
    """Closure of an instance under all sampled aggregations.

    One variable uses the closed form directly.  A covering instance
    with a column no row uses splits off that coordinate as a free
    factor and recurses on the rest.  Otherwise the closure is the
    intersection of the recursive bound L, the tuple body K, and the
    nonnegative orthant, in one kernel run over their rows.  The shift
    bound gamma is attached for covering instances.  Cached per
    ``(inst, scheme)``, the instance id included; the sub-instances of
    `build_Qj` carry no id, so parents share them.
    """
    n = inst.n
    T = S = ()
    free = None
    if inst.sense == COVERING and n > 1:
        free = next((j for j in range(n) if not any(row[j] for row in inst.A)), None)
    if n == 1:
        body = closure_1d(inst)
        parts = (body,)
    elif free is not None:
        # the free coordinate factors out of every aggregated hull, so
        # the closure is a cylinder over the reduced closure
        inner = aggregation_closure(build_Qj(inst, free + 1), scheme)
        body = embed_with_free_axis(inner.closure, free)
        parts = (body,)
    else:
        parts = build_L(inst, scheme)
        T = tuple(enumerate_tuples(inst, scheme))
        S = tuple(filter_minimal_tuples(T, inst.sense))
        rows = [t.source_facet for t in S]
        rows += [iq for part in (orthant(n), *parts) for iq in part.hrep]
        body = hrep_to_vrep(rows, n, scheme.budget)
    gamma = compute_gamma(inst) if inst.sense == COVERING and free is None else None
    return ClosureArtifacts(
        instance=inst,
        sample=scheme,
        parts=parts,
        closure=body,
        gamma=gamma,
        T_sample=T,
        S=S,
    )


def _violation(ineq: LinearInequality, g) -> int:
    # how far the homogeneous point ``g`` lies outside the row, times g's den
    gap = ineq.gap(g)
    return gap if ineq.sense == LE else -gap


def separate(
    inst: Instance, scheme: SampleScheme, x_star, rounds: int = 1,
) -> SeparationResult:
    """Look for a sampled hull facet that cuts off a nonnegative point.

    Scans the grid for the facet with the largest violation in lowest
    integer terms, then refines ``rounds`` times around the best weights,
    the step halved each round; the closure does not depend on rounds.
    Every weight stays an integer vector c: a grid weight is its
    composition of D, and round r tries, for each δ in {-1, 0, 1}^m
    other than 0, the direction of c/Σc + δ/(D·2^r) around the best c
    so far, ``c·(D·2^r) + δ·Σc`` in lowest terms, unless an entry is
    negative.  Only the winner becomes rational, as the witness c/Σc.
    Refinement runs only at k = 1 in several variables.  In one
    variable the scan's cut is final: every ratio ``v·b / v·a`` is a
    weighted mediant of the row ratios, so the tightest endpoint sits
    at a unit weight, which every grid holds.  The k >= 2 plain scan is
    reachable only through the API, as the CLI's `separate` has no
    ``--k``.  The 3^m - 1 candidates a round are counted before the
    first round, and more than ``scheme.budget`` raise `ResourceBudgetError`.
    """
    if not isinstance(rounds, int) or rounds < 0:
        raise UsageError("refinement rounds must be a nonnegative integer")
    x = as_vector(x_star)
    if len(x) != inst.n:
        raise UsageError("point dimension does not match the instance")
    if any(c < 0 for c in x):
        raise UsageError("point must be nonnegative")
    # violations are compared as integers over the one denominator of x
    xg = homogenize(x)

    best: tuple[int, tuple, LinearInequality] | None = None

    def consider(hull: Polyhedron, comps: tuple) -> None:
        nonlocal best
        if not hull.feasible:
            return
        for ineq in hull.hrep:
            gap = _violation(ineq, xg)
            if gap > 0 and (best is None or gap > best[0]):
                best = (gap, comps, ineq)

    # a repeated hull has the same gaps and cannot beat its first weights
    for comps, hull in _grid_hulls(inst, scheme):
        consider(hull, comps)

    if best is not None and inst.n > 1 and scheme.k == 1 and rounds:
        count = 3**inst.m - 1
        if count > scheme.budget:
            raise ResourceBudgetError(
                f"separation refinement of {count} aggregations exceeds budget {scheme.budget}"
            )
        for round_no in range(1, rounds + 1):
            (center,) = best[1]
            scale, total = scheme.grid_denominator * 2**round_no, sum(center)
            for delta in itertools.product((-1, 0, 1), repeat=inst.m):
                if not any(delta):
                    continue
                cand = tuple(c * scale + d * total for c, d in zip(center, delta))
                if any(w < 0 for w in cand) or not any(cand):
                    continue
                cand = reduce_gcd(cand)
                consider(integer_hull(build_relaxation(inst, (cand,)), scheme.budget), (cand,))

    if best is None:
        return SeparationResult(inside=True)
    return SeparationResult(
        inside=False, cut=best[2], violation=Fraction(best[0], xg[-1]),
        witness=_rational_aggregation(best[1]),
    )
