"""Exact rational polyhedra with both inequality and generator descriptions.

The kernel runs on plain integers: no floating point, no external geometry
dependency, and every representation is canonical so polyhedra can be
compared field-by-field.

An H-representation is a sorted tuple of canonical ``LinearInequality`` rows;
lower-dimensional sets carry each implied equality as an opposed pair of
inequalities.  A V-representation is one tuple of gcd-reduced homogeneous
integer generators: a vertex x (a point of a minimal face when a lineality
space is present) is stored as ``(x * den, den)`` with ``den >= 1``, and an
extreme ray r as ``(r, 0)``.  Vertices come first, in the lexicographic
order of the points, then the rays in integer order.  A row holds at a
generator ``g`` exactly when ``normal . g[:-1]`` compares with
``rhs * g[-1]`` as its sense says, so every membership, tightness and
containment test is one integer dot product.  ``Fraction`` is built only
by `Polyhedron.vrep_points` and when rational input is converted.

Both conversions run one integer double description routine (Motzkin et
al. 1953; Fukuda & Prodon 1996) on a pointed cone and read the incidence
off the zero set it returns with each ray.  The routine starts from a
simplicial cone ``{v : B v >= 0}``, whose rays it reads off ``B^-1`` by
one elimination; when the cone is full-dimensional, the rows of ``B`` are
the independent rows the conversion's own echelon has already found.
H->V takes the extreme rays of the homogenized cone
``{(x, t) : rows, t >= 0}`` after splitting off the lineality space.  The
input rows tight on every ray span the implied equalities, and the rows
whose tight sets are maximal among the proper ones cut the facets, except
the face at infinity ``t >= 0``; in a full-dimensional result each such
row is itself the facet.  V->H takes the extreme rays of the polar cone,
which are the facet normals, and keeps a generator as extreme when its
set of tight facets is maximal among the proper ones.  Each run counts
the ray pairs it tests against a work budget.

Shapes whose canonical form is known, `orthant`, `whole_space` and the
one-variable `interval`, are written down and run no double description;
`knapsack` writes down its two-variable polygons the same way, through
`_build`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import DegenerateFacetError, ResourceBudgetError
from .rational import (
    IntEchelon,
    int_echelon,
    int_row_basis,
    IntVector,
    Rat,
    RatVector,
    idot,
    int_clear,
    reduce_gcd,
)
from .record import Record, set_fields

LE = "<="
GE = ">="

# default work budget: lattice cells of one enumeration box, and ray pairs
# tested by one double description run
DEFAULT_CELL_BUDGET = 10**7

_SENSES = (LE, GE)


class LinearInequality(Record):
    """One canonical half-space: ``normal . x sense rhs``.

    Entries are integers with overall gcd 1 (rhs included) and the first
    nonzero coefficient is positive, so equal half-spaces compare equal.
    """

    __slots__ = ("normal", "rhs", "sense")

    def __init__(self, normal: tuple[int, ...], rhs: int, sense: str) -> None:
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        if not any(normal):
            raise ValueError("zero normal")
        first = next(a for a in normal if a)
        if first < 0:
            raise ValueError("normal not sign-normalized")
        g = 0
        for a in normal + (rhs,):
            g = gcd(g, a)
        if g != 1:
            raise ValueError("entries not gcd-reduced")
        set_fields(self, normal, rhs, sense)

    def gap(self, g: IntVector) -> int:
        """``normal . g[:-1] - rhs * g[-1]`` at a homogeneous generator."""
        return idot(self.normal, g) - self.rhs * g[-1]

    def holds_at(self, g: IntVector) -> bool:
        # `gap` written out, as a hot path: `verify._escape_witness` runs
        # this for every row at every generator of the instance's hull
        v = idot(self.normal, g) - self.rhs * g[-1]
        return v <= 0 if self.sense == LE else v >= 0

    def evaluate(self, x: RatVector) -> Rat:
        return idot(self.normal, x)

    def admits_point(self, x: RatVector) -> bool:
        return self.holds_at(homogenize(x))

    def render(self) -> str:
        coeffs = " ".join(str(a) for a in self.normal)
        return f"{coeffs} {self.sense} {self.rhs}"


def make_inequality(normal, rhs, sense: str) -> LinearInequality:
    """Canonicalize arbitrary rational data into a ``LinearInequality``."""
    if sense not in _SENSES:
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
    return LinearInequality(coeffs, r, sense)


def _nonneg_axis(iq: LinearInequality) -> int | None:
    # Rows of the form x_j >= 0 sort ahead of everything else.
    if iq.sense != GE or iq.rhs != 0:
        return None
    support = [j for j, a in enumerate(iq.normal) if a]
    if len(support) == 1 and iq.normal[support[0]] == 1:
        return support[0]
    return None


def _hrep_sort_key(iq: LinearInequality):
    axis = _nonneg_axis(iq)
    if axis is not None:
        return (0, axis)
    return (1, iq.normal, iq.rhs, 0 if iq.sense == LE else 1)


def sort_hrep(ineqs) -> tuple[LinearInequality, ...]:
    return tuple(sorted(set(ineqs), key=_hrep_sort_key))


class Polyhedron(Record):
    """A polyhedron carrying both descriptions, kept mutually consistent.

    ``generators`` is the V-representation as homogeneous integer vectors,
    vertices ``(x * den, den)`` first and rays ``(r, 0)`` after them (see
    the module docstring); `vrep_points` and `vrep_rays` read it back as
    rational vertices and integer rays.

    ``==`` compares the stored representations, not the sets: with a
    lineality space, which point of a minimal face is kept depends on the
    input, so two descriptions of one set may compare unequal.
    `poly_equal` is the test for set equality.
    """

    __slots__ = ("dim", "hrep", "generators", "feasible", "integral_flag", "affine_dim")

    def __init__(
        self, dim: int, hrep: tuple[LinearInequality, ...],
        generators: tuple[IntVector, ...], feasible: bool, integral_flag: bool,
        affine_dim: int,
    ) -> None:
        set_fields(self, dim, hrep, generators, feasible, integral_flag, affine_dim)

    @property
    def vrep_points(self) -> tuple[RatVector, ...]:
        return tuple(
            tuple(Fraction(a, g[-1]) for a in g[:-1]) for g in self.generators if g[-1]
        )

    @property
    def vrep_rays(self) -> tuple[IntVector, ...]:
        return tuple(g[:-1] for g in self.generators if not g[-1])

    def render_lines(self) -> list[str]:
        if not self.feasible:
            return ["infeasible"]
        return [iq.render() for iq in self.hrep]


def homogenize(x) -> IntVector:
    """The homogeneous generator ``(x * den, den)`` of a rational point."""
    ints, den = int_clear(tuple(x))
    return ints + (den,)


def contains(poly: Polyhedron, x) -> bool:
    g = homogenize(x)
    if len(g) - 1 != poly.dim:
        raise ValueError("dimension mismatch")
    if not poly.feasible:
        return False
    return all(iq.holds_at(g) for iq in poly.hrep)


def _canonical_rays(rays) -> list[IntVector]:
    out = set()
    for r in rays:
        ints = reduce_gcd(int_clear(tuple(r))[0])
        if any(ints):
            out.add(ints + (0,))
    return sorted(out)


def _canonical_order(generators) -> list[IntVector]:
    # vertices in the lexicographic order of the points (scaled to one
    # common denominator they compare as integer tuples), then sorted rays
    verts = [g for g in generators if g[-1]]
    den = lcm(*(g[-1] for g in verts))
    verts.sort(key=lambda g: tuple(a * (den // g[-1]) for a in g[:-1]))
    return verts + sorted(g for g in generators if not g[-1])


def _build(dim, generators, hrep, affine_dim) -> Polyhedron:
    generators = tuple(_canonical_order(generators))
    return Polyhedron(
        dim=dim,
        hrep=sort_hrep(hrep),
        generators=generators,
        feasible=True,
        integral_flag=all(g[-1] <= 1 for g in generators),
        affine_dim=affine_dim,
    )


def empty_polyhedron(dim: int, hrep=()) -> Polyhedron:
    return Polyhedron(
        dim=dim,
        hrep=sort_hrep(hrep),
        generators=(),
        feasible=False,
        integral_flag=False,
        affine_dim=-1,
    )


# ---------------------------------------------------------------------------
# exact feasibility LP (phase one simplex, Bland's rule); the kernel no
# longer calls it, but the benchmark's tracer (bench/tracer.py) still wraps
# it by name


def lp_feasible(columns: list[RatVector], rhs: RatVector) -> bool:
    """Whether ``rhs`` is a nonnegative combination of ``columns``. Exact.

    Phase one runs on an integer tableau: every row, the cost row
    included, is a positive multiple of its rational counterpart, so the
    sign tests and the cross-multiplied ratio tests pick the same pivots
    that rational arithmetic would.
    """
    m = len(rhs)
    k = len(columns)
    # tableau columns: k structural + m artificial + rhs
    width = k + m
    tab: list[list[int]] = []
    dens: list[int] = []
    for i in range(m):
        ints, den = int_clear([col[i] for col in columns] + [rhs[i]])
        if ints[k] < 0:
            ints = tuple(-v for v in ints)
        # the artificial column carries the row's scale
        tab.append(list(ints[:k]) + [den * (i == j) for j in range(m)] + [ints[k]])
        dens.append(den)
    basis = [k + i for i in range(m)]
    # objective: minimize sum of artificials; price out the starting basis.
    # The cost row is scaled by the lcm of the row scales.
    scale = 1
    for den in dens:
        scale = lcm(scale, den)
    cost = [0] * (width + 1)
    for row, den in zip(tab, dens):
        f = scale // den
        for j in range(width + 1):
            cost[j] -= f * row[j]
    for i in range(m):
        cost[k + i] += scale
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # tab[i][width] / a against the best ratio so far
                lhs = tab[i][width] * tab[leave][enter]
                best = tab[leave][width] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # cost unbounded below cannot happen in phase one
            raise RuntimeError("phase one lost boundedness")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f:
                tab[i] = list(reduce_gcd([piv * a - f * b for a, b in zip(tab[i], prow)]))
        f = cost[enter]
        cost = list(reduce_gcd([piv * a - f * b for a, b in zip(cost, prow)]))
        basis[leave] = enter
    return cost[width] == 0


# ---------------------------------------------------------------------------
# double description


def _negated(v: IntVector) -> IntVector:
    return tuple(-a for a in v)


def _independent(rows, width: int) -> tuple[IntEchelon, list[int]]:
    # an echelon of the rows taken in order, stopped once its rank is
    # ``width``, and the positions of the rows it kept
    ech = IntEchelon()
    kept = []
    for i, h in enumerate(rows):
        if ech.insert(h):
            kept.append(i)
            if ech.rank == width:
                break
    return ech, kept


def _inverse_columns(B, width: int) -> list[IntVector]:
    """The columns of ``B^-1`` for a nonsingular square integer ``B``,
    each as the primitive integer vector of the same direction.

    One fraction-free Gauss-Jordan pass over ``[B | I]`` (Bareiss
    division by the previous pivot, rows swapped where a pivot is 0)
    leaves ``[d I | d B^-1]`` with ``d = +-det B``.
    """
    m = [list(b) + [int(j == i) for j in range(width)] for i, b in enumerate(B)]
    prev = 1
    for c in range(width):
        p = next(k for k in range(c, width) if m[k][c])
        m[c], m[p] = m[p], m[c]
        prow = m[c]
        a = prow[c]
        for k in range(width):
            f = m[k][c]
            # a row with f = 0 only scales by a / prev
            if k != c and (f or a != prev):
                m[k] = [(a * x - f * y) // prev for x, y in zip(m[k], prow)]
        prev = a
    sign = 1 if prev > 0 else -1
    return [reduce_gcd([sign * row[width + i] for row in m]) for i in range(width)]


def _double_description(rows, width: int, phase: str, budget: int, start=None):
    """Extreme rays of the pointed cone ``{v : h . v >= 0 for every row h}``.

    The rows must have rank ``width``.  The rows at the positions
    ``start``, by default the first ``width`` independent rows, give a
    simplicial cone ``{v : B v >= 0}`` whose rays are the columns of
    ``B^-1``; the other rows are inserted one at a time (Motzkin et al.
    1953; Fukuda & Prodon 1996).  Each ray is a gcd-reduced integer
    vector paired with its zero set, an ``int`` bitset with bit i set
    when row i is tight on it.  A row keeps the rays
    on its nonnegative side and joins a ray on each side exactly when the
    two are adjacent: they share at least ``width - 2`` tight rows and no
    third ray is tight on all of those.  Every insertion counts its pairs
    of opposite-side rays; more than ``budget`` in one run raise
    `ResourceBudgetError` naming the phase.
    """
    if start is None:
        start = _independent(rows, width)[1]
    bits = sum(1 << i for i in start)
    columns = _inverse_columns([rows[i] for i in start], width)
    rays = [(r, bits & ~(1 << i)) for i, r in zip(start, columns)]
    skip = set(start)
    need = width - 2
    pairs = 0
    for i, h in enumerate(rows):
        if i in skip:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for r, z in rays:
            s = idot(h, r)
            if s > 0:
                pos.append((r, z, s))
                kept.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                kept.append((r, z | bit))
        if not neg:
            rays = kept
            continue
        pairs += len(pos) * len(neg)
        if pairs > budget:
            raise ResourceBudgetError(
                f"{phase} double description of {pairs}+ ray pairs exceeds budget {budget}"
            )
        zs = [z for _, z in rays]
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < need:
                    continue
                # zero sets of distinct extreme rays differ
                if any(z & common == common and z != zp and z != zn for z in zs):
                    continue
                ray = reduce_gcd([sp * b - sn * a for a, b in zip(rp, rn)])
                kept.append((ray, common | bit))
        rays = kept
    return rays


def _polar(gens, nullbasis, kept, width: int, budget: int):
    """Facet normals of ``cone(gens)``, each with the generators tight on it.

    They are the extreme rays of the polar ``{y : y . g <= 0 for every
    generator g, y orthogonal to nullbasis}``, which is pointed because it
    lies in the span of the generators.  Each normal comes with a bitset
    whose bit k is set when generator k is tight on it.  When the span is
    the whole space, the generators at the positions ``kept`` (from
    `_nullbasis`) are independent and start the double description.
    """
    rows = []
    for nu in nullbasis:
        rows += [nu, _negated(nu)]
    rows += [_negated(g) for g in gens]
    shift = 2 * len(nullbasis)
    start = None if nullbasis else kept
    rays = _double_description(rows, width, "vrep_to_hrep", budget, start)
    return [(y, z >> shift) for y, z in rays]


def _in_cone(g: IntVector, rays, width: int, budget: int) -> bool:
    # in the span of the rays and on the inner side of every facet
    if not rays:
        return False
    nullbasis, kept = _nullbasis(rays, width)
    if any(idot(nu, g) for nu in nullbasis):
        return False
    return all(idot(y, g) <= 0 for y, _ in _polar(rays, nullbasis, kept, width, budget))


def _transpose(sets, n: int) -> list[int]:
    # bit k of out[i] is set when bit i of sets[k] is set
    out = [0] * n
    for k, z in enumerate(sets):
        bit = 1 << k
        while z:
            low = z & -z
            out[low.bit_length() - 1] |= bit
            z ^= low
    return out


def _maximal(sets, full: int) -> dict[int, int]:
    """The maximal sets of ``sets`` other than ``full``, in the order they
    first occur, each mapped to the last position that holds it."""
    faces = set(sets) - {full}
    top = {s for s in faces if not any(f != s and f & s == s for f in faces)}
    return {s: k for k, s in enumerate(sets) if s in top}


def _irredundant_generators(gens, normals, width: int, budget: int):
    """The extreme generators of ``cone(gens)``, read off its facets.

    A generator outside the lineality space is kept when its minimal face
    sits directly above the lineality space, that is when no generator
    lies in a face strictly between; of several generators on one such
    face only the last in canonical order stays, as greedy removal in that
    order would leave.  Generators inside the lineality space are tight on
    every facet and only other such generators can combine to them; they
    are dropped greedily, in order, while the rest still generate them.
    """
    # bit j of tight[k] is set when generator k is tight on normal j
    tight = _transpose([z for _, z in normals], len(gens))
    full = (1 << len(normals)) - 1
    lineality = [g for g, t in zip(gens, tight) if t == full]
    i = 0
    while i < len(lineality):
        if _in_cone(lineality[i], lineality[:i] + lineality[i + 1 :], width, budget):
            lineality.pop(i)
        else:
            i += 1
    return [gens[k] for k in _maximal(tight, full).values()] + lineality


def _equalities(nullbasis, dim) -> list[LinearInequality]:
    # implied equalities of the generator span, as opposed inequality pairs
    out = []
    for nu in nullbasis:
        a, c = nu[:dim], nu[dim]
        if not any(a):
            # span misses the homogenizing coordinate entirely: impossible
            # while at least one point is present
            raise RuntimeError("generator span lost homogenizing axis")
        out.append(make_inequality(a, -c, LE))
        out.append(make_inequality(a, -c, GE))
    return out


def _nullbasis(gens, width) -> tuple[list[IntVector], list[int]]:
    # RREF'd orthogonal-complement basis: equality rows come out axis-aligned
    # whenever the span allows it.  Also the positions of the generators
    # that span the rest.
    ech, kept = _independent(gens, width)
    if ech.rank == width:
        return [], kept
    return int_row_basis(ech.nullspace(width)), kept


def vrep_to_hrep(points, rays=(), budget: int = DEFAULT_CELL_BUDGET) -> Polyhedron:
    """Facet description of conv(points) + cone(rays).

    Requires at least one point.  The facet normals are the extreme rays
    of the polar of the homogenized cone, found by double description; the
    face at infinity ``t >= 0``, the one facet with no point on it, is
    dropped.  Implied equalities come from the integer nullspace of the
    generator span and are emitted as opposed inequality pairs.  Only the
    extreme generators are kept, read off the facets tight on each.  More
    than ``budget`` ray pairs in one double description raise
    `ResourceBudgetError`.
    """
    gens = _canonical_order({homogenize(p) for p in points})
    if not gens:
        raise ValueError("need at least one point")
    dim = len(gens[0]) - 1
    on_points = (1 << len(gens)) - 1
    gens += _canonical_rays(rays)
    width = dim + 1
    nullbasis, kept = _nullbasis(gens, width)
    normals = _polar(gens, nullbasis, kept, width, budget)
    facets = {make_inequality(y[:-1], -y[-1], LE) for y, z in normals if z & on_points}
    gens = _irredundant_generators(gens, normals, width, budget)
    ineqs = _equalities(nullbasis, dim) + list(facets)
    return _build(dim, gens, ineqs, dim - len(nullbasis))


# ---------------------------------------------------------------------------
# H-rep -> V-rep


def _canonical_system(ineqs) -> list[LinearInequality]:
    # Dedup and keep only the binding bound among parallel same-sense rows.
    best: dict[tuple, LinearInequality] = {}
    for iq in ineqs:
        key = (iq.normal, iq.sense)
        old = best.get(key)
        if old is None or (iq.rhs < old.rhs if iq.sense == LE else iq.rhs > old.rhs):
            best[key] = iq
    return sorted(best.values(), key=_hrep_sort_key)


def hrep_to_vrep(ineqs, dim: int, budget: int = DEFAULT_CELL_BUDGET) -> Polyhedron:
    """Vertex/ray description of an inequality system.

    Splits off the lineality space first: each basis direction becomes an
    opposed ray pair of the result and an equality of the system that
    remains, which is then pointed.  Its vertices and extreme rays are the
    extreme rays ``(x * den, den)`` and ``(r, 0)`` of the homogenized cone
    ``{(x, t) : rows, t >= 0}``, found by double description within
    ``budget`` ray pairs.  The irredundant rows are read off the rays'
    zero sets: the input rows tight on every ray span the equalities, and
    each maximal proper zero set, other than that of ``t >= 0``, is a
    facet.  With no equalities the set is full-dimensional, and the one
    canonical input row tight on exactly that zero set is the facet.
    Otherwise the facet's normal is the null vector of the equalities,
    the lineality and the rays on it, in the kernel's reduced form.
    When the normals have full rank, ``t >= 0`` and the rows of the
    independent normals the lineality echelon kept start the double
    description.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    canon = _canonical_system(ineqs)
    ech, kept = _independent([iq.normal for iq in canon], dim)
    lineality = ech.nullspace(dim) if ech.rank < dim else []
    width = dim + 1
    # each row as h with h . (x, t) >= 0
    rows = [(0,) * dim + (1,)]
    lines = []
    for ell in lineality:
        lines += [ell + (0,), _negated(ell) + (0,)]
    rows += lines
    first = len(rows)
    for iq in canon:
        h = iq.normal + (-iq.rhs,)
        rows.append(h if iq.sense == GE else _negated(h))
    # t >= 0 and the rows of independent normals are independent
    start = None if lineality else [0] + [first + i for i in kept]
    rays = _double_description(rows, width, "hrep_to_vrep", budget, start)
    gens = [g for g, _ in rays]
    if not any(g[-1] for g in gens):
        return empty_polyhedron(dim, canon)
    # bit k of tight[i] is set when canon[i] is tight on ray k; the
    # lineality is tight on every input row
    tight = _transpose([z for _, z in rays], len(rows))
    at_infinity, tight = tight[0], tight[first:]
    full = (1 << len(gens)) - 1
    # t >= 0 need not join the comparison: a face strictly inside the face
    # at infinity also lies in a facet that an input row cuts
    faces = _maximal(tight, full)
    faces.pop(at_infinity, None)
    implied = [h for h, t in zip(rows[first:], tight) if t == full]
    if not implied:
        # full-dimensional: a facet has one canonical supporting row
        facets = [canon[k] for k in faces.values()]
        return _build(dim, gens + lines, facets, dim)
    nullbasis = int_row_basis(implied)
    base = int_echelon(nullbasis + lines)
    facets = []
    for face in faces:
        ech = IntEchelon(base.rows, base.pivots)
        for k, g in enumerate(gens):
            if face >> k & 1 and ech.insert(g) and ech.rank == width - 1:
                break
        (y,) = ech.nullspace(width)
        off = full & ~face
        if idot(y, gens[(off & -off).bit_length() - 1]) > 0:
            y = _negated(y)
        facets.append(make_inequality(y[:-1], -y[-1], LE))
    ineqs = _equalities(nullbasis, dim) + facets
    return _build(dim, gens + lines, ineqs, dim - len(nullbasis))


# ---------------------------------------------------------------------------
# derived operations


def intersect(polys, budget: int = DEFAULT_CELL_BUDGET) -> Polyhedron:
    """Intersection of polyhedra over a shared ambient space: one
    `hrep_to_vrep` run over the rows of all inputs, within ``budget`` ray
    pairs.  The first infeasible input is returned if there is one.  A
    repeated input object counts once, and a single distinct input is
    returned as it is."""
    polys = list({id(p): p for p in polys}.values())
    if not polys:
        raise ValueError("nothing to intersect")
    dim = polys[0].dim
    if any(p.dim != dim for p in polys):
        raise ValueError("dimension mismatch")
    empty = next((p for p in polys if not p.feasible), None)
    if empty is not None:
        return empty
    if len(polys) == 1:
        return polys[0]
    return hrep_to_vrep([iq for p in polys for iq in p.hrep], dim, budget)


def poly_subset(inner: Polyhedron, outer: Polyhedron) -> bool:
    """Exact containment test via generators against inequalities."""
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    if not inner.feasible:
        return True
    if not outer.feasible:
        return False
    return all(iq.holds_at(g) for g in inner.generators for iq in outer.hrep)


def poly_equal(a: Polyhedron, b: Polyhedron) -> bool:
    if not a.feasible or not b.feasible:
        return a.feasible == b.feasible
    return a.dim == b.dim and a.hrep == b.hrep


def positive_normal_facets(poly: Polyhedron) -> list[LinearInequality]:
    """Facets whose normal is strictly positive in every coordinate.

    Only meaningful (and only allowed) for full-dimensional polyhedra; such
    a facet can never be tight along a recession ray of a polyhedron drawn
    from the nonnegative orthant, and that is enforced rather than assumed.
    """
    if not poly.feasible:
        raise ValueError("infeasible polyhedron")
    if poly.affine_dim != poly.dim:
        raise ValueError("polyhedron is not full-dimensional")
    out = []
    for iq in poly.hrep:
        if all(a > 0 for a in iq.normal):
            for g in poly.generators:
                if not g[-1] and iq.gap(g) == 0:
                    raise RuntimeError("positive-normal facet tight along a ray")
            out.append(iq)
    return out


def facet_lattice_tuple(poly: Polyhedron, facet: LinearInequality) -> tuple[IntVector, ...]:
    """n affinely independent integer vertices tight at a positive facet.

    The polyhedron must be integral and full-dimensional with ``facet`` one
    of its positive-normal facets.  Vertices are scanned in lexicographic
    order and kept greedily while the affine rank grows, so the result is
    deterministic and lex-sorted.
    """
    if facet not in poly.hrep:
        raise ValueError("inequality is not a facet of this polyhedron")
    if not poly.integral_flag:
        raise ValueError("polyhedron has fractional vertices")
    if poly.affine_dim != poly.dim:
        raise ValueError("polyhedron is not full-dimensional")
    if not all(a > 0 for a in facet.normal):
        raise ValueError("facet normal is not strictly positive")
    # an integral polyhedron's vertices have den 1
    tight = [g[:-1] for g in poly.generators if g[-1] and facet.gap(g) == 0]
    chosen: list[IntVector] = []
    # differences from the first chosen vertex: the affine rank grows
    # exactly when the difference is independent of the earlier ones
    diffs = IntEchelon()
    for v in tight:
        if not chosen or diffs.insert(tuple(a - b for a, b in zip(v, chosen[0]))):
            chosen.append(v)
            if len(chosen) == poly.dim:
                break
    if len(chosen) < poly.dim:
        raise DegenerateFacetError("degenerate facet")
    return tuple(chosen)


def _unit(dim: int, j: int) -> IntVector:
    return tuple(int(i == j) for i in range(dim))


def embed_with_free_axis(poly: Polyhedron, axis: int) -> Polyhedron:
    """Cylinder ``{x : x_axis >= 0, drop(x, axis) in poly}`` one dimension up."""
    if not poly.feasible:
        raise ValueError("cannot embed an infeasible polyhedron")
    if not 0 <= axis <= poly.dim:
        raise ValueError("axis out of range")
    n = poly.dim + 1

    def widen(vec, fill):
        return tuple(vec[:axis]) + (fill,) + tuple(vec[axis:])

    hrep = [LinearInequality(widen(iq.normal, 0), iq.rhs, iq.sense) for iq in poly.hrep]
    unit = _unit(n, axis)
    hrep.append(LinearInequality(unit, 0, GE))
    gens = [widen(g, 0) for g in poly.generators]
    gens.append(unit + (0,))
    return _build(n, gens, hrep, poly.affine_dim + 1)


@cache
def orthant(dim: int) -> Polyhedron:
    units = [_unit(dim, j) for j in range(dim)]
    rows = [LinearInequality(u, 0, GE) for u in units]
    return _build(dim, [(0,) * dim + (1,)] + [u + (0,) for u in units], rows, dim)


@cache
def whole_space(dim: int) -> Polyhedron:
    units = [_unit(dim, j) for j in range(dim)]
    rays = [u + (0,) for u in units] + [_negated(u) + (0,) for u in units]
    return _build(dim, [(0,) * dim + (1,)] + rays, (), dim)


@cache
def interval(lo: int, hi: int | None = None) -> Polyhedron:
    """The interval ``[lo, hi]`` of integers ``lo <= hi``, or ``[lo, inf)``
    when ``hi`` is None; ``[c, c]`` keeps both rows as an equality pair."""
    rows = [LinearInequality((1,), lo, GE)]
    if hi is None:
        return _build(1, [(lo, 1), (1, 0)], rows, 1)
    rows.append(LinearInequality((1,), hi, LE))
    return _build(1, {(lo, 1), (hi, 1)}, rows, int(hi > lo))


def render_point(p: RatVector) -> str:
    return " ".join(str(c) for c in p)
