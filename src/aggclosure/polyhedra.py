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
al. 1953; Fukuda & Prodon 1996) on a pointed cone.  H->V takes the extreme
rays of the homogenized cone ``{(x, t) : rows, t >= 0}`` after splitting
off the lineality space, then reads the irredundant inequalities from
incidence: an input row is a facet exactly when the generators tight on it
have rank one below the span of all of them.  V->H takes the extreme rays
of the polar cone, which are the facet normals, and keeps a generator as
extreme from the facets tight on it.  Each run counts the ray pairs it
tests against a work budget.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    int_nullspace,
    reduce_gcd,
)

LE = "<="
GE = ">="

# default work budget: lattice cells of one enumeration box, and ray pairs
# tested by one double description run
DEFAULT_CELL_BUDGET = 10**7

_SENSES = (LE, GE)


@dataclass(frozen=True)
class LinearInequality:
    """One canonical half-space: ``normal . x sense rhs``.

    Entries are integers with overall gcd 1 (rhs included) and the first
    nonzero coefficient is positive, so equal half-spaces compare equal.
    """

    normal: tuple[int, ...]
    rhs: int
    sense: str

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValueError(f"bad sense {self.sense!r}")
        if not any(self.normal):
            raise ValueError("zero normal")
        first = next(a for a in self.normal if a)
        if first < 0:
            raise ValueError("normal not sign-normalized")
        g = 0
        for a in self.normal + (self.rhs,):
            g = gcd(g, a)
        if g != 1:
            raise ValueError("entries not gcd-reduced")

    def gap(self, g: IntVector) -> int:
        """``normal . g[:-1] - rhs * g[-1]`` at a homogeneous generator."""
        return idot(self.normal, g) - self.rhs * g[-1]

    def holds_at(self, g: IntVector) -> bool:
        # `gap` written out: `poly_subset` runs this for every generator
        # against every row, where the extra call shows
        v = idot(self.normal, g) - self.rhs * g[-1]
        return v <= 0 if self.sense == LE else v >= 0

    def evaluate(self, x: RatVector) -> Rat:
        return idot(self.normal, x)

    def admits_point(self, x: RatVector) -> bool:
        return self.holds_at(homogenize(x))

    def admits_ray(self, r: IntVector) -> bool:
        return self.holds_at(tuple(r) + (0,))

    def tight_at(self, x: RatVector) -> bool:
        return self.gap(homogenize(x)) == 0

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


@dataclass(frozen=True)
class Polyhedron:
    """A polyhedron carrying both descriptions, kept mutually consistent.

    ``generators`` is the V-representation as homogeneous integer vectors,
    vertices ``(x * den, den)`` first and rays ``(r, 0)`` after them (see
    the module docstring); `vrep_points` and `vrep_rays` read it back as
    rational vertices and integer rays.
    """

    dim: int
    hrep: tuple[LinearInequality, ...]
    generators: tuple[IntVector, ...]
    feasible: bool
    integral_flag: bool
    affine_dim: int

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


def _double_description(rows, width: int, phase: str, budget: int):
    """Extreme rays of the pointed cone ``{v : h . v >= 0 for every row h}``.

    The rows must have rank ``width``.  The first ``width`` independent
    rows give a simplicial cone; the others are inserted one at a time
    (Motzkin et al. 1953; Fukuda & Prodon 1996).  Each ray is a
    gcd-reduced integer vector paired with its zero set, an ``int``
    bitset with bit i set when row i is tight on it.  A row keeps the rays
    on its nonnegative side and joins a ray on each side exactly when the
    two are adjacent: they share at least ``width - 2`` tight rows and no
    third ray is tight on all of those.  Every insertion counts its pairs
    of opposite-side rays; more than ``budget`` in one run raise
    `ResourceBudgetError` naming the phase.
    """
    ech = IntEchelon()
    start = []
    for i, h in enumerate(rows):
        if ech.insert(h):
            start.append(i)
            if ech.rank == width:
                break
    rays = []
    for i in start:
        (r,) = int_nullspace([rows[j] for j in start if j != i], width)
        if idot(rows[i], r) < 0:
            r = _negated(r)
        rays.append((r, sum(1 << j for j in start if j != i)))
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


def _polar(gens, nullbasis, width: int, budget: int):
    """Facet normals of ``cone(gens)``, each with the generators tight on it.

    They are the extreme rays of the polar ``{y : y . g <= 0 for every
    generator g, y orthogonal to nullbasis}``, which is pointed because it
    lies in the span of the generators.  Each normal comes with a bitset
    whose bit k is set when generator k is tight on it.
    """
    rows = []
    for nu in nullbasis:
        rows += [nu, _negated(nu)]
    rows += [_negated(g) for g in gens]
    shift = 2 * len(nullbasis)
    return [(y, z >> shift) for y, z in _double_description(rows, width, "vrep_to_hrep", budget)]


def _in_cone(g: IntVector, rays, width: int, budget: int) -> bool:
    # in the span of the rays and on the inner side of every facet
    if not rays:
        return False
    nullbasis = _nullbasis(rays, width)
    if any(idot(nu, g) for nu in nullbasis):
        return False
    return all(idot(y, g) <= 0 for y, _ in _polar(rays, nullbasis, width, budget))


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
    tight = [
        sum(1 << j for j, (_, z) in enumerate(normals) if z >> k & 1) for k in range(len(gens))
    ]
    full = (1 << len(normals)) - 1
    faces = set(tight) - {full}
    last = {}
    lineality = []
    for g, t in zip(gens, tight):
        if t == full:
            lineality.append(g)
        elif not any(f != t and f & t == t for f in faces):
            last[t] = g
    i = 0
    while i < len(lineality):
        if _in_cone(lineality[i], lineality[:i] + lineality[i + 1 :], width, budget):
            lineality.pop(i)
        else:
            i += 1
    return list(last.values()) + lineality


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


def _nullbasis(gens, width) -> list[IntVector]:
    # RREF'd orthogonal-complement basis: equality rows come out axis-aligned
    # whenever the span allows it
    return int_row_basis(int_nullspace(gens, width), width)


def _at_infinity(nullbasis, width) -> IntEchelon:
    # the span of the equalities and of t: a candidate normal in it is the
    # face at infinity t >= 0 restricted to the affine hull, which every
    # point of the hull satisfies, so it is never a facet
    return int_echelon(nullbasis + [(0,) * (width - 1) + (1,)])


def vrep_to_hrep(
    points,
    rays=(),
    reduce_generators: bool = True,
    budget: int = DEFAULT_CELL_BUDGET,
) -> Polyhedron:
    """Facet description of conv(points) + cone(rays).

    Requires at least one point.  The facet normals are the extreme rays
    of the polar of the homogenized cone, found by double description; the
    face at infinity ``t >= 0``, the one facet with no point on it, is
    dropped.  Implied equalities come from the integer nullspace of the
    generator span and are emitted as opposed inequality pairs.  With
    ``reduce_generators`` only the extreme generators are kept, read off
    the facets tight on each.  More than ``budget`` ray pairs in one double
    description raise `ResourceBudgetError`.
    """
    gens = _canonical_order({homogenize(p) for p in points})
    if not gens:
        raise ValueError("need at least one point")
    dim = len(gens[0]) - 1
    on_points = (1 << len(gens)) - 1
    gens += _canonical_rays(rays)
    width = dim + 1
    nullbasis = _nullbasis(gens, width)
    normals = _polar(gens, nullbasis, width, budget)
    facets = {make_inequality(y[:-1], -y[-1], LE) for y, z in normals if z & on_points}
    if reduce_generators:
        gens = _irredundant_generators(gens, normals, width, budget)
    ineqs = _equalities(nullbasis, dim) + sorted(facets, key=_hrep_sort_key)
    return _build(dim, gens, ineqs, dim - len(nullbasis))


def _orient_and_add(direction: IntVector, gens, infinity: IntEchelon, facets) -> None:
    pos = neg = False
    for g in gens:
        v = idot(direction, g)
        if v > 0:
            pos = True
        elif v < 0:
            neg = True
        if pos and neg:
            return
    if not any(infinity.reduce(direction)):
        return
    if pos:
        direction = tuple(-a for a in direction)
    facets.add(make_inequality(direction[:-1], -direction[-1], LE))


# ---------------------------------------------------------------------------
# H-rep -> V-rep


def _canonical_system(ineqs) -> list[LinearInequality]:
    # Dedup and keep only the binding bound among parallel same-sense rows.
    best: dict[tuple, int] = {}
    for iq in ineqs:
        key = (iq.normal, iq.sense)
        if key not in best:
            best[key] = iq.rhs
        elif iq.sense == LE:
            best[key] = min(best[key], iq.rhs)
        else:
            best[key] = max(best[key], iq.rhs)
    out = [LinearInequality(nrm, rhs, sen) for (nrm, sen), rhs in best.items()]
    return sorted(out, key=_hrep_sort_key)


def _hrep_from_incidence(canon, gens, dim) -> Polyhedron:
    """The canonical polyhedron of generators that solve ``canon``.

    Gives what `vrep_to_hrep` gives on the same generators without a
    second double description.  Every facet of the polyhedron is cut out
    by an input row; a row is a facet exactly when the span's equalities
    and the generators tight on it have rank ``width - 1``, and its normal
    is then the null vector of that echelon.
    """
    width = dim + 1
    nullbasis = _nullbasis(gens, width)
    facets: set[LinearInequality] = set()
    if width - len(nullbasis) >= 2:
        base = int_echelon(nullbasis)
        infinity = _at_infinity(nullbasis, width)
        for iq in canon:
            ech = IntEchelon(base.rows, base.pivots)
            for g in gens:
                if iq.gap(g) == 0 and ech.insert(g) and ech.rank == width:
                    break
            if ech.rank == width - 1:
                (normal,) = ech.nullspace(width)
                _orient_and_add(normal, gens, infinity, facets)
    ineqs = _equalities(nullbasis, dim) + sorted(facets, key=_hrep_sort_key)
    return _build(dim, gens, ineqs, dim - len(nullbasis))


def hrep_to_vrep(ineqs, dim: int, budget: int = DEFAULT_CELL_BUDGET) -> Polyhedron:
    """Vertex/ray description of an inequality system.

    Splits off the lineality space first: each basis direction becomes an
    opposed ray pair of the result and an equality of the system that
    remains, which is then pointed.  Its vertices and extreme rays are the
    extreme rays ``(x * den, den)`` and ``(r, 0)`` of the homogenized cone
    ``{(x, t) : rows, t >= 0}``, found by double description within
    ``budget`` ray pairs.  The irredundant rows are read from the
    incidence of generators and input rows.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    canon = _canonical_system(ineqs)
    lineality = int_nullspace([iq.normal for iq in canon], dim)
    # each row as h with h . (x, t) >= 0
    rows = [(0,) * dim + (1,)]
    for ell in lineality:
        rows += [ell + (0,), _negated(ell) + (0,)]
    for iq in canon:
        h = iq.normal + (-iq.rhs,)
        rows.append(h if iq.sense == GE else _negated(h))
    gens = [g for g, _ in _double_description(rows, dim + 1, "hrep_to_vrep", budget)]
    if not any(g[-1] for g in gens):
        return empty_polyhedron(dim, canon)
    for ell in lineality:
        gens += [ell + (0,), _negated(ell) + (0,)]
    return _hrep_from_incidence(canon, gens, dim)


# ---------------------------------------------------------------------------
# derived operations


def intersect(polys, budget: int = DEFAULT_CELL_BUDGET) -> Polyhedron:
    """Intersection of polyhedra over a shared ambient space."""
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
    unit = tuple(int(j == axis) for j in range(n))
    hrep.append(LinearInequality(unit, 0, GE))
    gens = [widen(g, 0) for g in poly.generators]
    gens.append(unit + (0,))
    return _build(n, gens, hrep, poly.affine_dim + 1)


@cache
def orthant(dim: int) -> Polyhedron:
    zero = (0,) * dim
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return vrep_to_hrep([zero], units, reduce_generators=False)


@cache
def whole_space(dim: int) -> Polyhedron:
    zero = (0,) * dim
    rays = []
    for i in range(dim):
        unit = tuple(int(i == j) for j in range(dim))
        rays.append(unit)
        rays.append(tuple(-a for a in unit))
    return vrep_to_hrep([zero], rays, reduce_generators=False)


def render_point(p: RatVector) -> str:
    return " ".join(str(c) for c in p)
