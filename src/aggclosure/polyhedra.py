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

V->H enumerates subsets of generators and reads each candidate facet normal
off an integer echelon by back-substitution; redundant generators are
dropped first by an integer phase-one simplex.  H->V enumerates vertices and
extreme rays from subsets of tight rows, then reads the irredundant
inequalities from incidence: an input row is a facet exactly when the
generators tight on it have rank one below the span of all of them.  Subset
enumeration is the right trade at this scale (dimension <= 5, a few dozen
rows or generators); every subset search counts its leaves against a work
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

# default work budget: lattice cells of one enumeration box, and subset
# leaves of one kernel enumeration
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
        # `gap` written out: this runs for every row at every leaf of the
        # vertex search, where the extra call shows
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
# exact feasibility LP (phase one simplex, Bland's rule)


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


def in_generated_set(x, points, rays) -> bool:
    """Whether x lies in conv(points) + cone(rays), by exact feasibility."""
    cols = [tuple(p) + (1,) for p in points]
    cols += [tuple(r) + (0,) for r in rays]
    if not cols:
        return False
    return lp_feasible(cols, tuple(x) + (1,))


def _extreme_generators(gens):
    # Drop, in canonical order, every generator that is a nonnegative
    # combination of the others left: a point inside conv(other points) +
    # cone(rays), or a ray inside the cone of the other rays (points, with
    # t > 0, cannot help a ray).  The order decides only which of several
    # points on one minimal face survives when a lineality space is present.
    out = list(gens)
    i = 0
    while i < len(out):
        rest = out[:i] + out[i + 1 :]
        if rest and lp_feasible(rest, out[i]):
            out.pop(i)
        else:
            i += 1
    return out


# ---------------------------------------------------------------------------
# V-rep -> H-rep


def _subset_echelons(rows, base: IntEchelon, size: int, cols: int, start: int = 0):
    # extensions of ``base`` by ``size`` rows taken in index order, each
    # independent of the ones before it on its first ``cols`` entries
    if size == 0:
        yield base
        return
    for i in range(start, len(rows) - size + 1):
        red = base.reduce(rows[i])
        if any(red[:cols]):
            yield from _subset_echelons(rows, base.extended(red), size - 1, cols, i + 1)


def _subset_leaves(phase: str, budget: int, rows, base: IntEchelon, size: int, cols: int):
    """The echelons at the leaves of one subset enumeration.

    More than ``budget`` leaves raise `ResourceBudgetError` naming the
    phase.
    """
    for leaves, ech in enumerate(_subset_echelons(rows, base, size, cols), 1):
        if leaves > budget:
            raise ResourceBudgetError(
                f"{phase} enumeration of {leaves}+ subset leaves exceeds budget {budget}"
            )
        yield ech


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

    Requires at least one point.  Facet normals come from rank-deficient
    generator subsets in homogeneous coordinates; implied equalities come
    from the integer nullspace of the generator span and are emitted as
    opposed inequality pairs.  More than ``budget`` subset leaves raise
    `ResourceBudgetError`.
    """
    gens = _canonical_order({homogenize(p) for p in points})
    if not gens:
        raise ValueError("need at least one point")
    dim = len(gens[0]) - 1
    gens += _canonical_rays(rays)
    if reduce_generators and len(gens) > 2:
        gens = _extreme_generators(gens)
    width = dim + 1
    nullbasis = _nullbasis(gens, width)
    depth_target = width - len(nullbasis) - 1
    facets: set[LinearInequality] = set()
    if depth_target >= 1:
        base = int_echelon(nullbasis)
        infinity = _at_infinity(nullbasis, width)
        for ech in _subset_leaves("vrep_to_hrep", budget, gens, base, depth_target, width):
            (normal,) = ech.nullspace(width)
            _orient_and_add(normal, gens, infinity, facets)
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


def _enum_vertices(canon, dim, budget: int = DEFAULT_CELL_BUDGET) -> list[IntVector]:
    # the null vector of n independent tight rows (normal, -rhs) is the
    # vertex as its generator (x * den, den): every pivot lies off the
    # last column, so that column is the free one and comes out positive
    rows = [iq.normal + (-iq.rhs,) for iq in canon]
    found: set[IntVector] = set()
    for ech in _subset_leaves("hrep_to_vrep vertex", budget, rows, IntEchelon(), dim, dim):
        (g,) = ech.nullspace(dim + 1)
        if g not in found and all(iq.holds_at(g) for iq in canon):
            found.add(g)
    return list(found)


def _enum_rays(canon, dim, budget: int = DEFAULT_CELL_BUDGET) -> list[IntVector]:
    rows = [iq.normal for iq in canon]
    found: set[IntVector] = set()
    # a ray satisfies every row homogeneously, with rhs 0
    for ech in _subset_leaves("hrep_to_vrep ray", budget, rows, IntEchelon(), dim - 1, dim):
        (r,) = ech.nullspace(dim)
        for g in (r + (0,), tuple(-a for a in r) + (0,)):
            if all(iq.holds_at(g) for iq in canon):
                found.add(g)
                break
    return list(found)


def _hrep_from_incidence(canon, gens, dim) -> Polyhedron:
    """The canonical polyhedron of generators that solve ``canon``.

    Gives what `vrep_to_hrep` gives on the same generators without its
    subset search.  Every facet of the polyhedron is cut out by an input
    row; a row is a facet exactly when the span's equalities and the
    generators tight on it have rank ``width - 1``, and its normal is then
    the null vector of that echelon, the vector any subset leaf of
    `vrep_to_hrep` reaches for it.
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

    Splits off the lineality space first (each basis direction becomes an
    opposed ray pair plus an equality restriction for the recursive call),
    then enumerates vertices as solutions of n independent tight rows and
    extreme rays from (n-1)-fold tight subsystems of the recession cone,
    each search within ``budget`` subset leaves.  The irredundant rows are
    read from the incidence of generators and input rows.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    canon = _canonical_system(ineqs)
    lineality = int_nullspace([iq.normal for iq in canon], dim)
    if lineality:
        aug = list(canon)
        for ell in lineality:
            aug.append(make_inequality(ell, 0, LE))
            aug.append(make_inequality(ell, 0, GE))
        sub = hrep_to_vrep(aug, dim, budget)
        if not sub.feasible:
            return empty_polyhedron(dim, canon)
        gens = list(sub.generators)
        for ell in lineality:
            gens.append(ell + (0,))
            gens.append(tuple(-a for a in ell) + (0,))
        return _hrep_from_incidence(canon, gens, dim)
    verts = _enum_vertices(canon, dim, budget)
    if not verts:
        return empty_polyhedron(dim, canon)
    return _hrep_from_incidence(canon, verts + _enum_rays(canon, dim, budget), dim)


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


def orthant(dim: int) -> Polyhedron:
    zero = (0,) * dim
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return vrep_to_hrep([zero], units, reduce_generators=False)


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
