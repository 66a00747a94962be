from fractions import Fraction

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggclosure.errors import DegenerateFacetError, ResourceBudgetError
from aggclosure.polyhedra import (
    GE,
    LE,
    LinearInequality,
    _at_infinity,
    _build,
    _canonical_order,
    _canonical_rays,
    _canonical_system,
    _equalities,
    _hrep_sort_key,
    _nullbasis,
    _orient_and_add,
    contains,
    embed_with_free_axis,
    empty_polyhedron,
    facet_lattice_tuple,
    homogenize,
    hrep_to_vrep,
    intersect,
    lp_feasible,
    make_inequality,
    orthant,
    poly_equal,
    poly_subset,
    positive_normal_facets,
    vrep_to_hrep,
    whole_space,
)
from aggclosure.rational import (
    IntEchelon,
    affine_rank,
    as_vector,
    int_clear,
    int_echelon,
    int_nullspace,
    reduce_gcd,
    solve_linear,
)


def mk(normal, rhs, sense):
    return make_inequality(normal, rhs, sense)


def rendered(poly):
    return poly.render_lines()


class TestInequalityCanonicalForm:
    def test_scaling_collapses(self):
        assert mk((2, 4), 6, LE) == mk((1, 2), 3, LE)

    def test_fractions_cleared(self):
        assert mk((Fraction(1, 2), Fraction(1, 3)), Fraction(1, 6), GE) == mk((3, 2), 1, GE)

    def test_sign_orientation_flips_sense(self):
        assert mk((-1, -2), -2, LE) == mk((1, 2), 2, GE)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            mk((0, 0), 1, LE)

    def test_render(self):
        assert mk((1, 2), 2, LE).render() == "1 2 <= 2"

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            LinearInequality((2, 4), 6, LE)
        with pytest.raises(ValueError):
            LinearInequality((-1, 2), 3, LE)
        with pytest.raises(ValueError):
            LinearInequality((1, 2), 3, "==")


class TestVrepToHrep:
    def test_triangle(self):
        poly = vrep_to_hrep([(0, 0), (2, 0), (0, 1)])
        assert rendered(poly) == ["1 0 >= 0", "0 1 >= 0", "1 2 <= 2"]
        assert poly.integral_flag and poly.affine_dim == 2

    def test_point_plus_unit_rays_is_orthant(self):
        poly = vrep_to_hrep([(0, 0)], [(1, 0), (0, 1)])
        assert rendered(poly) == ["1 0 >= 0", "0 1 >= 0"]

    def test_up_closed_segment(self):
        poly = vrep_to_hrep([(2, 0), (0, 2)], [(1, 0), (0, 1)])
        assert rendered(poly) == ["1 0 >= 0", "0 1 >= 0", "1 1 >= 2"]

    def test_interior_generators_dropped(self):
        poly = vrep_to_hrep([(0, 0), (2, 0), (0, 1), (1, 0), (Fraction(1, 2), Fraction(1, 4))])
        assert poly.vrep_points == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))

    def test_lower_dimensional_segment_gets_equality_pair(self):
        poly = vrep_to_hrep([(1, 1), (2, 2)])
        assert rendered(poly) == ["1 -1 <= 0", "1 -1 >= 0", "1 1 >= 2", "1 1 <= 4"]
        assert poly.affine_dim == 1

    def test_single_point(self):
        poly = vrep_to_hrep([(3, 5)])
        assert poly.affine_dim == 0
        assert set(rendered(poly)) == {"1 0 <= 3", "1 0 >= 3", "0 1 <= 5", "0 1 >= 5"}

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            vrep_to_hrep([], [(1, 0)])


class TestHrepToVrep:
    def test_triangle_inverse(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        assert poly.vrep_points == ((0, 0), (0, 1), (2, 0))
        assert poly.vrep_rays == ()

    def test_covering_inverse(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 1), 2, GE)], 2)
        assert poly.vrep_points == ((0, 2), (2, 0))
        assert poly.vrep_rays == ((0, 1), (1, 0))

    def test_infeasible(self):
        poly = hrep_to_vrep([mk((1,), 0, GE), mk((1,), -1, LE)], 1)
        assert not poly.feasible
        assert rendered(poly) == ["infeasible"]

    def test_redundant_parallel_rows_merged(self):
        poly = hrep_to_vrep([mk((1,), 0, GE), mk((1,), 5, LE), mk((1,), 2, LE)], 1)
        assert rendered(poly) == ["1 >= 0", "1 <= 2"]

    def test_halfplane_with_lineality(self):
        poly = hrep_to_vrep([mk((1, 1), 1, LE)], 2)
        assert poly.feasible
        assert rendered(poly) == ["1 1 <= 1"]
        assert (1, -1) in poly.vrep_rays and (-1, 1) in poly.vrep_rays

    def test_lineality_infeasible_band(self):
        poly = hrep_to_vrep([mk((1, 1), 1, LE), mk((1, 1), 3, GE)], 2)
        assert not poly.feasible

    def test_whole_space_has_empty_hrep(self):
        poly = hrep_to_vrep([], 2)
        assert poly.feasible and poly.hrep == ()


class TestContains:
    def setup_method(self):
        self.poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)

    def test_inside(self):
        assert contains(self.poly, (1, 0))

    def test_outside(self):
        assert not contains(self.poly, (Fraction(3, 2), Fraction(1, 2)))

    def test_boundary(self):
        assert contains(self.poly, (2, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(self.poly, (1, 0, 0))


class TestIntersect:
    def test_interval_pair(self):
        a = hrep_to_vrep([mk((1,), 0, GE), mk((1,), 2, LE)], 1)
        b = hrep_to_vrep([mk((1,), 0, GE), mk((1,), 1, LE)], 1)
        both = intersect([a, b])
        assert rendered(both) == ["1 >= 0", "1 <= 1"]

    def test_idempotent(self):
        a = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        assert poly_equal(intersect([a, a]), a)

    def test_triangle_cut_by_vertical_strip(self):
        a = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        b = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 0), 1, LE)], 2)
        both = intersect([a, b])
        assert both.vrep_points == (
            (0, 0),
            (0, 1),
            (1, 0),
            (1, Fraction(1, 2)),
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            intersect([])


class TestPositiveNormalFacets:
    def test_packing_triangle(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        assert positive_normal_facets(poly) == [mk((1, 2), 2, LE)]

    def test_orthant_has_none(self):
        assert positive_normal_facets(orthant(2)) == []

    def test_covering(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 1), 2, GE)], 2)
        assert positive_normal_facets(poly) == [mk((1, 1), 2, GE)]

    def test_lower_dimensional_rejected(self):
        seg = vrep_to_hrep([(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            positive_normal_facets(seg)

    def test_positive_facet_tight_along_ray_detected(self):
        half = hrep_to_vrep([mk((1, 1), 0, LE)], 2)
        with pytest.raises(RuntimeError):
            positive_normal_facets(half)


class TestFacetLatticeTuple:
    def test_packing(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        assert facet_lattice_tuple(poly, mk((1, 2), 2, LE)) == ((0, 1), (2, 0))

    def test_covering(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 1), 2, GE)], 2)
        assert facet_lattice_tuple(poly, mk((1, 1), 2, GE)) == ((0, 2), (2, 0))

    def test_one_dimensional(self):
        poly = hrep_to_vrep([mk((1,), 0, GE), mk((1,), 2, LE)], 1)
        assert facet_lattice_tuple(poly, mk((1,), 2, LE)) == ((2,),)

    def test_not_a_facet(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        with pytest.raises(ValueError):
            facet_lattice_tuple(poly, mk((1, 1), 5, LE))

    def test_degenerate_unbounded_facet(self):
        half = hrep_to_vrep([mk((1, 1), 0, LE)], 2)
        with pytest.raises(DegenerateFacetError, match="degenerate facet"):
            facet_lattice_tuple(half, mk((1, 1), 0, LE))

    def test_fractional_polyhedron_rejected(self):
        poly = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((2, 3), 4, LE)], 2)
        with pytest.raises(ValueError):
            facet_lattice_tuple(poly, mk((2, 3), 4, LE))


class TestSubsetEqualEmbed:
    def test_subset(self):
        inner = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 1), 1, LE)], 2)
        outer = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        assert poly_subset(inner, outer)
        assert not poly_subset(outer, inner)

    def test_equal_is_representation_free(self):
        a = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE), mk((1, 1), 9, LE)], 2)
        b = vrep_to_hrep([(0, 0), (2, 0), (0, 1)])
        assert poly_equal(a, b)

    def test_embed_interval(self):
        seg = hrep_to_vrep([mk((1,), 0, GE), mk((1,), 2, LE)], 1)
        cyl = embed_with_free_axis(seg, 0)
        assert rendered(cyl) == ["1 0 >= 0", "0 1 >= 0", "0 1 <= 2"]
        assert (1, 0) in cyl.vrep_rays

    def test_embed_axis_position(self):
        seg = hrep_to_vrep([mk((1,), 0, GE), mk((1,), 2, LE)], 1)
        cyl = embed_with_free_axis(seg, 1)
        assert rendered(cyl) == ["1 0 >= 0", "0 1 >= 0", "1 0 <= 2"]

    def test_orthant_and_whole_space(self):
        assert rendered(orthant(3)) == ["1 0 0 >= 0", "0 1 0 >= 0", "0 0 1 >= 0"]
        assert whole_space(2).hrep == ()
        assert poly_subset(orthant(2), whole_space(2))


point2 = st.tuples(st.integers(0, 6), st.integers(0, 6))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(point2, min_size=1, max_size=7), point2)
    def test_contains_matches_generator_membership(self, pts, probe):
        poly = vrep_to_hrep(pts)
        assert contains(poly, probe) == fraction_in_generated_set(probe, pts, [])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(point2, min_size=1, max_size=6))
    def test_round_trip_preserves_vertices(self, pts):
        poly = vrep_to_hrep(pts)
        back = hrep_to_vrep(poly.hrep, 2)
        assert poly_equal(poly, back)
        assert back.vrep_points == poly.vrep_points

    @settings(max_examples=40, deadline=None)
    @given(st.lists(point2, min_size=1, max_size=6), st.lists(point2, min_size=1, max_size=6), point2)
    def test_intersection_membership(self, pa, pb, probe):
        a = vrep_to_hrep(pa)
        b = vrep_to_hrep(pb)
        both = intersect([a, b])
        expect = contains(a, probe) and contains(b, probe)
        got = both.feasible and contains(both, probe)
        assert got == expect

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=6,
        )
    )
    def test_three_dimensional_round_trip(self, pts):
        poly = vrep_to_hrep(pts, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        back = hrep_to_vrep(poly.hrep, 3)
        assert poly_equal(poly, back)


def fraction_lp_feasible(columns, rhs) -> bool:
    # the phase-one simplex over Fraction that the integer tableau replaced;
    # kept as the oracle
    m = len(rhs)
    k = len(columns)
    tab = []
    for i in range(m):
        r = [Fraction(col[i]) for col in columns]
        t = Fraction(rhs[i])
        if t < 0:
            r = [-v for v in r]
            t = -t
        tab.append(r + [Fraction(int(i == j)) for j in range(m)] + [t])
    width = k + m
    basis = [k + i for i in range(m)]
    cost = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            cost[j] -= tab[i][j]
    for i in range(m):
        cost[k + i] += 1
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), -1)
        if enter < 0:
            return cost[width] == 0
        leave, best = -1, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [a - f * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter


def fraction_in_generated_set(x, points, rays) -> bool:
    cols = [tuple(p) + (1,) for p in points] + [tuple(r) + (0,) for r in rays]
    return bool(cols) and fraction_lp_feasible(cols, tuple(x) + (1,))


# The subset-enumeration kernel that the double description replaced, kept
# as the oracle: V->H reads a facet normal off every rank-deficient subset
# of generators, H->V solves every subset of n tight rows for a vertex and
# every subset of n - 1 rows for an extreme ray.


def _subset_echelons(rows, base: IntEchelon, size: int, cols: int, start: int = 0):
    # extensions of ``base`` by ``size`` rows taken in index order, each
    # independent of the ones before it on its first ``cols`` entries
    if size == 0:
        yield base
        return
    for i in range(start, len(rows) - size + 1):
        red = base.reduce(rows[i])
        if any(red[:cols]):
            pcol = next(j for j, a in enumerate(red) if a)
            ech = IntEchelon(base.rows + (red,), base.pivots + (pcol,))
            yield from _subset_echelons(rows, ech, size - 1, cols, i + 1)


def _enum_vertices(canon, dim):
    # the null vector of n independent tight rows (normal, -rhs) is the
    # vertex as its generator (x * den, den)
    rows = [iq.normal + (-iq.rhs,) for iq in canon]
    found = set()
    for ech in _subset_echelons(rows, IntEchelon(), dim, dim):
        (g,) = ech.nullspace(dim + 1)
        if g not in found and all(iq.holds_at(g) for iq in canon):
            found.add(g)
    return list(found)


def _enum_rays(canon, dim):
    rows = [iq.normal for iq in canon]
    found = set()
    for ech in _subset_echelons(rows, IntEchelon(), dim - 1, dim):
        (r,) = ech.nullspace(dim)
        for g in (r + (0,), tuple(-a for a in r) + (0,)):
            if all(iq.holds_at(g) for iq in canon):
                found.add(g)
                break
    return list(found)


def fraction_extreme_generators(gens):
    # drop, in canonical order, every generator that is a nonnegative
    # combination of the others left
    out = list(gens)
    i = 0
    while i < len(out):
        rest = out[:i] + out[i + 1 :]
        if rest and fraction_lp_feasible(rest, out[i]):
            out.pop(i)
        else:
            i += 1
    return out


def subset_vrep_to_hrep(points, rays=(), reduce_generators=True):
    gens = _canonical_order({homogenize(p) for p in points})
    dim = len(gens[0]) - 1
    gens += _canonical_rays(rays)
    if reduce_generators and len(gens) > 2:
        gens = fraction_extreme_generators(gens)
    width = dim + 1
    nullbasis = _nullbasis(gens, width)
    depth_target = width - len(nullbasis) - 1
    facets = set()
    if depth_target >= 1:
        base = int_echelon(nullbasis)
        infinity = _at_infinity(nullbasis, width)
        for ech in _subset_echelons(gens, base, depth_target, width):
            (normal,) = ech.nullspace(width)
            _orient_and_add(normal, gens, infinity, facets)
    ineqs = _equalities(nullbasis, dim) + sorted(facets, key=_hrep_sort_key)
    return _build(dim, gens, ineqs, dim - len(nullbasis))


def subset_hrep_to_vrep(ineqs, dim):
    # generators from the subset enumerations, then the subset V->H pass
    canon = _canonical_system(ineqs)
    lineality = int_nullspace([iq.normal for iq in canon], dim)
    if lineality:
        aug = list(canon)
        for ell in lineality:
            aug += [make_inequality(ell, 0, LE), make_inequality(ell, 0, GE)]
        sub = subset_hrep_to_vrep(aug, dim)
        if not sub.feasible:
            return empty_polyhedron(dim, canon)
        rays = list(sub.vrep_rays)
        for ell in lineality:
            rays += [ell, tuple(-a for a in ell)]
        return subset_vrep_to_hrep(sub.vrep_points, rays, reduce_generators=False)
    verts = _enum_vertices(canon, dim)
    if not verts:
        return empty_polyhedron(dim, canon)
    points = [tuple(Fraction(a, g[-1]) for a in g[:-1]) for g in verts]
    rays = [g[:-1] for g in _enum_rays(canon, dim)]
    return subset_vrep_to_hrep(points, rays, reduce_generators=False)


small_rat = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def lp_case(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, 5))
    column = st.lists(small_rat, min_size=m, max_size=m)
    columns = draw(st.lists(column, min_size=k, max_size=k))
    if columns and draw(st.booleans()):
        # a target inside the cone of the columns
        mult = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        rhs = [sum(c * col[i] for c, col in zip(mult, columns)) for i in range(m)]
    else:
        rhs = draw(column)
    return columns, rhs


@st.composite
def inequality_system(draw, max_dim=3):
    # random rows, with opposed pairs for lower-dimensional sets and few
    # rows or repeated supports for lineality
    dim = draw(st.integers(1, max_dim))
    coeffs = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        normal = draw(coeffs)
        rhs = draw(st.integers(-4, 4))
        sense = draw(st.sampled_from((LE, GE, "=")))
        if sense == "=":
            rows += [mk(normal, rhs, LE), mk(normal, rhs, GE)]
        else:
            rows.append(mk(normal, rhs, sense))
    return dim, rows


@st.composite
def vrep_case(draw):
    # random points and rays in 1 to 4 variables; the points may lie on a
    # hyperplane, and a ray may come with its opposite for lineality
    dim = draw(st.integers(1, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6))
    if dim > 1 and draw(st.booleans()):
        normal = draw(st.tuples(*[st.integers(-2, 2)] * (dim - 1)))
        points = [p[:-1] + (sum(a * c for a, c in zip(normal, p)),) for p in points]
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=4))
    if rays and draw(st.booleans()):
        rays.append(tuple(-a for a in rays[0]))
    return points, rays, draw(st.booleans())


class TestDifferentialAgainstFractionKernel:
    @settings(max_examples=300, deadline=None)
    @given(lp_case())
    def test_integer_lp_matches_fraction_simplex(self, case):
        columns, rhs = case
        assert lp_feasible(columns, rhs) == fraction_lp_feasible(columns, rhs)

    @settings(max_examples=300, deadline=None)
    @given(inequality_system(max_dim=4))
    def test_incidence_hrep_matches_subset_pass(self, case):
        dim, rows = case
        assert hrep_to_vrep(rows, dim) == subset_hrep_to_vrep(rows, dim)

    @settings(max_examples=300, deadline=None)
    @given(vrep_case())
    def test_vrep_to_hrep_matches_subset_pass(self, case):
        points, rays, reduce_generators = case
        got = vrep_to_hrep(points, rays, reduce_generators=reduce_generators)
        assert got == subset_vrep_to_hrep(points, rays, reduce_generators)

    def test_lower_dimensional_face_at_infinity(self):
        # the rays span a facet of the homogenized cone whose normal,
        # orthogonal to the equality, is not t >= 0 itself; the equality
        # implies it, so neither pass emits it (it would read 0 1 >= -1)
        rows = [mk((0, 1), 1, LE), mk((0, 1), 1, GE), mk((1, 0), 0, GE)]
        poly = hrep_to_vrep(rows, 2)
        assert rendered(poly) == ["1 0 >= 0", "0 1 <= 1", "0 1 >= 1"]
        assert poly == subset_hrep_to_vrep(rows, 2)
        direct = vrep_to_hrep([(0, 1)], [(1, 0)], reduce_generators=False)
        assert rendered(direct) == rendered(poly)


class TestKernelBudget:
    # the budget caps the pairs of opposite-side rays that one double
    # description run tests

    def test_vrep_to_hrep_pairs(self):
        cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        assert vrep_to_hrep(cube, reduce_generators=False, budget=10).feasible
        with pytest.raises(ResourceBudgetError, match=r"vrep_to_hrep double description of 10\+ ray pairs exceeds budget 9"):
            vrep_to_hrep(cube, reduce_generators=False, budget=9)

    def test_hrep_to_vrep_pairs(self):
        box = [mk(u, 0, GE) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        box += [mk(u, 1, LE) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        assert hrep_to_vrep(box, 3, budget=7).feasible
        with pytest.raises(ResourceBudgetError, match=r"hrep_to_vrep double description of 7\+ ray pairs exceeds budget 6"):
            hrep_to_vrep(box, 3, budget=6)

    def test_unbounded_pairs(self):
        rows = [mk(u, 0, GE) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        rows.append(mk((1, 1, 1), 1, GE))
        assert hrep_to_vrep(rows, 3, budget=3).vrep_rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        with pytest.raises(ResourceBudgetError, match=r"hrep_to_vrep double description of 3\+"):
            hrep_to_vrep(rows, 3, budget=2)


# The V-representation as it was stored before homogeneous generators:
# sorted Fraction vertices, sorted integer rays, the affine dimension from
# the affine rank of the vertices plus the rank the rays add beyond their
# span, and integrality from the vertex denominators.  Kept as the oracle.


def _admits(iq, x, rhs):
    v = sum(a * c for a, c in zip(iq.normal, x))
    return v <= rhs if iq.sense == LE else v >= rhs


def _ray_rank_beyond(points, rays):
    if not points:
        return 0
    ech = IntEchelon()
    for p in points[1:]:
        ech.insert(int_clear(tuple(a - b for a, b in zip(p, points[0])))[0])
    start = ech.rank
    for r in rays:
        ech.insert(tuple(r))
    return ech.rank - start


def fraction_vrep_of_points(points, rays, reduce_generators):
    pts = sorted(set(as_vector(p) for p in points))
    rys = sorted({reduce_gcd(int_clear(as_vector(r))[0]) for r in rays} - {(0,) * len(pts[0])})
    if reduce_generators and len(pts) + len(rys) > 2:
        for gens, inside in ((pts, lambda p, rest: fraction_in_generated_set(p, rest, rys)), (rys, lambda r, rest: fraction_lp_feasible(rest, r))):
            i = 0
            while i < len(gens):
                rest = gens[:i] + gens[i + 1 :]
                if rest and inside(gens[i], rest):
                    gens.pop(i)
                else:
                    i += 1
    return pts, rys


def fraction_vrep_of_rows(rows, dim):
    # vertices solve dim independent rows and satisfy all; rays span the
    # null space of dim - 1 independent rows; lineality splits off first
    rows = list(rows)
    lineality = int_nullspace([iq.normal for iq in rows], dim)
    for ell in lineality:
        rows += [mk(ell, 0, LE), mk(ell, 0, GE)]
    pts = set()
    for combo in combinations(rows, dim):
        x = solve_linear([iq.normal for iq in combo], [iq.rhs for iq in combo])
        if x is not None and all(_admits(iq, x, iq.rhs) for iq in rows):
            pts.add(x)
    rys = set()
    for combo in combinations(rows, dim - 1):
        basis = int_nullspace([iq.normal for iq in combo], dim)
        if len(basis) != 1:
            continue
        for r in (basis[0], tuple(-a for a in basis[0])):
            if all(_admits(iq, r, 0) for iq in rows):
                rys.add(r)
                break
    if not pts:
        return [], []
    for ell in lineality:
        rys |= {ell, tuple(-a for a in ell)}
    return sorted(pts), sorted(rys)


def assert_matches_fraction_vrep(poly, pts, rys):
    assert poly.vrep_points == tuple(pts)
    assert all(type(c) is Fraction for p in poly.vrep_points for c in p)
    assert poly.vrep_rays == tuple(rys)
    assert poly.affine_dim == (affine_rank(pts) - 1 + _ray_rank_beyond(pts, rys) if pts else -1)
    assert poly.integral_flag == (bool(pts) and all(c.denominator == 1 for p in pts for c in p))


@st.composite
def generator_set(draw):
    dim = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6))
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=3))
    return points, rays, draw(st.booleans())


class TestGeneratorFormat:
    def test_vertex_stored_homogeneous(self):
        poly = vrep_to_hrep([(Fraction(1, 2), Fraction(1, 3)), (2, 0)], [(0, 2)])
        assert poly.generators == ((3, 2, 6), (2, 0, 1), (0, 1, 0))
        assert poly.vrep_points == ((Fraction(1, 2), Fraction(1, 3)), (2, 0))
        assert poly.vrep_rays == ((0, 1),)

    @settings(max_examples=200, deadline=None)
    @given(generator_set())
    def test_points_match_fraction_vrep(self, case):
        points, rays, reduce_generators = case
        poly = vrep_to_hrep(points, rays, reduce_generators=reduce_generators)
        assert_matches_fraction_vrep(poly, *fraction_vrep_of_points(points, rays, reduce_generators))

    @settings(max_examples=200, deadline=None)
    @given(inequality_system())
    def test_rows_match_fraction_vrep(self, case):
        dim, rows = case
        poly = hrep_to_vrep(rows, dim)
        assert_matches_fraction_vrep(poly, *fraction_vrep_of_rows(rows, dim))
