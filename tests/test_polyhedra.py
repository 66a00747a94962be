from fractions import Fraction

from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aggclosure.errors import DegenerateFacetError, ResourceBudgetError
from aggclosure.polyhedra import (
    GE,
    LE,
    DEFAULT_CELL_BUDGET,
    LinearInequality,
    Polyhedron,
    _canonical_order,
    _canonical_rays,
    _canonical_system,
    _double_description,
    _equalities,
    _hrep_sort_key,
    _inverse_columns,
    _nullbasis,
    contains,
    embed_with_free_axis,
    facet_lattice_tuple,
    homogenize,
    hrep_to_vrep,
    intersect,
    interval,
    lp_feasible,
    orthant,
    poly_equal,
    poly_subset,
    positive_normal_facets,
    vrep_to_hrep,
    whole_space,
)
from aggclosure.rational import (
    IntEchelon,
    as_vector,
    idot,
    int_clear,
    int_echelon,
    int_nullspace,
    reduce_gcd,
)
from oracles import (
    affine_rank,
    build_polyhedron,
    echelon_hrep_to_vrep,
    empty_polyhedron,
    intersect_fold,
    make_inequality,
    nullspace_start,
    solve_linear,
)


mk = LinearInequality


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
        assert LinearInequality((2, -4), 6, LE).render() == "1 -2 <= 3"
        assert LinearInequality((-1, 0), 0, LE).render() == "1 0 >= 0"
        half, third = Fraction(1, 2), Fraction(1, 3)
        assert LinearInequality((half, third), 1, LE).render() == "3 2 <= 6"
        with pytest.raises(ValueError, match="bad sense"):
            LinearInequality((1, 2), 3, "==")
        with pytest.raises(ValueError, match="zero normal"):
            LinearInequality((0, 0), 3, LE)


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

    def test_single_input_returned_as_is(self):
        a = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        assert intersect([a]) is a

    def test_repeated_input_counts_once(self):
        # L of a covering instance with A > 0 is n copies of the orthant
        rows = [iq for _ in range(3) for iq in orthant(3).hrep]
        assert intersect([orthant(3)] * 3) is orthant(3)
        assert orthant(3) == hrep_to_vrep(rows, 3)
        a = hrep_to_vrep([mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 2), 2, LE)], 2)
        assert intersect([a, a]) is a
        assert a == hrep_to_vrep(a.hrep + a.hrep, 2)

    def test_first_infeasible_input_returned(self):
        a = hrep_to_vrep([mk((1,), 0, GE), mk((1,), 2, LE)], 1)
        gap = hrep_to_vrep([mk((1,), 2, GE), mk((1,), 1, LE)], 1)
        assert not gap.feasible
        assert intersect([a, gap, Polyhedron(1, (), (), -1)]) is gap

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            intersect([orthant(2), orthant(1)])


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

    def test_record_equality_compares_representations(self):
        # the same line: vrep_to_hrep keeps the vertex 1, hrep_to_vrep the
        # vertex 0, so only poly_equal sees one set
        a = vrep_to_hrep([(0,), (1,)], [(1,), (-1,)])
        b = hrep_to_vrep([], 1)
        assert a.hrep == b.hrep == ()
        assert a != b
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


def _units(d):
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


class TestWrittenShapesMatchKernel:
    # the shapes written down are the records the kernel makes of the
    # same generators

    @pytest.mark.parametrize("d", range(1, 6))
    def test_orthant(self, d):
        assert orthant(d) == vrep_to_hrep([(0,) * d], _units(d))

    @pytest.mark.parametrize("d", range(1, 6))
    def test_whole_space(self, d):
        rays = [r for u in _units(d) for r in (u, tuple(-a for a in u))]
        assert whole_space(d) == vrep_to_hrep([(0,) * d], rays)

    @pytest.mark.parametrize("lo", [-7, -1, 0, 1, 3, 10**17 + 1])
    def test_interval(self, lo):
        assert interval(lo) == vrep_to_hrep([(lo,)], [(1,)])
        for hi in (lo, lo + 1, lo + 5, 3 * 10**17):
            assert interval(lo, hi) == vrep_to_hrep([(lo,), (hi,)])


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


def _at_infinity(nullbasis, width) -> IntEchelon:
    # the span of the equalities and of t: a candidate normal in it is the
    # face at infinity t >= 0 restricted to the affine hull, which every
    # point of the hull satisfies, so it is never a facet
    return int_echelon(nullbasis + [(0,) * (width - 1) + (1,)])


def _orient_and_add(direction, gens, infinity: IntEchelon, facets) -> None:
    # keep a candidate normal with every generator on one side of it,
    # oriented so that they satisfy it as a <= row
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
    facets.add(LinearInequality(direction[:-1], -direction[-1], LE))


def subset_vrep_to_hrep(points, rays=(), reduce_generators=True):
    gens = _canonical_order({homogenize(p) for p in points})
    dim = len(gens[0]) - 1
    gens += _canonical_rays(rays)
    if reduce_generators and len(gens) > 2:
        gens = fraction_extreme_generators(gens)
    width = dim + 1
    nullbasis, _ = _nullbasis(gens, width)
    depth_target = width - len(nullbasis) - 1
    facets = set()
    if depth_target >= 1:
        base = int_echelon(nullbasis)
        infinity = _at_infinity(nullbasis, width)
        for ech in _subset_echelons(gens, base, depth_target, width):
            (normal,) = ech.nullspace(width)
            _orient_and_add(normal, gens, infinity, facets)
    ineqs = _equalities(nullbasis, dim) + sorted(facets, key=_hrep_sort_key)
    return Polyhedron(dim, ineqs, gens, dim - len(nullbasis))


def subset_hrep_to_vrep(ineqs, dim):
    # generators from the subset enumerations, then the subset V->H pass
    canon = _canonical_system(ineqs)
    lineality = int_nullspace([iq.normal for iq in canon], dim)
    if lineality:
        aug = list(canon)
        for ell in lineality:
            aug += [LinearInequality(ell, 0, LE), LinearInequality(ell, 0, GE)]
        sub = subset_hrep_to_vrep(aug, dim)
        if not sub.feasible:
            return Polyhedron(dim, canon, (), -1)
        rays = list(sub.vrep_rays)
        for ell in lineality:
            rays += [ell, tuple(-a for a in ell)]
        return subset_vrep_to_hrep(sub.vrep_points, rays, reduce_generators=False)
    verts = _enum_vertices(canon, dim)
    if not verts:
        return Polyhedron(dim, canon, (), -1)
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
    return points, rays


class TestDifferentialAgainstFractionKernel:
    @settings(max_examples=300, deadline=None)
    @given(lp_case())
    def test_integer_lp_matches_fraction_simplex(self, case):
        columns, rhs = case
        assert lp_feasible(columns, rhs) == fraction_lp_feasible(columns, rhs)

    @settings(max_examples=300, deadline=None)
    @given(inequality_system(max_dim=4))
    # several rows cut one facet of a lower-dimensional set
    @example((2, [mk((0, 1), 0, LE), mk((0, 1), 0, GE), mk((1, 0), 1, LE), mk((1, 1), 1, LE)]))
    # a single point
    @example((2, [mk((1, 0), 1, LE), mk((1, 0), 1, GE), mk((1, 1), 3, LE), mk((1, 1), 3, GE)]))
    # x2 + x3 >= -1 is tight only on the ray (1, 0, 0)
    @example((3, [mk((1, 0, 0), 0, GE), mk((0, 1, 0), 0, GE), mk((0, 0, 1), 0, GE), mk((0, 1, 1), -1, GE)]))
    # x1 - x2 is free
    @example((3, [mk((1, 1, 0), 0, GE), mk((0, 0, 1), 0, GE), mk((1, 1, 1), 2, LE)]))
    def test_incidence_hrep_matches_subset_pass(self, case):
        dim, rows = case
        poly = hrep_to_vrep(rows, dim)
        assert poly == subset_hrep_to_vrep(rows, dim)
        if poly.feasible:
            # the two conversions agree on each other's output
            back = vrep_to_hrep(poly.vrep_points, poly.vrep_rays)
            assert (back.hrep, back.generators, back.affine_dim) == (poly.hrep, poly.generators, poly.affine_dim)

    @settings(max_examples=300, deadline=None)
    @given(vrep_case())
    def test_vrep_to_hrep_matches_subset_pass(self, case):
        points, rays = case
        assert vrep_to_hrep(points, rays) == subset_vrep_to_hrep(points, rays)

    def test_lower_dimensional_face_at_infinity(self):
        # the rays span a facet of the homogenized cone whose normal,
        # orthogonal to the equality, is not t >= 0 itself; the equality
        # implies it, so neither pass emits it (it would read 0 1 >= -1)
        rows = [mk((0, 1), 1, LE), mk((0, 1), 1, GE), mk((1, 0), 0, GE)]
        poly = hrep_to_vrep(rows, 2)
        assert rendered(poly) == ["1 0 >= 0", "0 1 <= 1", "0 1 >= 1"]
        assert poly == subset_hrep_to_vrep(rows, 2)
        direct = vrep_to_hrep([(0, 1)], [(1, 0)])
        assert rendered(direct) == rendered(poly)


@st.composite
def intersection_case(draw):
    # 2 to 5 polyhedra in one space of 1 to 3 variables, each of 1 to 3
    # small rows.  Opposed pairs make some lower-dimensional and fewer rows
    # than variables leave a lineality space.  Rows hold at one shared
    # anchor point with a slack of 0 to 2, except that about one input in
    # four may miss it by 1, so most intersections are nonempty and some
    # are empty
    dim = draw(st.integers(1, 3))
    anchor = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    coeffs = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    polys = []
    for _ in range(draw(st.integers(2, 5))):
        low = draw(st.sampled_from((0, 0, 0, -1)))
        rows = []
        for _ in range(draw(st.integers(1, 3))):
            normal = draw(coeffs)
            level = sum(a * c for a, c in zip(normal, anchor))
            slack = draw(st.integers(low, 2))
            sense = draw(st.sampled_from((LE, GE, LE, GE, "=")))
            if sense == "=":
                rhs = level + min(slack, 0)
                rows += [mk(normal, rhs, LE), mk(normal, rhs, GE)]
            else:
                rows.append(mk(normal, level + slack if sense == LE else level - slack, sense))
        polys.append(hrep_to_vrep(rows, dim))
    return dim, polys


class TestIntersectAgainstFold:
    @settings(max_examples=300, deadline=None)
    @given(intersection_case())
    # a line, a half-plane with lineality and a strip
    @example((2, [
        hrep_to_vrep([mk((1, 0), 1, LE), mk((1, 0), 1, GE)], 2),
        hrep_to_vrep([mk((1, 1), 2, LE)], 2),
        hrep_to_vrep([mk((0, 1), -1, GE), mk((0, 1), 3, LE)], 2),
    ]))
    def test_one_run_matches_pairwise_fold(self, case):
        dim, polys = case
        got = intersect(polys)
        assert poly_equal(got, intersect_fold(polys))
        for x in product(range(-3, 4), repeat=dim):
            expect = all(contains(p, x) for p in polys)
            assert contains(got, x) == expect


class TestKernelBudget:
    # the budget caps the pairs of opposite-side rays that one double
    # description run tests

    def test_vrep_to_hrep_pairs(self):
        cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        assert vrep_to_hrep(cube, budget=10).feasible
        with pytest.raises(ResourceBudgetError, match=r"vrep_to_hrep double description of 10\+ ray pairs exceeds budget 9"):
            vrep_to_hrep(cube, budget=9)

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


@st.composite
def nonsingular_matrix(draw):
    # entries -5..5; half of them with a zero leading entry, so that the
    # first pivot needs a row swap
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(-5, 5), min_size=width, max_size=width)
    B = [draw(row) for _ in range(width)]
    if draw(st.booleans()):
        B[0][0] = 0
    assume(int_echelon(B).rank == width)
    return [tuple(r) for r in B]


def _as_le(iq):
    # (normal, rhs) of normal . x <= rhs
    if iq.sense == LE:
        return iq.normal, iq.rhs
    return tuple(-a for a in iq.normal), -iq.rhs


@st.composite
def facet_system(draw):
    # rows in 2 to 5 variables: equalities give lower-dimensional sets,
    # normals that miss the last variable give a lineality space, and a
    # row may come twice (scaled), with a looser parallel copy or with
    # the sum of two rows, which is redundant
    dim = draw(st.integers(2, 5))
    span = dim - draw(st.integers(0, 1))
    coeffs = st.lists(st.integers(-2, 2), min_size=span, max_size=span).filter(any)
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        normal = tuple(draw(coeffs)) + (0,) * (dim - span)
        rhs = draw(st.integers(-3, 3))
        kind = draw(st.sampled_from((LE, GE, "=", "twice", "parallel")))
        if kind == "=":
            rows += [mk(normal, rhs, LE), mk(normal, rhs, GE)]
            continue
        sense = kind if kind in (LE, GE) else draw(st.sampled_from((LE, GE)))
        rows.append(mk(normal, rhs, sense))
        if kind == "twice":
            rows.append(mk(tuple(2 * a for a in normal), 2 * rhs, sense))
        elif kind == "parallel":
            rows.append(mk(normal, rhs + (2 if sense == LE else -2), sense))
    if len(rows) >= 2 and draw(st.booleans()):
        (a, r), (b, q) = _as_le(rows[0]), _as_le(rows[-1])
        normal = tuple(x + y for x, y in zip(a, b))
        if any(normal):
            rows.append(mk(normal, r + q + draw(st.integers(0, 2)), LE))
    return dim, rows


class TestKernelSetUp:
    # the simplicial start is read off B^-1 and a full-dimensional H->V
    # takes its facets from the input rows

    @settings(max_examples=300, deadline=None)
    @given(nonsingular_matrix())
    @example([(0, 1), (1, 0)])
    @example([(0, 0, 2), (0, 3, 1), (4, 1, 0)])
    @example([(-3,)])
    def test_start_matches_null_vectors(self, B):
        assert _inverse_columns(B, len(B)) == nullspace_start(B, len(B))

    @settings(max_examples=300, deadline=None)
    @given(facet_system())
    # full-dimensional, with a repeated and a looser parallel row
    @example((2, [mk((1, 0), 0, GE), mk((0, 1), 0, GE), mk((1, 1), 2, LE), mk((2, 2), 4, LE), mk((1, 1), 5, LE)]))
    # an implied equality x1 + x2 = 1 from two opposed rows
    @example((3, [mk((1, 1, 0), 1, LE), mk((1, 1, 0), 1, GE), mk((1, 0, 0), 0, GE), mk((0, 0, 1), 0, GE), mk((0, 0, 1), 2, LE)]))
    # x3 is free, and x1 + x2 <= 3 is the sum of two bounds
    @example((3, [mk((1, 0, 0), 0, GE), mk((0, 1, 0), 0, GE), mk((1, 0, 0), 1, LE), mk((0, 1, 0), 2, LE), mk((1, 1, 0), 3, LE)]))
    def test_facets_match_echelon_reading(self, case):
        dim, rows = case
        assert hrep_to_vrep(rows, dim) == echelon_hrep_to_vrep(rows, dim)

    def test_full_dimensional_runs_solve_no_null_space(self, monkeypatch):
        calls = []
        nullspace = IntEchelon.nullspace

        def counted(self, width):
            calls.append(width)
            return nullspace(self, width)

        monkeypatch.setattr(IntEchelon, "nullspace", counted)
        rows = [mk(u, 0, GE) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        rows += [mk((1, 1, 1), 3, LE), mk((2, 1, 0), 4, LE)]
        poly = hrep_to_vrep(rows, 3)
        back = vrep_to_hrep(poly.vrep_points)
        # the kernel searching its own start: the second row is dependent
        cone = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)]
        rays = _double_description(cone, 3, "hrep_to_vrep", DEFAULT_CELL_BUDGET)
        assert calls == []
        assert back.hrep == poly.hrep and poly.affine_dim == 3
        assert sorted(r for r, _ in rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


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
    return points, rays


class TestGeneratorFormat:
    def test_vertex_stored_homogeneous(self):
        poly = vrep_to_hrep([(Fraction(1, 2), Fraction(1, 3)), (2, 0)], [(0, 2)])
        assert poly.generators == ((3, 2, 6), (2, 0, 1), (0, 1, 0))
        assert poly.vrep_points == ((Fraction(1, 2), Fraction(1, 3)), (2, 0))
        assert poly.vrep_rays == ((0, 1),)

    @settings(max_examples=200, deadline=None)
    @given(generator_set())
    def test_points_match_fraction_vrep(self, case):
        points, rays = case
        poly = vrep_to_hrep(points, rays)
        assert_matches_fraction_vrep(poly, *fraction_vrep_of_points(points, rays, reduce_generators=True))

    @settings(max_examples=200, deadline=None)
    @given(inequality_system())
    def test_rows_match_fraction_vrep(self, case):
        dim, rows = case
        poly = hrep_to_vrep(rows, dim)
        assert_matches_fraction_vrep(poly, *fraction_vrep_of_rows(rows, dim))


# entries of raw rows: ints and Fractions of mixed signs, zero included
raw_entry = st.one_of(
    st.integers(-12, 12), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
)


@st.composite
def raw_row(draw, dim=None):
    # a row with a common factor, possibly a zero normal, either sense
    dim = dim or draw(st.integers(1, 4))
    normal = draw(st.lists(raw_entry, min_size=dim, max_size=dim))
    factor = draw(st.sampled_from((1, -1, 2, -3, 6, Fraction(1, 4))))
    rhs = draw(raw_entry)
    return tuple(a * factor for a in normal), rhs * factor, draw(st.sampled_from((LE, GE)))


@st.composite
def raw_polyhedron(draw):
    # constructor arguments: rows with duplicates, rational vertices,
    # rays, or no generator at all for the empty set
    dim = draw(st.integers(1, 3))
    rows = [
        (normal, rhs, sense)
        for normal, rhs, sense in draw(st.lists(raw_row(dim), max_size=5))
        if any(normal)
    ]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    points = draw(st.lists(st.tuples(*[raw_entry] * dim), max_size=4))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=3))
    gens = [homogenize(p) for p in points]
    if gens:
        gens += [r + (0,) for r in rays if any(r)]
    return dim, rows, gens, draw(st.integers(0, dim)) if gens else -1


def poly_fields(poly):
    return (
        poly.dim, poly.hrep, poly.generators, poly.feasible, poly.integral_flag,
        poly.affine_dim,
    )


class TestConstructorsMatchTheOldBuilders:
    """The canonicalizing constructors against the separate builders
    (`oracles.make_inequality`, `build_polyhedron`, `empty_polyhedron`)
    that made canonical values before them."""

    @settings(max_examples=300, deadline=None)
    @given(raw_row())
    def test_linear_inequality(self, row):
        try:
            expected = make_inequality(*row)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                LinearInequality(*row)
            return
        iq = LinearInequality(*row)
        assert (iq.normal, iq.rhs, iq.sense) == expected
        assert all(type(a) is int for a in iq.normal + (iq.rhs,))
        assert LinearInequality(*expected) == iq

    def test_zero_normal_and_bad_sense_raise_on_both_sides(self):
        for row in [((0, 0), 1, LE), ((Fraction(0), 0), 0, GE), ((1, 2), 3, "==")]:
            with pytest.raises(ValueError):
                make_inequality(*row)
            with pytest.raises(ValueError):
                LinearInequality(*row)

    @settings(max_examples=300, deadline=None)
    @given(raw_polyhedron())
    def test_polyhedron(self, case):
        dim, rows, gens, affine_dim = case
        hrep = [LinearInequality(*row) for row in rows]
        poly = Polyhedron(dim, hrep, gens, affine_dim)
        if gens:
            expected = build_polyhedron(dim, gens, hrep, affine_dim)
        else:
            expected = empty_polyhedron(dim, hrep)
        assert poly_fields(poly) == expected
        # a canonical value is a fixed point of its constructor
        assert Polyhedron(dim, poly.hrep, poly.generators, affine_dim) == poly
