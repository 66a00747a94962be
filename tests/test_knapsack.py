import itertools
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggclosure.errors import (
    EmptyRelaxationError,
    ResourceBudgetError,
    TrivialAggregationError,
    UsageError,
)
from aggclosure import closure, knapsack
from aggclosure.closure import SampleScheme, _grid_hulls
from aggclosure.knapsack import (
    COVERING,
    DEFAULT_CELL_BUDGET,
    PACKING,
    Instance,
    KnapsackRelaxation,
    build_relaxation,
    cg_cut,
    column_bounds,
    instance_generators,
    integer_hull,
    lattice_points,
)
from aggclosure.polyhedra import (
    contains,
    make_inequality,
    poly_equal,
    poly_subset,
    vrep_to_hrep,
)
from oracles import (
    column_bounds_scan,
    covering_minimal_box,
    hull_generators_box,
    packing_core,
    vertex_hull,
)


def half(x=1):
    return Fraction(x, 2)


def admits_ray(iq, r) -> bool:
    # whether the recession direction r keeps the row satisfied
    return iq.holds_at(tuple(r) + (0,))


PACK_22 = Instance(PACKING, ((2, 3), (1, 4)), (4, 4))


class TestInstance:
    def test_zero_row_stripped_for_packing(self):
        inst = Instance(PACKING, ((0, 0), (2, 3)), (1, 4))
        assert inst.A == ((2, 3),) and inst.b == (4,)

    def test_zero_row_rejected_for_covering(self):
        with pytest.raises(UsageError, match="zero row infeasible for covering"):
            Instance(COVERING, ((0, 0), (2, 3)), (1, 4))

    def test_rhs_must_be_positive(self):
        with pytest.raises(UsageError, match="rhs must be positive"):
            Instance(PACKING, ((2, 3),), (0,))

    def test_negative_entry_rejected(self):
        with pytest.raises(UsageError):
            Instance(PACKING, ((2, -3),), (4,))

    def test_ragged_rejected(self):
        with pytest.raises(UsageError):
            Instance(PACKING, ((2, 3), (1,)), (4, 4))

    def test_all_zero_rejected(self):
        with pytest.raises(UsageError, match="trivial instance"):
            Instance(PACKING, ((0, 0),), (4,))


class TestBuildRelaxation:
    def test_packing_mixture(self):
        rel = build_relaxation(PACK_22, (half(), half()))
        assert rel.aggregated_rows == ((Fraction(3, 2), Fraction(7, 2)),)
        assert rel.aggregated_rhs == (Fraction(4),)

    def test_unit_weight_returns_original_row(self):
        rel = build_relaxation(PACK_22, (1, 0))
        assert rel.aggregated_rows == ((Fraction(2), Fraction(3)),)
        assert rel.aggregated_rhs == (Fraction(4),)

    def test_covering_sum(self):
        inst = Instance(COVERING, ((2, 3), (1, 4)), (4, 4))
        rel = build_relaxation(inst, (1, 1))
        assert rel.aggregated_rows == ((Fraction(3), Fraction(7)),)
        assert rel.aggregated_rhs == (Fraction(8),)

    def test_all_zero_weights(self):
        with pytest.raises(TrivialAggregationError, match="trivial aggregation"):
            build_relaxation(PACK_22, (0, 0))

    def test_negative_weights(self):
        with pytest.raises(UsageError):
            build_relaxation(PACK_22, (1, -1))

    def test_zero_matrix_columns_dropped(self):
        rel = build_relaxation(PACK_22, ((1, 0), (0, 0), (0, 1)))
        assert rel.k == 2

    def test_scaling_gives_same_canonical_key(self):
        a = build_relaxation(PACK_22, (half(), half()))
        b = build_relaxation(PACK_22, (3, 3))
        assert a.canonical_key() == b.canonical_key()


@st.composite
def bound_rows(draw):
    # int or Fraction rows with zero entries and all-zero columns, and
    # right-hand sides of either sign, as aggregation and the instances
    # make them
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    fractional = draw(st.booleans())
    entry = (
        st.fractions(min_value=0, max_value=5, max_denominator=3)
        if fractional
        else st.integers(0, 9)
    )
    bound = (
        st.fractions(min_value=-20, max_value=20, max_denominator=3)
        if fractional
        else st.integers(-20, 20)
    )
    zero = draw(st.sets(st.integers(0, n - 1)))
    rows = tuple(
        tuple(0 if j in zero else draw(entry) for j in range(n)) for _ in range(k)
    )
    return rows, tuple(draw(st.lists(bound, min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((PACKING, COVERING)), bound_rows())
def test_column_bounds_match_the_scan(sense, data):
    rows, rhs = data
    bounds = column_bounds(sense, rows, rhs)
    assert bounds == column_bounds_scan(sense, rows, rhs)
    assert all(type(c) is int for c in bounds if c is not None)


def single_row(sense, coeffs, rhs):
    return KnapsackRelaxation(
        sense=sense,
        n=len(coeffs),
        aggregated_rows=(tuple(Fraction(c) for c in coeffs),),
        aggregated_rhs=(Fraction(rhs),),
    )


class TestLatticePoints:
    def test_packing_enumeration(self):
        pts, free = lattice_points(single_row(PACKING, (2, 3), 4))
        assert set(pts) == {(0, 0), (1, 0), (2, 0), (0, 1)}
        assert free == set()

    def test_packing_free_column(self):
        pts, free = lattice_points(single_row(PACKING, (0, 2), 3))
        assert set(pts) == {(0, 0), (0, 1)}
        assert free == {0}

    def test_covering_minimal_points(self):
        pts, free = lattice_points(single_row(COVERING, (2, 3), 4))
        assert set(pts) == {(2, 0), (1, 1), (0, 2)}
        assert free == set()

    def test_covering_zero_row_is_empty(self):
        with pytest.raises(EmptyRelaxationError, match="empty relaxation"):
            lattice_points(single_row(COVERING, (0, 0), 3))

    def test_budget_guard(self):
        with pytest.raises(ResourceBudgetError):
            lattice_points(single_row(PACKING, (1, 1), 9), budget=50)

    def test_covering_budget_counts_the_searched_prefix(self):
        # the search walks 61 x 61 prefixes; the whole box has 61**3 cells
        rel = single_row(COVERING, (1, 1, 1), 60)
        pts, free = lattice_points(rel, budget=10_000)
        assert pts == covering_minimal_box(rel, (60, 60, 60))
        assert free == set()

    def test_covering_prefix_over_budget(self):
        with pytest.raises(ResourceBudgetError, match=r"box of 3721\+ cells exceeds budget 3720"):
            lattice_points(single_row(COVERING, (1, 1, 1), 60), budget=3720)

    def test_box_bounds_are_exact_for_large_integer_rows(self):
        # the first bound is (10**17 + 2) / 3 = 33333333333333334 exactly;
        # a float quotient would make it 33333333333333336
        for sense in (PACKING, COVERING):
            rel = KnapsackRelaxation(
                sense=sense,
                n=2,
                aggregated_rows=((3, 10**17 + 2),),
                aggregated_rhs=(10**17 + 2,),
            )
            with pytest.raises(ResourceBudgetError, match=r"box of 33333333333333335\+ cells"):
                lattice_points(rel)

    def test_points_sorted(self):
        pts, _ = lattice_points(single_row(PACKING, (2, 3), 4))
        assert pts == sorted(pts)


class TestIntegerHull:
    def test_packing_hull(self):
        hull = integer_hull(single_row(PACKING, (2, 3), 4))
        assert hull.render_lines() == ["1 0 >= 0", "0 1 >= 0", "1 2 <= 2"]

    def test_covering_hull(self):
        hull = integer_hull(single_row(COVERING, (2, 3), 4))
        assert hull.render_lines() == ["1 0 >= 0", "0 1 >= 0", "1 1 >= 2"]
        assert hull.vrep_points == ((0, 2), (2, 0))

    def test_lp_integral_hull_equals_relaxation(self):
        hull = integer_hull(single_row(PACKING, (2, 3), 6))
        assert hull.render_lines() == ["1 0 >= 0", "0 1 >= 0", "2 3 <= 6"]

    def test_free_column_becomes_ray(self):
        hull = integer_hull(single_row(PACKING, (0, 2), 3))
        assert hull.render_lines() == ["1 0 >= 0", "0 1 >= 0", "0 1 <= 1"]
        assert (1, 0) in hull.vrep_rays

    def test_memoized(self):
        a = integer_hull(single_row(PACKING, (2, 3), 4))
        b = integer_hull(single_row(PACKING, (4, 6), 8))
        assert a is b

    def test_one_dimensional_senses(self):
        assert integer_hull(single_row(PACKING, (3,), 7)).render_lines() == ["1 >= 0", "1 <= 2"]
        assert integer_hull(single_row(COVERING, (3,), 7)).render_lines() == ["1 >= 3"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_row_rule(self, n):
        # one rule for the interval, the segments and the minimal points:
        # a zero packing row with r < 0 empties the set, a zero covering
        # row with r > 0 raises, and either row is vacuous otherwise
        zero, live = (0,) * n, (2,) * n

        def rel(sense, r):
            return KnapsackRelaxation(sense, n, (zero, live), (r, 5))

        assert not integer_hull(rel(PACKING, -1)).feasible
        assert integer_hull(rel(PACKING, 0)) == integer_hull(single_row(PACKING, live, 5))
        with pytest.raises(EmptyRelaxationError, match="empty relaxation"):
            integer_hull(rel(COVERING, 1))
        assert integer_hull(rel(COVERING, 0)) == integer_hull(single_row(COVERING, live, 5))


class TestOneVariableGridPath:
    @pytest.mark.parametrize("sense", [PACKING, COVERING])
    def test_interval_without_memo_entry(self, sense, monkeypatch):
        inst = Instance(sense, ((3,), (5,), (2,)), (17, 23, 9))
        monkeypatch.setattr(knapsack, "_HULL_MEMO", {})
        for cols in [((1, 0, 0),), ((1, 2, 1),), ((0, 3, 1), (2, 0, 2))]:
            hull = integer_hull(build_relaxation(inst, cols))
            assert not knapsack._HULL_MEMO
            # the same shared interval object for rational weights
            weights = [tuple(Fraction(v, sum(c)) for v in c) for c in cols]
            assert integer_hull(build_relaxation(inst, weights)) is hull

    @pytest.mark.parametrize("grid,k", [(16, 1), (4, 2)])
    @pytest.mark.parametrize("sense", [PACKING, COVERING])
    def test_grid_builds_one_relaxation_per_interval(self, sense, grid, k, monkeypatch):
        inst = Instance(sense, ((9,), (2,), (8,), (3,), (5,)), (48, 37, 34, 57, 26))
        built = []
        # the walk is memoized; a cold memo makes it build its relaxations
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        monkeypatch.setattr(
            knapsack, "KnapsackRelaxation",
            lambda *a, **kw: built.append(1) or KnapsackRelaxation(*a, **kw),
        )
        distinct = _grid_hulls(inst, SampleScheme(grid_denominator=grid, k=k, budget=10**7))
        assert 1 < len(built) <= len(distinct)


class TestIntegerHullMulti:
    def test_two_rows(self):
        inst = Instance(PACKING, ((2, 3), (1, 0)), (4, 1))
        rel = build_relaxation(inst, ((1, 0), (0, 1)))
        hull = integer_hull(rel)
        assert hull.render_lines() == ["1 0 >= 0", "0 1 >= 0", "1 1 <= 1"]

    def test_duplicate_rows_match_single(self):
        rel2 = build_relaxation(PACK_22, ((1, 0), (1, 0)))
        rel1 = build_relaxation(PACK_22, (1, 0))
        assert poly_equal(integer_hull(rel2), integer_hull(rel1))

    def test_covering_implied_row(self):
        inst = Instance(COVERING, ((2, 3), (1, 1)), (4, 1))
        both = integer_hull(build_relaxation(inst, ((1, 0), (0, 1))))
        alone = integer_hull(build_relaxation(inst, (1, 0)))
        assert poly_equal(both, alone)


@st.composite
def planar_relaxations(draw):
    # one or two rows over two variables.  Zero coefficients give free
    # packing columns and empty covering rows, a rhs below a coefficient
    # gives packing segments and points, a negative rhs an empty packing
    # set; the large regime scales coefficients and rhs together so that
    # the box stays small
    sense = draw(st.sampled_from((PACKING, COVERING)))
    scale = draw(st.sampled_from((1, 1000)))
    coef = st.one_of(st.just(0), st.integers(scale, 9 * scale), st.integers(scale, 10**6))
    rows = draw(st.lists(st.tuples(coef, coef), min_size=1, max_size=2))
    bound = st.integers(-3 * scale, 60 * scale)
    rhs = draw(st.lists(bound, min_size=len(rows), max_size=len(rows)))
    return KnapsackRelaxation(sense, 2, tuple(rows), tuple(rhs))


def _hull_or_error(build, rel):
    try:
        return build(rel)
    except (EmptyRelaxationError, ResourceBudgetError) as exc:
        return type(exc), str(exc)


class TestPlanarHull:
    # two-variable hulls are written down as polygons; the oracle converts
    # the same lattice points by double description

    @settings(max_examples=300, deadline=None)
    @given(planar_relaxations())
    def test_matches_double_description(self, rel):
        knapsack._HULL_MEMO.pop(rel.canonical_key(), None)
        assert _hull_or_error(integer_hull, rel) == _hull_or_error(vertex_hull, rel)

    def test_full_dimensional_polygon_runs_no_double_description(self, monkeypatch):
        calls = []
        real = knapsack.vrep_to_hrep
        monkeypatch.setattr(
            knapsack, "vrep_to_hrep", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        monkeypatch.setattr(knapsack, "_HULL_MEMO", {})
        for sense in (PACKING, COVERING):
            inst = Instance(sense, ((2, 3), (1, 4)), (4, 4))
            for cols in [((1, 0),), ((1, 1),), ((1, 0), (0, 1))]:
                assert integer_hull(build_relaxation(inst, cols)).affine_dim == 2
        assert calls == []
        # a segment keeps the kernel's reduced equality
        segment = integer_hull(KnapsackRelaxation(PACKING, 2, ((5, 1),), (3,)))
        assert segment.affine_dim == 1 and len(calls) == 1


@st.composite
def solid_packing_relaxations(draw):
    # one or two packing rows over three variables.  Zero coefficients
    # give free columns, a rhs below every coefficient of a column flattens
    # the set to a segment or a point, and a negative rhs empties it
    coef = st.one_of(st.just(0), st.integers(1, 9))
    rows = draw(st.lists(st.tuples(coef, coef, coef), min_size=1, max_size=2))
    rhs = draw(st.lists(st.integers(-3, 24), min_size=len(rows), max_size=len(rows)))
    return KnapsackRelaxation(PACKING, 3, tuple(rows), tuple(rhs))


def box_points(rel) -> list:
    # every feasible point of a box no feasible point leaves, in
    # lexicographic order; a column no row bounds carries 0
    ranges = []
    for j in range(rel.n):
        limits = [r // row[j] for row, r in zip(rel.aggregated_rows, rel.aggregated_rhs) if row[j]]
        ranges.append(range(max(limits) + 1 if limits else 1))
    return [
        p for p in itertools.product(*ranges)
        if all(sum(map(mul, row, p)) <= r for row, r in zip(rel.aggregated_rows, rel.aggregated_rhs))
    ]


class TestPackingSegments:
    # packing hulls read their segments (prefix, top); the oracles list
    # every lattice point and convert its core by double description

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(solid_packing_relaxations(), planar_relaxations()))
    def test_matches_double_description(self, rel):
        knapsack._HULL_MEMO.pop(rel.canonical_key(), None)
        assert _hull_or_error(integer_hull, rel) == _hull_or_error(vertex_hull, rel)
        if rel.sense == PACKING:
            points, free = lattice_points(rel)
            assert points == box_points(rel)
            segments, _ = knapsack._packing_points(rel, DEFAULT_CELL_BUDGET)
            assert knapsack._packing_core(segments) == packing_core(points)


class TestCgCut:
    def test_rounding(self):
        rel = build_relaxation(PACK_22, (half(), half()))
        assert cg_cut(rel) == make_inequality((1, 3), 4, "<=")

    def test_covering_rounds_up(self):
        inst = Instance(COVERING, ((2, 3),), (4,))
        rel = build_relaxation(inst, (half(),))
        # row (1, 3/2) >= 2 rounds to x + 2y >= 2
        assert cg_cut(rel) == make_inequality((1, 2), 2, ">=")

    def test_zero_normal_returns_none(self):
        assert cg_cut(single_row(PACKING, (half(), half(1)), 5)) is None

    def test_rounding_depends_on_the_scale_of_the_weights(self):
        # unlike the hull, the rounded row changes when the weights scale:
        # (3/2, 7/2) <= 4 rounds to x + 3y <= 4, (3, 7) <= 8 is integral
        halves = build_relaxation(PACK_22, (half(), half()))
        doubled = build_relaxation(PACK_22, (1, 1))
        assert cg_cut(halves) == make_inequality((1, 3), 4, "<=")
        assert cg_cut(doubled) == make_inequality((3, 7), 8, "<=")
        assert integer_hull(halves) is integer_hull(doubled)


SENSES = st.sampled_from([PACKING, COVERING])


@st.composite
def small_instances(draw):
    sense = draw(SENSES)
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(m):
        row = draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)
        )
        rows.append(tuple(row))
    b = tuple(draw(st.lists(st.integers(1, 12), min_size=m, max_size=m)))
    return Instance(sense, tuple(rows), b)


@st.composite
def weighted_instances(draw):
    inst = draw(small_instances())
    lam = draw(
        st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=4),
            min_size=inst.m,
            max_size=inst.m,
        ).filter(any)
    )
    return inst, tuple(lam)


class TestHullProperties:
    @settings(max_examples=60, deadline=None)
    @given(weighted_instances())
    def test_integrality_and_closure_direction(self, case):
        inst, lam = case
        hull = integer_hull(build_relaxation(inst, lam))
        assert hull.feasible and hull.integral_flag
        for v in hull.vrep_points:
            for j in range(inst.n):
                probe = tuple(
                    c + 1 if (inst.sense == COVERING and i == j) else (0 if i == j else c)
                    for i, c in enumerate(v)
                ) if inst.sense == COVERING else tuple(
                    0 if i == j else c for i, c in enumerate(v)
                )
                assert contains(hull, probe)

    @settings(max_examples=60, deadline=None)
    @given(weighted_instances())
    def test_validity_sandwich(self, case):
        inst, lam = case
        rel = build_relaxation(inst, lam)
        hull = integer_hull(rel)
        # the hull lies in the relaxation: its vertices satisfy the
        # aggregated rows and x >= 0, and its rays the rows' recession cone
        for v in hull.vrep_points:
            assert all(c >= 0 for c in v)
            for row, r in zip(rel.aggregated_rows, rel.aggregated_rhs):
                lhs = sum(a * c for a, c in zip(row, v))
                assert lhs <= r if inst.sense == PACKING else lhs >= r
        for ray in hull.vrep_rays:
            assert all(c >= 0 for c in ray)
            for row in rel.aggregated_rows:
                lhs = sum(a * c for a, c in zip(row, ray))
                assert lhs <= 0 if inst.sense == PACKING else lhs >= 0
        pts, _ = lattice_points(rel)
        for p in pts:
            assert contains(hull, p)

    @settings(max_examples=60, deadline=None)
    @given(weighted_instances(), st.integers(1, 5))
    def test_scaling_invariance(self, case, c):
        inst, lam = case
        a = integer_hull(build_relaxation(inst, lam))
        b = integer_hull(build_relaxation(inst, tuple(w * c for w in lam)))
        assert poly_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(weighted_instances())
    def test_cg_cut_valid_for_hull(self, case):
        inst, lam = case
        if inst.sense != PACKING:
            return
        rel = build_relaxation(inst, lam)
        cut = cg_cut(rel)
        if cut is None:
            return
        hull = integer_hull(rel)
        for v in hull.vrep_points:
            assert cut.admits_point(v)
        for r in hull.vrep_rays:
            assert admits_ray(cut, r)

    @settings(max_examples=30, deadline=None)
    @given(small_instances())
    def test_multi_hull_inside_per_column_hulls(self, inst):
        if inst.m < 2:
            return
        cols = ((1,) + (0,) * (inst.m - 1), (0,) * (inst.m - 1) + (1,))
        multi = integer_hull(build_relaxation(inst, cols))
        for col in cols:
            single = integer_hull(build_relaxation(inst, col))
            assert poly_subset(multi, single)


class TestInstanceGenerators:
    @settings(max_examples=80, deadline=None)
    @given(small_instances())
    def test_same_generators_as_box_oracle(self, inst):
        assert instance_generators(inst) == hull_generators_box(inst)

    @settings(max_examples=30, deadline=None)
    @given(small_instances())
    def test_generate_the_instance_hull(self, inst):
        gens = instance_generators(inst)
        points = [g[:-1] for g in gens if g[-1] == 1]
        rays = [g[:-1] for g in gens if not g[-1]]
        rel = KnapsackRelaxation(inst.sense, inst.n, inst.A, inst.b)
        assert poly_equal(vrep_to_hrep(points, rays), integer_hull(rel))

    def test_zero_column_is_a_ray(self):
        inst = Instance(PACKING, ((0, 2, 3),), (4,))
        assert instance_generators(inst) == [
            (0, 0, 0, 1), (0, 0, 1, 1), (0, 2, 0, 1), (1, 0, 0, 0)
        ]

    def test_budget_counts_the_lattice_box(self):
        inst = Instance(COVERING, ((1, 1, 1), (2, 1, 3)), (150, 100))
        # covering walks the first n - 1 columns of the box, 151 * 151 cells
        with pytest.raises(ResourceBudgetError, match="22801\\+ cells exceeds budget 22800"):
            instance_generators(inst, 22800)
        # the minimal points are those of x1 + x2 + x3 = 150, with 3 rays
        assert len(instance_generators(inst, 22801)) == 151 * 152 // 2 + 3


@st.composite
def integer_weighted_instances(draw):
    inst = draw(small_instances())
    k = draw(st.integers(1, 2))
    columns = [
        tuple(draw(st.lists(st.integers(0, 5), min_size=inst.m, max_size=inst.m).filter(any)))
        for _ in range(k)
    ]
    return inst, columns, draw(st.integers(1, 7))


@settings(max_examples=60, deadline=None)
@given(integer_weighted_instances())
def test_integer_rows_key_equals_canonical_key(case):
    # integer weights v and rational weights v/D share one hull-memo key
    inst, columns, d = case
    rel = build_relaxation(inst, columns)
    scaled = build_relaxation(inst, [[Fraction(w, d) for w in v] for v in columns])
    assert rel.canonical_key() == scaled.canonical_key()


def _fraction_rows(inst, columns):
    # oracle: λ·A and λ·b summed in Fraction arithmetic
    rows = tuple(
        tuple(
            sum((w * inst.A[i][j] for i, w in enumerate(lam)), Fraction(0))
            for j in range(inst.n)
        )
        for lam in columns
    )
    rhs = tuple(sum((w * b for w, b in zip(lam, inst.b)), Fraction(0)) for lam in columns)
    return rows, rhs


@settings(max_examples=60, deadline=None)
@given(integer_weighted_instances())
def test_rows_equal_fraction_sums_and_stay_int(case):
    inst, columns, d = case
    rel = build_relaxation(inst, columns)
    assert (rel.aggregated_rows, rel.aggregated_rhs) == _fraction_rows(inst, columns)
    for row, r in zip(rel.aggregated_rows, rel.aggregated_rhs):
        assert all(type(x) is int for x in row + (r,))
    rational = [[Fraction(w, d) for w in v] for v in columns]
    rel = build_relaxation(inst, rational)
    assert (rel.aggregated_rows, rel.aggregated_rhs) == _fraction_rows(inst, rational)


@st.composite
def covering_relaxations(draw):
    # rows with zero entries and fractional data, as aggregation makes them
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    entries = st.fractions(min_value=0, max_value=5, max_denominator=2)
    rows = tuple(
        tuple(draw(st.lists(entries, min_size=n, max_size=n).filter(any)))
        for _ in range(k)
    )
    rhs = tuple(
        draw(st.fractions(min_value=Fraction(1, 3), max_value=10, max_denominator=3))
        for _ in range(k)
    )
    return KnapsackRelaxation(
        sense=COVERING, n=n,
        aggregated_rows=rows, aggregated_rhs=rhs,
    )


@settings(max_examples=150, deadline=None)
@given(covering_relaxations())
def test_covering_minimal_points_match_box_oracle(rel):
    # the box bounds of `lattice_points`: no minimal point lies outside
    rows = list(zip(rel.aggregated_rows, rel.aggregated_rhs))
    bounds = [
        max([0] + [-(-r // row[j]) for row, r in rows if row[j]]) for j in range(rel.n)
    ]
    points, free = lattice_points(rel)
    assert points == covering_minimal_box(rel, bounds)
    assert free == set()
