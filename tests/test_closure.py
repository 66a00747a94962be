"""Closure construction: grid sampling, recursion bound, tuple body."""

import inspect
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aggclosure import closure, knapsack, polyhedra, verify
from aggclosure.closure import (
    ClosureArtifacts,
    FacetTuple,
    SampleScheme,
    _composition,
    _grid_bars,
    _grid_hulls,
    _grid_rows,
    aggregation_closure,
    build_K,
    build_L,
    build_Qj,
    closure_1d,
    compute_gamma,
    enumerate_tuples,
    filter_minimal_tuples,
    sample_lambdas,
    saturated,
    sampled_closure,
    separate,
)
from aggclosure.errors import ResourceBudgetError, UsageError
from aggclosure.knapsack import (
    Aggregation,
    COVERING,
    Instance,
    PACKING,
    build_relaxation,
    integer_hull,
    integer_row,
)
from aggclosure.polyhedra import (
    GE,
    LE,
    contains,
    facet_lattice_tuple,
    hrep_to_vrep,
    intersect,
    make_inequality,
    orthant,
    poly_equal,
    poly_subset,
    positive_normal_facets,
    whole_space,
)
from oracles import affine_rank, closure_1d_rounding, solve_linear, tuple_to_inequality

F = Fraction

PACK_23 = Instance(PACKING, ((2, 3),), (4,))
COVER_23 = Instance(COVERING, ((2, 3),), (4,))
COVER_FIX = Instance(COVERING, ((2, 0), (1, 3)), (3, 4))


def scheme(d=2, k=1):
    return SampleScheme(grid_denominator=d, k=k)


def _compositions(total, parts):
    # oracle: nonnegative integer vectors with the given sum, lexicographic
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class TestSampleLambdas:
    def test_two_rows_denominator_two(self):
        aggs = sample_lambdas(2, scheme(d=2))
        assert [a.weights for a in aggs] == [
            ((F(0), F(1)),),
            ((F(1, 2), F(1, 2)),),
            ((F(1), F(0)),),
        ]

    def test_single_row_collapses(self):
        for d in (1, 4, 7):
            aggs = sample_lambdas(1, scheme(d=d))
            assert [a.weights for a in aggs] == [((F(1),),)]

    def test_units_always_present(self):
        aggs = sample_lambdas(3, scheme(d=1))
        assert [a.weights[0] for a in aggs] == [
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
        ]

    def test_pairs_deduplicated_up_to_order(self):
        aggs = sample_lambdas(2, scheme(d=1, k=2))
        assert [a.weights for a in aggs] == [
            ((F(0), F(1)), (F(0), F(1))),
            ((F(0), F(1)), (F(1), F(0))),
            ((F(1), F(0)), (F(1), F(0))),
        ]

    def test_columns_sum_to_one(self):
        for agg in sample_lambdas(3, scheme(d=4)):
            assert sum(agg.weights[0]) == 1

    def test_no_rows_rejected(self):
        with pytest.raises(UsageError):
            sample_lambdas(0, scheme())

    def test_single_columns_are_compositions_over_d_in_order(self):
        for m, d in ((1, 5), (2, 3), (3, 4), (5, 16)):
            aggs = sample_lambdas(m, scheme(d=d))
            assert [a.weights for a in aggs] == [
                (tuple(F(v, d) for v in comp),) for comp in _compositions(d, m)
            ]
            assert len(aggs) == math.comb(d + m - 1, m - 1)
        assert len(sample_lambdas(5, scheme(d=16))) == 4845

    @pytest.mark.parametrize("m", range(1, 6))
    def test_bars_enumerate_the_compositions_in_order(self, m):
        for d in range(1, 17):
            assert [_composition(c, d) for c in _grid_bars(d, m)] == list(
                _compositions(d, m)
            )

    def test_pairs_are_combinations_of_the_columns(self):
        columns = [a.weights[0] for a in sample_lambdas(3, scheme(d=3))]
        pairs = sample_lambdas(3, scheme(d=3, k=2))
        assert [a.weights for a in pairs] == list(
            itertools.combinations_with_replacement(columns, 2)
        )


@st.composite
def walk_instances(draw, max_m=6, max_n=3):
    # equal neighbouring entries and entries that fall and rise along a
    # column give zero, negative and positive steps between the parts
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    sense = draw(st.sampled_from([PACKING, COVERING]))
    rows = tuple(
        tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)))
        for _ in range(m)
    )
    b = tuple(draw(st.integers(1, 60)) for _ in range(m))
    return Instance(sense, rows, b)


def _first_occurrences(inst, sch):
    # oracle: scan every aggregation in `sample_lambdas` order and keep the
    # first position of each hull, named by its canonical key, or in one
    # variable by the interval hull itself
    d = sch.grid_denominator
    comps = [_composition(c, d) for c in _grid_bars(d, inst.m)]
    first = {}
    for pos, picked in enumerate(itertools.combinations_with_replacement(comps, sch.k)):
        rel = build_relaxation(inst, picked)
        key = rel.canonical_key() if inst.n > 1 else integer_hull(rel).hrep
        first.setdefault(key, pos)
    return list(first.values())


class TestGridWalk:
    @settings(max_examples=80, deadline=None)
    @given(walk_instances(), st.integers(1, 12))
    def test_rows_are_integer_rows_in_bar_order(self, inst, d):
        rows = list(zip(*_grid_rows(inst, d)))
        assert rows == [
            integer_row(inst, _composition(c, d)) for c in _grid_bars(d, inst.m)
        ]

    @settings(max_examples=60, deadline=None)
    @given(walk_instances(max_m=4, max_n=2), st.integers(1, 6), st.integers(1, 2))
    def test_first_positions_are_first_occurrences(self, inst, d, k):
        if k == 2:
            assume(math.comb(d + inst.m - 1, inst.m - 1) <= 40)
        sch = scheme(d=d, k=k)
        comps = [_composition(c, d) for c in _grid_bars(d, inst.m)]
        walk = list(itertools.combinations_with_replacement(comps, k))
        hulls = _grid_hulls(inst, sch)
        assert [c for c, _ in hulls] == [walk[p] for p in _first_occurrences(inst, sch)]
        # no hull object under two keys
        assert len({id(hull) for _, hull in hulls}) == len(hulls)

    def test_one_walk_per_instance_and_scheme(self, monkeypatch):
        # the closure's tuples, the sampled closure, separation and the
        # shift check read one memoized walk
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        walks = []
        monkeypatch.setattr(
            closure, "_grid_rows",
            lambda inst, d, _real=_grid_rows: walks.append(inst.key()) or _real(inst, d),
        )
        sch = scheme(d=4)
        for sense in (PACKING, COVERING):
            inst = Instance(sense, ((2, 3), (3, 1)), (6, 5))
            walks.clear()
            art = aggregation_closure(inst, sch)
            sampled_closure(inst, sch)
            separate(inst, sch, (1, 1))
            if inst.sense == COVERING:
                verify.check_gamma(inst, sch)
            assert walks == [inst.key()]
            assert _grid_hulls(inst, sch) is _grid_hulls(inst, sch)
            assert art.T_sample

    def test_walk_holds_less_than_a_coordinate_of_the_grid(self, monkeypatch):
        # 135,751 weights: a list per coordinate would take about 5 MB
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        inst = Instance(PACKING, ((3,), (5,), (7,), (2,), (9,)), (40, 51, 33, 27, 59))
        tracemalloc.start()
        try:
            hulls = _grid_hulls(inst, scheme(d=40))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the positions `_first_occurrences` finds, which takes about 4 s
        positions = [0, 10, 22, 29, 33, 36, 38, 40, 510, 846]
        walk = list(itertools.islice(_grid_bars(40, inst.m), 847))
        assert [c for c, _ in hulls] == [(_composition(walk[p], 40),) for p in positions]
        assert peak < 2 * 2**20


# the five rows of the `fine5` fixture in tests/test_cli.py, as (a, b)
FINE5_ROWS = [(9, 48), (2, 37), (8, 34), (3, 57), (5, 26)]


@st.composite
def one_variable_grids(draw):
    # (sense, rows, grid, k) with 1 to 5 rows; at k = 2 the grid is
    # capped so that the walk stays under 300 columns
    sense = draw(st.sampled_from((PACKING, COVERING)))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, 40),
                st.one_of(st.integers(1, 100), st.integers(10**9, 10**18)),
            ),
            min_size=1,
            max_size=5,
        )
    )
    k = draw(st.integers(1, 2))
    top = 16
    if k == 2:
        top = max(d for d in range(1, 17) if math.comb(d + len(rows) - 1, len(rows) - 1) <= 300)
    return sense, rows, draw(st.integers(1, top)), k


class TestSampledClosure:
    def test_one_variable_packing(self):
        inst = Instance(PACKING, ((2,), (3,)), (5, 7))
        assert sampled_closure(inst, scheme(d=2)).render_lines() == [
            "1 >= 0",
            "1 <= 2",
        ]

    def test_one_variable_covering(self):
        inst = Instance(COVERING, ((2,), (3,)), (5, 7))
        assert sampled_closure(inst, scheme(d=2)).render_lines() == ["1 >= 3"]

    def test_single_row_is_exact_for_any_grid(self):
        hull = integer_hull(build_relaxation(PACK_23, (1,)))
        for d in (1, 2, 3):
            assert poly_equal(sampled_closure(PACK_23, scheme(d=d)), hull)

    def test_exact_rounding_of_large_ratios(self):
        # (10**17 + 2) / 3 as a float rounds to 33333333333333336; the
        # sampled closure goes first so that its integer rows fill the memo
        for sense, line in ((PACKING, "1 <= 33333333333333334"), (COVERING, "1 >= 33333333333333334")):
            inst = Instance(sense, ((3,),), (10**17 + 2,))
            assert line in sampled_closure(inst, scheme(d=16)).render_lines()
            hull = integer_hull(build_relaxation(inst, (1,)))
            assert line in hull.render_lines()

    @settings(max_examples=150, deadline=None)
    @given(one_variable_grids())
    @example((PACKING, [(3, 10**17 + 2)], 16, 1))
    @example((COVERING, [(3, 10**17 + 2), (7, 10**17 - 1)], 5, 2))
    @example((PACKING, FINE5_ROWS, 16, 1))
    @example((COVERING, FINE5_ROWS, 16, 1))
    def test_one_variable_matches_the_intersected_grid_hulls(self, case):
        # the old path is the reference: every distinct grid hull built
        # and intersected in one kernel run
        sense, rows, d, k = case
        inst = Instance(sense, tuple((a,) for a, _ in rows), tuple(b for _, b in rows))
        sch = scheme(d=d, k=k)
        reference = intersect([hull for _, hull in _grid_hulls(inst, sch)], sch.budget)
        assert sampled_closure(inst, sch) == reference

    def test_memoized_per_instance_and_scheme(self):
        a = sampled_closure(PACK_23, scheme())
        b = sampled_closure(
            Instance(PACKING, ((2, 3),), (4,), instance_id="copy"), scheme()
        )
        assert a is b


class TestClosure1d:
    def test_packing_minimum_ratio(self):
        inst = Instance(PACKING, ((2,), (3,)), (5, 7))
        assert closure_1d(inst).render_lines() == ["1 >= 0", "1 <= 2"]

    def test_covering_maximum_ratio(self):
        inst = Instance(COVERING, ((2,), (3,)), (5, 7))
        assert closure_1d(inst).render_lines() == ["1 >= 3"]

    def test_single_row(self):
        inst = Instance(PACKING, ((1,),), (4,))
        assert closure_1d(inst).render_lines() == ["1 >= 0", "1 <= 4"]

    def test_needs_one_variable(self):
        with pytest.raises(UsageError):
            closure_1d(PACK_23)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((PACKING, COVERING)),
        st.lists(
            st.tuples(
                st.integers(1, 40),
                st.one_of(st.integers(1, 100), st.integers(10**9, 10**18)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @example(PACKING, [(3, 10**17 + 2)])
    @example(COVERING, [(3, 10**17 + 2), (7, 5)])
    def test_matches_rounding_oracle(self, sense, rows):
        inst = Instance(sense, tuple((a,) for a, _ in rows), tuple(b for _, b in rows))
        assert closure_1d(inst) == closure_1d_rounding(inst)

    def test_no_double_description_in_one_variable(self, monkeypatch):
        # the intervals are written down and the sampled closure is read
        # off the grid's hull keys, so neither runs the kernel
        runs = []
        kernel = polyhedra._double_description

        def counted(*args):
            runs.append(args)
            return kernel(*args)

        monkeypatch.setattr(polyhedra, "_double_description", counted)
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        inst = Instance(PACKING, ((2,), (3,), (5,), (7,), (4,)), (97, 131, 311, 401, 113))
        aggregation_closure(inst, scheme(d=16))
        sampled_closure(inst, scheme(d=16))
        assert len(runs) == 0


class TestBuildQj:
    def test_packing_drops_column(self):
        inst = Instance(PACKING, ((2, 3), (1, 4)), (4, 4))
        sub = build_Qj(inst, 1)
        assert sub.A == ((3,), (4,))
        assert sub.b == (4, 4)
        assert sub.sense == PACKING

    def test_covering_keeps_zero_rows(self):
        sub = build_Qj(COVER_FIX, 2)
        assert sub.A == ((2,),)
        assert sub.b == (3,)
        assert sub.sense == COVERING

    def test_covering_no_zero_rows_gives_orthant(self):
        assert build_Qj(COVER_FIX, 1) is None

    def test_packing_vacuous_remainder_gives_orthant(self):
        inst = Instance(PACKING, ((2, 0),), (3,))
        assert build_Qj(inst, 1) is None

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            build_Qj(PACK_23, 0)
        with pytest.raises(UsageError):
            build_Qj(PACK_23, 3)

    def test_single_variable_rejected(self):
        inst = Instance(PACKING, ((2,),), (3,))
        with pytest.raises(UsageError):
            build_Qj(inst, 1)


class TestBuildL:
    def test_packing_box(self):
        assert intersect(build_L(PACK_23, scheme())).render_lines() == [
            "1 0 >= 0",
            "0 1 >= 0",
            "0 1 <= 1",
            "1 0 <= 2",
        ]

    def test_covering_fixture(self):
        assert intersect(build_L(COVER_FIX, scheme(d=3))).render_lines() == [
            "0 1 >= 0",
            "1 0 >= 2",
        ]

    def test_needs_two_variables(self):
        inst = Instance(PACKING, ((2,),), (3,))
        with pytest.raises(UsageError):
            build_L(inst, scheme())


class TestComputeGamma:
    def test_fixture(self):
        assert compute_gamma(COVER_FIX) == 4

    def test_unit_row(self):
        assert compute_gamma(Instance(COVERING, ((1, 1),), (1,))) == 1

    def test_worst_ratio_rounds_up(self):
        assert compute_gamma(Instance(COVERING, ((5, 2),), (10,))) == 5

    def test_packing_rejected(self):
        with pytest.raises(UsageError):
            compute_gamma(PACK_23)

    @settings(max_examples=100, deadline=None)
    @given(st.deferred(lambda: instances(
        max_n=4, max_m=3, max_coeff=9, max_rhs=60, sense=COVERING
    )))
    def test_matches_the_ceiling_of_the_largest_ratio(self, inst):
        ratios = [F(b, a) for row, b in zip(inst.A, inst.b) for a in row if a]
        assert compute_gamma(inst) == math.ceil(max(ratios))


class TestEnumerateTuples:
    def test_packing_single_row(self):
        tuples = enumerate_tuples(PACK_23, scheme())
        assert [t.points for t in tuples] == [((0, 1), (2, 0))]
        assert tuples[0].source_facet.render() == "1 2 <= 2"
        assert tuples[0].source_lambda.weights == ((F(1),),)

    def test_covering_single_row(self):
        tuples = enumerate_tuples(COVER_23, scheme())
        assert [t.points for t in tuples] == [((0, 2), (2, 0))]
        assert tuples[0].source_facet.render() == "1 1 >= 2"

    def test_axis_parallel_hull_has_no_tuples(self):
        inst = Instance(PACKING, ((2, 0),), (3,))
        assert enumerate_tuples(inst, scheme(d=1)) == []

    def test_deduplicated_across_lambdas(self):
        # every weight is a rescaling of the single row, so one tuple
        tuples = enumerate_tuples(PACK_23, scheme(d=6))
        assert len(tuples) == 1


class TestFilterMinimalTuples:
    def test_packing_keeps_minimal_point(self):
        tuples = [FacetTuple(points=((c,),)) for c in (3, 2, 5)]
        kept = filter_minimal_tuples(tuples, PACKING)
        assert [t.points for t in kept] == [((2,),)]

    def test_covering_keeps_maximal_point(self):
        tuples = [FacetTuple(points=((c,),)) for c in (3, 2, 5)]
        kept = filter_minimal_tuples(tuples, COVERING)
        assert [t.points for t in kept] == [((5,),)]

    def test_componentwise_on_sorted_concatenation(self):
        small = FacetTuple(points=((0, 1), (2, 0)))
        large = FacetTuple(points=((0, 1), (3, 0)))
        kept = filter_minimal_tuples([large, small], PACKING)
        assert [t.points for t in kept] == [((0, 1), (2, 0))]

    def test_incomparable_tuples_kept(self):
        a = FacetTuple(points=((0, 2), (1, 0)))
        b = FacetTuple(points=((0, 1), (2, 0)))
        kept = filter_minimal_tuples([a, b], PACKING)
        assert {t.points for t in kept} == {a.points, b.points}

    def test_duplicates_collapse(self):
        a = FacetTuple(points=((0, 1), (2, 0)))
        b = FacetTuple(points=((0, 1), (2, 0)))
        assert len(filter_minimal_tuples([a, b], COVERING)) == 1

    def test_unknown_sense(self):
        with pytest.raises(UsageError):
            filter_minimal_tuples([], "mixed")


class TestTupleToInequality:
    def test_covering_pair(self):
        t = FacetTuple(points=((0, 2), (2, 0)))
        assert tuple_to_inequality(t, COVERING).render() == "1 1 >= 2"

    def test_packing_pair(self):
        t = FacetTuple(points=((0, 1), (2, 0)))
        assert tuple_to_inequality(t, PACKING).render() == "1 2 <= 2"

    def test_one_dimensional(self):
        assert tuple_to_inequality(FacetTuple(points=((1,),)), PACKING).render() == "1 <= 1"

    def test_raw_point_tuples_accepted(self):
        assert tuple_to_inequality([(0, 2), (2, 0)], COVERING).render() == "1 1 >= 2"

    def test_dependent_points_rejected(self):
        with pytest.raises(RuntimeError):
            tuple_to_inequality([(1, 0), (2, 0)], PACKING)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-3, 5)] * n), min_size=n, max_size=n
        )
    ), st.sampled_from([PACKING, COVERING]))
    def test_matches_rational_solve(self, points, sense):
        # oracle: the normal as the Fraction solution of <a, p_i> = 1
        assume(affine_rank(points) == len(points))
        normal = solve_linear(points, [1] * len(points))
        if normal is None:
            with pytest.raises(RuntimeError):
                tuple_to_inequality(points, sense)
        else:
            expected = make_inequality(normal, 1, LE if sense == PACKING else GE)
            assert tuple_to_inequality(points, sense) == expected


def _facet_tuple(points, sense):
    # a tuple with the facet it was read from, as `enumerate_tuples` makes it
    return FacetTuple(points=points, source_facet=tuple_to_inequality(points, sense))


class TestBuildK:
    def test_empty_family_is_whole_space(self):
        assert poly_equal(build_K([], 2), whole_space(2))

    def test_single_tuple(self):
        t = _facet_tuple(((0, 1), (2, 0)), PACKING)
        assert build_K([t], 2).render_lines() == ["1 2 <= 2"]

    def test_redundant_tuples_merge(self):
        strong = _facet_tuple(((0, 1), (2, 0)), PACKING)
        weak = _facet_tuple(((0, 2), (4, 0)), PACKING)
        body = build_K([strong, weak], 2)
        assert body.render_lines() == ["1 2 <= 2"]
        assert poly_subset(body, build_K([weak], 2))


class TestAggregationClosure:
    def test_packing_single_row(self):
        art = aggregation_closure(PACK_23, scheme())
        assert art.closure.render_lines() == ["1 0 >= 0", "0 1 >= 0", "1 2 <= 2"]
        assert art.K().render_lines() == ["1 2 <= 2"]
        assert art.L().render_lines() == ["1 0 >= 0", "0 1 >= 0", "0 1 <= 1", "1 0 <= 2"]
        assert [t.points for t in art.S] == [((0, 1), (2, 0))]
        assert art.gamma is None

    def test_covering_single_row(self):
        art = aggregation_closure(COVER_23, scheme())
        assert art.closure.render_lines() == ["1 0 >= 0", "0 1 >= 0", "1 1 >= 2"]
        assert art.gamma == 2

    def test_integral_relaxation_is_fixed_point(self):
        inst = Instance(PACKING, ((2, 3),), (6,))
        art = aggregation_closure(inst, scheme())
        assert art.closure.render_lines() == ["1 0 >= 0", "0 1 >= 0", "2 3 <= 6"]

    def test_one_variable_uses_closed_form(self):
        inst = Instance(PACKING, ((2,),), (5,))
        art = aggregation_closure(inst, scheme())
        assert art.closure.render_lines() == ["1 >= 0", "1 <= 2"]
        assert poly_equal(art.K(), whole_space(1))
        assert poly_equal(art.L(), art.closure)
        assert art.T_sample == () and art.S == ()

    def test_covering_free_column_splits_off(self):
        inst = Instance(COVERING, ((2, 0),), (3,))
        art = aggregation_closure(inst, scheme())
        assert art.closure.render_lines() == ["0 1 >= 0", "1 0 >= 2"]
        assert poly_equal(art.K(), whole_space(2))
        assert art.gamma is None
        assert art.T_sample == () and art.S == ()

    def test_memoized_per_instance_and_scheme(self):
        a = aggregation_closure(PACK_23, scheme())
        b = aggregation_closure(Instance(PACKING, ((2, 3),), (4,)), scheme())
        assert a is b

    def test_closure_equals_K_cap_L_cap_orthant(self):
        art = aggregation_closure(COVER_FIX, scheme(d=3))
        rebuilt = intersect([art.K(), art.L(), orthant(COVER_FIX.n)])
        assert poly_equal(art.closure, rebuilt)

    def test_recursion_builds_neither_L_nor_K(self, monkeypatch):
        # each closure of the recursion is one kernel run over the rows of
        # its inputs; L and K are built only when a caller asks for them
        calls = {"build_K": 0, "intersect": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(closure, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(closure, name, counted)
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        inst = Instance(PACKING, ((3, 2, 4), (2, 5, 1), (4, 1, 3)), (9, 10, 8))
        art = aggregation_closure(inst, scheme(d=4))
        assert calls == {"build_K": 0, "intersect": 0}
        art.L()
        art.K()
        assert calls == {"build_K": 1, "intersect": 1}


@st.composite
def several_row_instances(draw):
    # n = 2 or 3, m = 2 or 3, entries 0..6 with zeros but no zero row
    sense = draw(st.sampled_from((PACKING, COVERING)))
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    row = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)
    A = tuple(tuple(draw(row)) for _ in range(m))
    return Instance(sense, A, tuple(draw(st.integers(4, 14)) for _ in range(m)))


def instance_hull(inst):
    # P_I: at k = m the unit tuple's relaxation is the instance itself
    units = tuple(tuple(int(i == j) for i in range(inst.m)) for j in range(inst.m))
    return integer_hull(build_relaxation(inst, units))


def feasible(inst, point):
    lhs = [sum(a * x for a, x in zip(row, point)) for row in inst.A]
    if inst.sense == PACKING:
        return all(v <= r for v, r in zip(lhs, inst.b))
    return all(v >= r for v, r in zip(lhs, inst.b))


class TestInstanceHullOracle:
    # every aggregation cut is valid for P_I, and at k = m the grid holds
    # the unit tuple, whose hull is P_I itself

    @settings(max_examples=100, deadline=None)
    @given(several_row_instances(), st.integers(1, 2))
    def test_instance_hull_bounds_the_closure(self, inst, d):
        hull = instance_hull(inst)
        # P_I's own oracle: its vertices are feasible lattice points, and
        # every feasible point of the column bounds' box satisfies its rows
        for g in hull.generators:
            if g[-1]:
                assert all(c % g[-1] == 0 for c in g[:-1])
                assert feasible(inst, [c // g[-1] for c in g[:-1]])
        sides = [1 if c is None else c for c in knapsack.column_bounds(inst.sense, inst.A, inst.b)]
        for p in itertools.product(*(range(c + 1) for c in sides)):
            if feasible(inst, p):
                assert contains(hull, p)
        assert poly_equal(sampled_closure(inst, SampleScheme(d, k=inst.m)), hull)
        for k in sorted({1, 2, inst.m}):
            body = aggregation_closure(inst, SampleScheme(d, k=k)).closure
            assert all(iq.holds_at(g) for g in hull.generators for iq in body.hrep)

    @pytest.mark.parametrize(
        "inst",
        [
            Instance(PACKING, ((3, 2, 4), (2, 5, 1), (4, 1, 3)), (9, 10, 8)),
            Instance(COVERING, ((2, 0), (1, 3)), (3, 4)),
            Instance(PACKING, ((2, 3), (3, 2), (4, 5)), (5, 5, 9)),
        ],
    )
    def test_closure_at_k_equal_m_is_the_instance_hull(self, inst):
        # saturation is not a theorem, so it is asserted on fixed cases
        art = aggregation_closure(inst, SampleScheme(2, k=inst.m))
        assert poly_equal(art.closure, instance_hull(inst))
        assert saturated(art)

    @pytest.mark.parametrize(
        "inst, count",
        [
            # pack6x3 and pack7x2 of the ROADMAP baseline
            (Instance(PACKING, ((3, 2, 4, 1, 2, 3), (2, 5, 1, 3, 1, 2), (4, 1, 3, 2, 5, 1)), (9, 10, 8)), 49),
            (Instance(PACKING, ((3, 2, 4, 1, 2, 3, 5), (2, 5, 1, 3, 1, 2, 4)), (9, 10)), 112),
            (Instance(COVERING, ((2, 0, 3), (1, 3, 0), (0, 2, 2)), (7, 8, 6)), 59),
        ],
        ids=["pack6x3", "pack7x2", "cover3x3b"],
    )
    def test_large_closures_keep_every_feasible_point(self, inst, count):
        # P_I lies in the closure: every feasible lattice point of the
        # column bounds' box satisfies every closure row.  A covering
        # point past the box is cut back into it coordinatewise and stays
        # feasible, so with >= rows of nonnegative normals the box is enough
        body = aggregation_closure(inst, SampleScheme(4)).closure
        if inst.sense == COVERING:
            assert all(iq.sense == GE and min(iq.normal) >= 0 for iq in body.hrep)
        sides = knapsack.column_bounds(inst.sense, inst.A, inst.b)
        points = [
            p for p in itertools.product(*(range(c + 1) for c in sides)) if feasible(inst, p)
        ]
        assert len(points) == count
        assert all(contains(body, p) for p in points)


class TestSchemeBudget:
    # the work budget is a field of the scheme; the closure and check
    # functions read it from there and take no budget of their own

    @pytest.mark.parametrize("budget", [0, "5"])
    def test_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(UsageError, match="work budget"):
            SampleScheme(budget=budget)

    def test_closures_are_kept_per_budget(self, monkeypatch):
        # the scheme, budget included, is the memo key
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        a = aggregation_closure(PACK_23, scheme())
        b = aggregation_closure(PACK_23, SampleScheme(2, budget=500))
        assert a is not b and a.closure == b.closure
        assert aggregation_closure(PACK_23, SampleScheme(2, budget=500)) is b

    def test_rounds_share_one_closure_and_one_walk(self, monkeypatch):
        # refinement rounds are `separate`'s own, so a closure and its
        # grid walk are kept per scheme whatever the rounds
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        inst = Instance(PACKING, ((3, 2, 4), (2, 5, 1), (4, 1, 3)), (9, 10, 8))
        walks = []

        def counted(*args):
            walks.append(args[0])
            return _grid_rows(*args)

        monkeypatch.setattr(closure, "_grid_rows", counted)
        art = aggregation_closure(inst, SampleScheme(2))
        x = (F(5, 2), 0, 0)
        assert not separate(inst, SampleScheme(2), x, rounds=0).inside
        assert not separate(inst, SampleScheme(2), x, rounds=3).inside
        assert walks.count(inst) == 1
        assert aggregation_closure(inst, SampleScheme(2)) is art

    @pytest.mark.parametrize("rounds", [-1, 1.0, "1"])
    def test_rounds_are_checked_before_the_point(self, rounds):
        with pytest.raises(UsageError, match="refinement rounds must be a nonnegative integer"):
            separate(PACK_23, SampleScheme(2), (1,), rounds=rounds)

    def test_kernel_trip_names_the_run(self, monkeypatch):
        # the message `closure pack4x3 --grid 4 --budget 1000` prints
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        monkeypatch.setattr(knapsack, "_HULL_MEMO", {})
        inst = Instance(PACKING, ((3, 2, 4, 1), (2, 5, 1, 3), (4, 1, 3, 2)), (9, 10, 8))
        with pytest.raises(ResourceBudgetError) as err:
            aggregation_closure(inst, SampleScheme(4, budget=1000))
        assert str(err.value) == (
            "hrep_to_vrep double description of 1025+ ray pairs exceeds budget 1000"
        )

    def test_grid_trip_under_the_default_budget(self, monkeypatch):
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        # the `fine5x2` fixture trips on the count of its grid before any
        # work; its one-variable twin `fine5` is the closed form, walks no
        # weight and charges no grid
        def no_walk(*args):
            raise AssertionError("a one-variable sampled closure walked the grid")

        monkeypatch.setattr(closure, "_grid_rows", no_walk)
        A, b = ((9, 4), (2, 7), (8, 3), (3, 5), (5, 6)), (48, 37, 34, 57, 26)
        with pytest.raises(ResourceBudgetError) as err:
            sampled_closure(Instance(PACKING, A, b), SampleScheme(16, k=2))
        assert str(err.value) == "grid walk of 11739435 aggregations exceeds budget 10000000"
        A1 = tuple(row[:1] for row in A)
        for sense in (PACKING, COVERING):
            inst = Instance(sense, A1, b)
            for sch in (SampleScheme(4), SampleScheme(4, k=2), SampleScheme(16, k=2)):
                assert sampled_closure(inst, sch) == closure_1d(inst)

    def test_refinement_trip_counts_a_round(self, monkeypatch):
        # a round around a cut at k = 1 tries 3^3 - 1 = 26 weights; an
        # inside point, no rounds and k = 2 refine nothing and never trip
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        inst = Instance(PACKING, ((2, 3), (3, 2), (4, 5)), (5, 5, 9))
        x = (F(5, 2), 0)
        with pytest.raises(ResourceBudgetError) as err:
            separate(inst, SampleScheme(1, budget=10), x)
        assert str(err.value) == "separation refinement of 26 aggregations exceeds budget 10"
        assert not separate(inst, SampleScheme(1, budget=26), x).inside
        assert separate(inst, SampleScheme(1, budget=10), (0, 0)).inside
        assert not separate(inst, SampleScheme(1, budget=10), x, rounds=0).inside
        assert not separate(inst, SampleScheme(1, k=2, budget=10), x).inside
        # in one variable the grid's cut is final, so nothing is refined
        one = Instance(PACKING, ((2,), (3,), (4,)), (9, 10, 11))
        assert separate(one, SampleScheme(1, budget=10), (5,)) == separate(
            one, SampleScheme(1), (5,), rounds=0
        )

    def test_only_build_K_takes_a_budget(self):
        # build_K is called with tuples, not with a scheme
        takers = {
            f"{module.__name__}.{qualname}"
            for module in (closure, verify)
            for qualname, func in _functions(module)
            if "budget" in inspect.signature(func).parameters
        }
        assert takers == {"aggclosure.closure.build_K"}


def _functions(module):
    # the module's own functions and the methods of its own classes; the
    # constructors are left out, SampleScheme's sets the budget field
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and attr != "__init__":
                    yield f"{name}.{attr}", member


class TestSeparate:
    def test_cuts_fractional_point(self):
        res = separate(PACK_23, scheme(d=1), (F(3, 2), F(1, 2)))
        assert not res.inside
        assert res.cut.render() == "1 2 <= 2"
        assert res.violation == F(1, 2)
        assert res.witness.weights == ((F(1),),)

    def test_origin_inside_packing(self):
        assert separate(PACK_23, scheme(), (0, 0)).inside

    def test_origin_cut_for_covering(self):
        res = separate(COVER_23, scheme(), (0, 0))
        assert res.cut.render() == "1 1 >= 2"
        assert res.violation == 2

    def test_dimension_checked(self):
        with pytest.raises(UsageError):
            separate(PACK_23, scheme(), (1,))

    def test_negative_point_rejected(self):
        with pytest.raises(UsageError):
            separate(PACK_23, scheme(), (F(-1, 2), 0))

    def test_refinement_never_hurts_and_is_deterministic(self):
        inst = Instance(PACKING, ((3, 4), (2, 1)), (7, 5))
        x = (F(5, 2), F(0))
        coarse = separate(inst, scheme(d=1), x, rounds=0)
        fine = separate(inst, scheme(d=1), x, rounds=2)
        again = separate(inst, scheme(d=1), x, rounds=2)
        assert not coarse.inside and not fine.inside
        assert fine.violation >= coarse.violation
        assert fine == again

    @pytest.mark.parametrize("sense, x", [(PACKING, (5,)), (COVERING, (F(11, 2),))])
    def test_one_variable_builds_one_relaxation_per_grid_key(self, monkeypatch, sense, x):
        # the grid's cut is final in one variable, so three rounds build
        # only the grid's own relaxations: one per distinct endpoint
        monkeypatch.setattr(closure, "_CLOSURE_MEMO", {})
        calls = []

        def counted(*args):
            calls.append(args)
            return build_relaxation(*args)

        monkeypatch.setattr(closure, "build_relaxation", counted)
        inst = Instance(sense, tuple((a,) for a, _ in FINE5_ROWS), tuple(b for _, b in FINE5_ROWS))
        sch = scheme(d=16)
        rounding = math.floor if sense == PACKING else math.ceil
        keys = set()
        for agg in sample_lambdas(inst.m, sch):
            (lam,) = agg.weights
            va = sum(w * a for w, (a,) in zip(lam, inst.A))
            keys.add(rounding(sum(w * b for w, b in zip(lam, inst.b)) / va))
        assert not separate(inst, sch, x, rounds=3).inside
        assert len(calls) == len(keys)


# -- property tests ----------------------------------------------------

senses = st.sampled_from([PACKING, COVERING])


@st.composite
def instances(draw, max_n=3, max_m=2, max_coeff=3, max_rhs=6, sense=None):
    sense = sense or draw(senses)
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    rows = []
    for _ in range(m):
        row = draw(
            st.lists(st.integers(0, max_coeff), min_size=n, max_size=n).filter(any)
        )
        rows.append(tuple(row))
    b = tuple(draw(st.integers(1, max_rhs)) for _ in range(m))
    return Instance(sense, tuple(rows), b)


def feasible_probe_points(inst, limit=4):
    box = range(limit + 1)
    import itertools as it

    for p in it.product(box, repeat=inst.n):
        ok = True
        for row, rhs in zip(inst.A, inst.b):
            lhs = sum(c * x for c, x in zip(row, p))
            if (inst.sense == PACKING and lhs > rhs) or (
                inst.sense == COVERING and lhs < rhs
            ):
                ok = False
                break
        if ok:
            yield p


@settings(max_examples=25, deadline=None)
@given(instances(max_n=2))
def test_finer_grid_never_loosens(inst):
    coarse = sampled_closure(inst, scheme(d=1))
    fine = sampled_closure(inst, scheme(d=2))
    assert poly_subset(fine, coarse)


@settings(max_examples=20, deadline=None)
@given(instances())
def test_closure_inside_every_sampled_hull(inst):
    sch = scheme()
    art = aggregation_closure(inst, sch)
    assert poly_subset(art.closure, sampled_closure(inst, sch))


@settings(max_examples=20, deadline=None)
@given(instances())
def test_feasible_lattice_points_survive(inst):
    art = aggregation_closure(inst, scheme())
    for p in feasible_probe_points(inst):
        assert contains(art.closure, p)


@settings(max_examples=15, deadline=None)
@given(instances(max_n=2, sense=COVERING))
def test_shift_bound_reenters_all_hulls(inst):
    sch = scheme()
    art = aggregation_closure(inst, sch)
    if art.gamma is None:
        return
    body = sampled_closure(inst, sch)
    for v in art.L().vrep_points:
        for j in range(inst.n):
            shifted = tuple(c + art.gamma * (1 if i == j else 0) for i, c in enumerate(v))
            assert contains(body, shifted)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=2),
        min_size=1,
        max_size=6,
    ),
    senses,
)
def test_filter_output_is_antichain(point_lists, sense):
    from aggclosure.closure import _dominates, _flat_key

    tuples = [FacetTuple(points=tuple(pts)) for pts in point_lists]
    kept = filter_minimal_tuples(tuples, sense)
    keys = [_flat_key(t) for t in kept]
    for a in keys:
        for b in keys:
            assert not _dominates(a, b) or a == b


@settings(max_examples=15, deadline=None)
@given(instances(max_n=2))
# the filter drops the packing cut x + 3y <= 4: it follows from y <= 1
# (in L) and x + 2y <= 3, but not from the kept tuples on the orthant
@example(Instance(PACKING, ((0, 1), (1, 2)), (1, 3)))
def test_filter_preserves_tuple_body_on_orthant(inst):
    sch = scheme()
    T = enumerate_tuples(inst, sch)
    S = filter_minimal_tuples(T, inst.sense)
    # the closure only needs K(T) and K(S) to agree inside L ∩ orthant;
    # covering tuples agree on the orthant alone
    bodies = [orthant(inst.n)]
    if inst.sense == PACKING:
        bodies.append(aggregation_closure(inst, sch).L())
    full = intersect([build_K(T, inst.n), *bodies])
    slim = intersect([build_K(S, inst.n), *bodies])
    assert poly_equal(full, slim)


@st.composite
def tuple_cases(draw):
    inst = draw(instances(max_n=4, max_m=3).filter(lambda inst: inst.n >= 2))
    k = draw(st.integers(1, 2))
    # the grid cap of `grid_cases`: pairs over wide instances take seconds
    d = draw(st.integers(1, 4 if k == 1 or inst.n * inst.m <= 4 else 3))
    return inst, scheme(d=d, k=k)


@settings(max_examples=40, deadline=None)
@given(tuple_cases())
@example((Instance(PACKING, ((3, 2, 4), (2, 5, 1), (4, 1, 3)), (9, 10, 8)), scheme(d=4)))
# a free column: the closure splits it off and reads no tuples
@example((Instance(COVERING, ((2, 0, 1), (1, 0, 3)), (3, 4)), scheme(d=2)))
@example((Instance(PACKING, ((3, 2), (1, 4), (2, 2)), (5, 6, 4)), scheme(d=3, k=2)))
def test_K_rows_are_the_facets_the_tuples_were_read_from(case):
    # oracle: the hyperplane through each tuple's points, by null space
    inst, sch = case
    for t in enumerate_tuples(inst, sch):
        assert t.source_facet == tuple_to_inequality(t.points, inst.sense)
    art = aggregation_closure(inst, sch)
    if art.S:
        expected = hrep_to_vrep([tuple_to_inequality(t, inst.sense) for t in art.S], inst.n)
    else:
        expected = whole_space(inst.n)
    assert art.K() == expected


@settings(max_examples=20, deadline=None)
@given(instances(max_n=3))
@example(Instance(PACKING, ((2,), (3,)), (5, 7)))
@example(Instance(COVERING, ((2, 0, 1), (1, 0, 3)), (3, 4)))
# L is lower-dimensional: dropping x_2 leaves 3 x_1 <= 2, so x_1 = 0
@example(Instance(PACKING, ((3, 1),), (2,)))
@example(Instance(PACKING, ((3, 1, 2), (4, 1, 1)), (2, 3)))
# four variables, beyond the drawn cases
@example(Instance(PACKING, ((5, 4, 4, 3),), (11,)))
def test_closure_is_exactly_K_cap_L_cap_orthant(inst):
    # `saturated` compares art.closure itself against the sampled closure
    art = aggregation_closure(inst, scheme())
    rebuilt = intersect([art.K(), art.L(), orthant(inst.n)])
    assert rebuilt.hrep == art.closure.hrep
    assert rebuilt.feasible == art.closure.feasible


@settings(max_examples=15, deadline=None)
@given(instances(max_n=2, max_m=1))
def test_relaxing_rhs_grows_packing_shrinks_covering(inst):
    sch = scheme()
    looser = Instance(inst.sense, inst.A, tuple(r + 1 for r in inst.b))
    tight = aggregation_closure(inst, sch).closure
    loose = aggregation_closure(looser, sch).closure
    if inst.sense == PACKING:
        assert poly_subset(tight, loose)
    else:
        assert poly_subset(loose, tight)


@settings(max_examples=12, deadline=None)
@given(instances(max_n=2, max_m=2))
def test_pairwise_aggregation_refines_single(inst):
    single = sampled_closure(inst, scheme(d=1, k=1))
    paired = sampled_closure(inst, scheme(d=1, k=2))
    assert poly_subset(paired, single)


# -- the integer grid path against the rational one ---------------------
#
# The oracles below walk `sample_lambdas` and build one Fraction
# relaxation per sampled weight, as the library did before it carried
# grid weights as integer compositions.


def _cold():
    knapsack._HULL_MEMO.clear()
    polyhedra.interval.cache_clear()
    polyhedra.orthant.cache_clear()
    polyhedra.whole_space.cache_clear()
    closure._CLOSURE_MEMO.clear()


def _oracle_hulls(inst, sch):
    aggs = sample_lambdas(inst.m, sch)
    return aggs, [integer_hull(build_relaxation(inst, agg)) for agg in aggs]


def _oracle_tuples(inst, sch):
    found = {}
    for agg, hull in zip(*_oracle_hulls(inst, sch)):
        if not hull.feasible or hull.affine_dim < hull.dim:
            continue
        for facet in positive_normal_facets(hull):
            if inst.sense == PACKING and facet.rhs <= 0:
                continue
            pts = facet_lattice_tuple(hull, facet)
            found.setdefault(pts, (pts, agg, facet))
    return [found[key] for key in sorted(found)]


def _oracle_separate(inst, sch, x, rounds):
    best = None

    def consider(agg):
        nonlocal best
        hull = integer_hull(build_relaxation(inst, agg))
        if not hull.feasible:
            return
        for ineq in hull.hrep:
            value = ineq.evaluate(x)
            gap = value - ineq.rhs if ineq.sense == LE else ineq.rhs - value
            if gap > 0 and (best is None or gap > best[0]):
                best = (gap, agg, ineq)

    for agg in sample_lambdas(inst.m, sch):
        consider(agg)
    if best is not None and sch.k == 1:
        for round_no in range(1, rounds + 1):
            center = best[1].weights[0]
            step = F(1, sch.grid_denominator * 2**round_no)
            for delta in itertools.product((-1, 0, 1), repeat=inst.m):
                if not any(delta):
                    continue
                cand = tuple(w + step * d for w, d in zip(center, delta))
                if any(w < 0 for w in cand) or not any(cand):
                    continue
                # scaled to sum 1: hulls do not change when a row is scaled
                total = sum(cand)
                consider(Aggregation((tuple(w / total for w in cand),)))
    return best


@st.composite
def grid_cases(draw):
    inst = draw(instances(max_m=3))
    if inst.sense == COVERING and inst.n > 1 and draw(st.booleans()):
        axis = draw(st.integers(0, inst.n - 1))
        rows = tuple(row[:axis] + (0,) + row[axis + 1 :] for row in inst.A)
        if all(any(row) for row in rows):
            inst = Instance(COVERING, rows, inst.b)
    k = draw(st.integers(1, 2))
    # pairs over a 2x3 or 3x3 instance at grid 6 take seconds each
    d = draw(st.integers(1, 6 if k == 1 or inst.n * inst.m <= 4 else 3))
    x = tuple(draw(st.fractions(0, 4, max_denominator=3)) for _ in range(inst.n))
    # with m <= 3 a refinement round tries at most 26 weights
    return inst, scheme(d=d, k=k), x, draw(st.integers(0, 3))


@settings(max_examples=25, deadline=None)
@given(grid_cases())
@example((Instance(COVERING, ((2, 0, 1), (1, 0, 3)), (3, 4)), scheme(d=5), (F(1, 2), 0, F(1, 3)), 1))
@example((Instance(PACKING, ((3, 2), (1, 4), (2, 2)), (5, 6, 4)), scheme(d=3, k=2), (F(4, 3), F(2, 3)), 1))
@example((Instance(PACKING, ((9,), (2,), (8,), (3,), (5,)), (48, 37, 34, 57, 26)), scheme(d=16), (F(7, 2),), 1))
@example((Instance(COVERING, ((9,), (2,), (8,), (3,), (5,)), (48, 37, 34, 57, 26)), scheme(d=16), (F(11, 2),), 1))
@example((Instance(COVERING, ((3,), (5,), (2,)), (17, 23, 9)), scheme(d=4, k=2), (F(9, 2),), 1))
@example((Instance(PACKING, ((2, 3, 1),), (7,)), scheme(d=3), (F(1, 2), F(3, 2), 1), 1))
# the winner leaves the grid in round 1 and moves again in rounds 2 and 3:
# 1 0 0, 2/3 0 1/3, 1/3 1/5 7/15, 5/27 13/45 71/135 for packing and
# 0 3/4 1/4, 1/9 7/9 1/9, 25/153 121/153 7/153, 953/5049 4025/5049 71/5049
# for covering
@example((Instance(PACKING, ((3, 3), (1, 0), (3, 0)), (4, 4, 5)), scheme(d=1), (F(11, 2), F(4, 3)), 3))
@example((Instance(COVERING, ((2, 0), (3, 0), (0, 2)), (2, 6, 1)), scheme(d=4), (0, 5), 3))
def test_integer_grid_path_matches_rational_oracle(case):
    inst, sch, x, rounds = case
    _cold()
    sampled = sampled_closure(inst, sch)
    tuples = [
        (t.points, t.source_lambda, t.source_facet) for t in enumerate_tuples(inst, sch)
    ]
    res = separate(inst, sch, x, rounds)
    _cold()
    oracle = intersect(_oracle_hulls(inst, sch)[1])
    assert sampled.hrep == oracle.hrep
    assert sampled.feasible == oracle.feasible
    assert tuples == _oracle_tuples(inst, sch)
    best = _oracle_separate(inst, sch, x, rounds)
    if best is None:
        assert res.inside
    else:
        assert (res.violation, res.witness, res.cut) == best
