"""Check harness: report plumbing, the five checks, suite dispatch."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aggclosure import closure, knapsack, polyhedra, verify
from aggclosure.closure import (
    ClosureArtifacts,
    FacetTuple,
    SampleScheme,
    aggregation_closure,
    sample_lambdas,
    sampled_closure,
)
from aggclosure.errors import ResourceBudgetError, UsageError
from aggclosure.knapsack import (
    COVERING,
    DEFAULT_CELL_BUDGET,
    Instance,
    PACKING,
    build_relaxation,
    cg_cut,
    integer_hull,
)
from aggclosure.polyhedra import (
    GE,
    LE,
    hrep_to_vrep,
    intersect,
    make_inequality,
    orthant,
    poly_equal,
    vrep_to_hrep,
)
from aggclosure.verify import (
    FAIL,
    PASS,
    SKIPPED,
    CheckReport,
    _escape_witness,
    _point,
    _pushed,
    check_cg_dominance,
    check_gamma,
    check_onerow_ratio,
    check_oracle_m1,
    check_sandwich,
    failures,
    run_suite,
    suite_json,
    suite_lines,
)
from conftest import clear_caches
from oracles import rowwise_hulls, sandwich_full_box

F = Fraction

PACK23 = Instance(PACKING, ((2, 3),), (4,), instance_id="pack23")
COVER23 = Instance(COVERING, ((2, 3),), (4,), instance_id="cover23")
UNIT3 = Instance(PACKING, ((1, 1),), (3,), instance_id="unit3")
COVERFIX = Instance(COVERING, ((2, 0), (1, 3)), (3, 4), instance_id="coverfix")
LP_INTEGRAL = Instance(PACKING, ((2, 3),), (6,), instance_id="lpint")
PACK2ROWS = Instance(PACKING, ((2, 3), (1, 4)), (4, 4), instance_id="pack2rows")


def scheme(d=2):
    return SampleScheme(grid_denominator=d)


class TestCheckReport:
    def test_fail_requires_witness(self):
        with pytest.raises(UsageError):
            CheckReport("sandwich", "x", FAIL)

    def test_unknown_status_rejected(self):
        with pytest.raises(UsageError):
            CheckReport("sandwich", "x", "maybe")

    def test_tsv_shape(self):
        rep = CheckReport("sandwich", "fix", PASS, note="saturation=true")
        fields = rep.tsv_line().split("\t")
        assert fields[:3] == ["sandwich", "fix", "pass"]
        assert fields[3] == "-" and fields[4] == "0"
        assert fields[5] == "saturation=true"

    def test_blank_instance_renders_dash(self):
        rep = CheckReport("sandwich", "", PASS)
        assert rep.tsv_line().split("\t")[1] == "-"


class TestEscapeWitness:
    def test_vertex_escape(self):
        box = vrep_to_hrep([(0, 0), (2, 0), (0, 2), (2, 2)])
        tri = vrep_to_hrep([(0, 0), (2, 0), (0, 1)])
        point, row = _escape_witness(box.generators, tri.hrep)
        assert not row.admits_point(point)

    def test_ray_escape(self):
        box = vrep_to_hrep([(0, 0), (2, 0), (0, 2), (2, 2)])
        point, row = _escape_witness(orthant(2).generators, box.hrep)
        assert not row.admits_point(point)

    def test_containment_gives_none(self):
        box = vrep_to_hrep([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert _escape_witness(box.generators, orthant(2).hrep) is None

    def test_ray_escape_past_64_doublings(self):
        # the ray breaks the row's recession cone, so some push crosses
        # the row however far it lies
        row = make_inequality((1,), 10**30, LE)
        point, hit = _escape_witness(orthant(1).generators, [row])
        assert point == (2**100,) and hit == row


class TestOracle:
    def test_packing_fixture(self):
        assert check_oracle_m1(PACK23, scheme()).status == PASS

    def test_covering_fixture(self):
        assert check_oracle_m1(COVER23, scheme()).status == PASS

    def test_integral_fixture(self):
        assert check_oracle_m1(UNIT3, scheme()).status == PASS

    def test_multirow_rejected(self):
        with pytest.raises(UsageError):
            check_oracle_m1(COVERFIX, scheme())


class TestSandwich:
    def test_oracle_class_saturates(self):
        rep = check_sandwich(PACK23, scheme())
        assert rep.status == PASS
        assert rep.note == "saturation=true"

    def test_integral_class_saturates(self):
        rep = check_sandwich(LP_INTEGRAL, scheme())
        assert rep.status == PASS
        assert rep.note == "saturation=true"

    def test_two_row_packing_passes(self):
        inst = Instance(PACKING, ((2, 3), (1, 4)), (4, 4))
        rep = check_sandwich(inst, SampleScheme(grid_denominator=4))
        assert rep.status == PASS

    def test_two_row_covering_passes(self):
        rep = check_sandwich(COVERFIX, scheme(d=3))
        assert rep.status == PASS


    def test_wide_box_passes_within_budget(self, monkeypatch):
        # 401 * 201 lattice cells: checked, and charged to the scheme's
        # budget, which trips only in the lattice walk once the closures
        # exist
        inst = Instance(PACKING, ((1, 2),), (400,), instance_id="widebox")
        (rep,) = [r for r in run_suite([inst], scheme()) if r.check_name == "sandwich"]
        assert rep.tsv_line() == "sandwich\twidebox\tpass\t-\t0\tsaturation=true"
        art, sc = aggregation_closure(inst, scheme()), sampled_closure(inst, scheme())
        monkeypatch.setattr(verify, "aggregation_closure", lambda *_: art)
        monkeypatch.setattr(verify, "sampled_closure", lambda *_: sc)
        assert check_sandwich(inst, SampleScheme(2, budget=80601)) == rep
        with pytest.raises(ResourceBudgetError) as exc:
            check_sandwich(inst, SampleScheme(2, budget=80600))
        assert str(exc.value) == "enumeration box of 80601+ cells exceeds budget 80600"

    @pytest.mark.parametrize("inst, d", [(PACK2ROWS, 4), (COVERFIX, 3)])
    def test_passing_check_builds_neither_body(self, inst, d, monkeypatch):
        # the closure and the sampled closure are built first; the check
        # itself then reads the rows of K and L and the generators of the
        # instance's hull, and builds no hull and runs no kernel
        clear_caches()
        sch = scheme(d)
        art = aggregation_closure(inst, sch)
        sampled_closure(inst, sch)
        calls = dict.fromkeys(("build_K", "hrep_to_vrep", "vrep_to_hrep", "integer_hull"), 0)

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(closure, "build_K", counted("build_K", closure.build_K))
        kernel = counted("hrep_to_vrep", polyhedra.hrep_to_vrep)
        monkeypatch.setattr(closure, "hrep_to_vrep", kernel)
        monkeypatch.setattr(polyhedra, "hrep_to_vrep", kernel)
        hull_kernel = counted("vrep_to_hrep", polyhedra.vrep_to_hrep)
        monkeypatch.setattr(knapsack, "vrep_to_hrep", hull_kernel)
        monkeypatch.setattr(polyhedra, "vrep_to_hrep", hull_kernel)
        hull = counted("integer_hull", knapsack.integer_hull)
        for module in (knapsack, closure):
            monkeypatch.setattr(module, "integer_hull", hull)
        assert check_sandwich(inst, sch).status == PASS
        assert calls == dict.fromkeys(calls, 0)
        # the bodies are real kernel runs when they are built
        art.K(), art.L()
        assert calls == {"build_K": 1, "hrep_to_vrep": 2, "vrep_to_hrep": 0, "integer_hull": 0}


def _perturbed_report(check, inst, d, target, row, shrink):
    # run ``check`` with ``row`` added to K's tuples or to L's parts, and
    # with the sampled closure cut by it when ``shrink``: a row that cuts
    # feasible points then misses the sampled closure, so only the lattice
    # part finds the cut.  A budget trip is reported as its note
    sch = scheme(d)
    art = aggregation_closure(inst, sch)
    sc = sampled_closure(inst, sch)
    if row is not None:
        half = hrep_to_vrep([row], inst.n)
        S, parts = art.S, art.parts
        if target == "K":
            S += (FacetTuple((), source_facet=row),)
        else:
            parts += (half,)
        art = ClosureArtifacts(inst, sch, parts, art.closure, art.gamma, art.T_sample, S)
        if shrink:
            sc = intersect([sc, half])
    try:
        return check(inst, art, sc)
    except ResourceBudgetError as exc:
        return str(exc)


def _segment_check(inst, art, sc):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "aggregation_closure", lambda *_: art)
        mp.setattr(verify, "sampled_closure", lambda *_: sc)
        return check_sandwich(inst, art.sample)


@st.composite
def sandwich_cases(draw):
    sense = draw(st.sampled_from((PACKING, COVERING)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2 if n == 3 else 3))
    # a zero column is a ray of the instance's hull
    zero = draw(st.sampled_from((None, *range(n)))) if n > 1 else None
    rows = [
        tuple(
            draw(
                st.lists(st.integers(0, 4), min_size=n, max_size=n)
                .map(lambda r: [0 if j == zero else a for j, a in enumerate(r)])
                .filter(any)
            )
        )
        for _ in range(m)
    ]
    b = tuple(draw(st.integers(1, 8)) for _ in range(m))
    inst = Instance(sense, tuple(rows), b, instance_id="rand")
    d = draw(st.integers(1, 3))
    target = draw(st.sampled_from((None, "K", "L")))
    row = None
    if target is not None:
        normal = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        row = make_inequality(normal, draw(st.integers(-4, 12)), draw(st.sampled_from((LE, GE))))
    return inst, d, target, row, draw(st.booleans())


ZEROCOL = Instance(PACKING, ((0, 0, 1),), (1,), instance_id="zerocol")

# one perturbation per way to fail: a row sc escapes, in K and in L, and
# a row that cuts feasible points off K or L and off sc alike, at a hull
# point or along the ray of a zero column
FAILING_CASES = [
    (PACK2ROWS, 4, "K", make_inequality((1, 1), 0, LE), False),
    (PACK2ROWS, 4, "L", make_inequality((1, 1), 0, LE), False),
    (PACK2ROWS, 4, "K", make_inequality((1, 0), 0, LE), True),
    (COVERFIX, 3, "L", make_inequality((0, 1), 1, LE), True),
    (ZEROCOL, 2, "K", make_inequality((0, 1, 0), 3, LE), True),
]


class TestSandwichAgainstFullBox:
    # the oracle decides on the built K and L and on the generators of the
    # instance's hull read off every cell of its own box; the check on
    # rows and on the generators of the lattice walk

    @settings(max_examples=200, deadline=None)
    @given(sandwich_cases())
    def test_same_report_as_full_box(self, case):
        expected = _perturbed_report(sandwich_full_box, *case)
        assert _perturbed_report(_segment_check, *case) == expected

    def test_every_failure_matches_full_box(self):
        reports = [_perturbed_report(_segment_check, *case) for case in FAILING_CASES]
        assert reports == [_perturbed_report(sandwich_full_box, *case) for case in FAILING_CASES]
        assert {rep.note for rep in reports} == {
            "sampled closure escapes the tuple body",
            "sampled closure escapes the recursion bound",
            "feasible lattice point cut off",
        }

    @pytest.mark.parametrize("index, witness", [(2, (2, 0)), (4, (0, 4, 0))])
    def test_witness_is_first_cut_generator(self, index, witness):
        # the first of the core points (0, 0), (0, 1), (2, 0), in
        # lexicographic order, that x1 <= 0 cuts; and, along e2, a column
        # no row uses, the origin pushed in doubling steps 1, 2, 4 past
        # x2 <= 3
        rep = _perturbed_report(_segment_check, *FAILING_CASES[index])
        assert (rep.status, rep.note) == (FAIL, "feasible lattice point cut off")
        assert rep.witness_point == witness


class TestGamma:
    def test_fixture_bound(self):
        rep = check_gamma(COVERFIX, scheme(d=3))
        assert rep.status == PASS
        assert rep.note == "gamma=4"

    def test_zero_shift_fails_with_checkable_witness(self):
        rep = check_gamma(COVERFIX, scheme(d=3), gamma_override=0)
        assert rep.status == FAIL
        assert not rep.witness_inequality.admits_point(rep.witness_point)
        assert rep.witness_lambda is not None

    def test_one_variable_passes_without_a_walk(self, monkeypatch):
        # a one-variable L is `closure_1d`, which lies in every sampled
        # hull, so a shift g >= 0 passes with no walk, even where the walk
        # (11,739,435 pairs here) is over the budget; a negative shift walks
        clear_caches()
        walks = []
        grid_rows = closure._grid_rows

        def counted(*args):
            walks.append(args)
            return grid_rows(*args)

        monkeypatch.setattr(closure, "_grid_rows", counted)
        inst = Instance(COVERING, ((9,), (2,), (8,), (3,), (5,)), (48, 37, 34, 57, 26))
        rep = check_gamma(inst, SampleScheme(16, k=2))
        assert (rep.status, rep.note) == (PASS, "gamma=19")
        assert check_gamma(inst, SampleScheme(16, k=2), gamma_override=0).status == PASS
        assert walks == []
        rep = check_gamma(inst, scheme(d=2), gamma_override=-1)
        assert (rep.status, rep.note) == (FAIL, "shift -1 leaves a sampled hull")
        assert len(walks) == 1

    def test_free_column_skips(self):
        inst = Instance(COVERING, ((2, 0),), (3,))
        assert check_gamma(inst, scheme()).status == SKIPPED

    def test_packing_rejected(self):
        with pytest.raises(UsageError):
            check_gamma(PACK23, scheme())


def _per_weight_cg_dominance(inst, d, hull_of):
    # the check as it was before it walked integer rows: one Fraction
    # relaxation per grid weight, rounded by cg_cut; kept as the oracle
    for agg in sample_lambdas(inst.m, SampleScheme(grid_denominator=d)):
        rel = build_relaxation(inst, agg)
        cut = cg_cut(rel)
        if cut is None:
            continue
        hull = hull_of(rel)
        for g in hull.generators:
            if not cut.holds_at(g):
                probe = g if g[-1] else _pushed(hull.generators[0], g, 1)
                return CheckReport(
                    "cg_dominance", inst.instance_id, FAIL,
                    witness_point=_point(probe), witness_lambda=agg,
                    witness_inequality=cut,
                )
    return CheckReport("cg_dominance", inst.instance_id, PASS)


@st.composite
def packing_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    rows = [
        tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)))
        for _ in range(m)
    ]
    b = tuple(draw(st.integers(1, 12)) for _ in range(m))
    d = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([F(1), F(5, 4), F(3, 2), F(2)]))
    return Instance(PACKING, tuple(rows), b, instance_id="rand"), d, scale


class TestCgDominance:
    @settings(max_examples=40, deadline=None)
    @given(packing_cases())
    def test_same_first_failure_as_per_weight_oracle(self, case):
        # hulls dilated by `scale` around the origin make rounding cuts
        # fail, so the first failing weight and its witness are compared;
        # the check takes each key's hull from `integer_hull` once
        inst, d, scale = case

        def hull_of(rel, budget=DEFAULT_CELL_BUDGET):
            hull = integer_hull(rel, budget)
            if not hull.feasible or scale == 1:
                return hull
            points = [tuple(scale * c for c in p) for p in hull.vrep_points]
            return vrep_to_hrep(points, hull.vrep_rays)

        expected = _per_weight_cg_dominance(inst, d, hull_of)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "integer_hull", hull_of)
            got = check_cg_dominance(inst, SampleScheme(grid_denominator=d))
        assert got == expected
        if scale == 1:
            assert got.status == PASS
        if got.status == FAIL:
            # the witness point violates the witness inequality
            assert not got.witness_inequality.admits_point(got.witness_point)

    def test_two_row_example(self):
        inst = Instance(PACKING, ((2, 3), (1, 0)), (4, 1))
        assert check_cg_dominance(inst, SampleScheme(grid_denominator=2)).status == PASS

    def test_single_row(self):
        assert check_cg_dominance(PACK23, scheme()).status == PASS

    def test_covering_rejected(self):
        with pytest.raises(UsageError):
            check_cg_dominance(COVER23, scheme())

    def test_zero_cut_builds_no_hull(self, monkeypatch):
        # at weights (1, 1) of grid 2 the row is (1, 1 | 5) and rounds to
        # the zero cut, so its key's hull is never built; the cuts x1 <= 3
        # of weights (0, 2) and x2 <= 2 of (2, 0) are tested on their own
        clear_caches()
        generators = knapsack._generators
        keys = []

        def counted(rel, budget):
            keys.append(rel.canonical_key()[2])
            return generators(rel, budget)

        monkeypatch.setattr(knapsack, "_generators", counted)
        inst = Instance(PACKING, ((0, 1), (1, 0)), (2, 3))
        assert check_cg_dominance(inst, SampleScheme(2)).status == PASS
        assert keys == [((1, 0, 3),), ((0, 1, 2),)]

    @pytest.mark.parametrize(
        "inst, d",
        [
            (PACK2ROWS, 4),
            (Instance(PACKING, ((3, 2, 4), (2, 5, 1), (4, 1, 3)), (9, 10, 8)), 3),
            (Instance(PACKING, ((2, 0, 3), (1, 0, 1)), (5, 3)), 2),
        ],
    )
    def test_passing_check_builds_no_hull(self, inst, d, monkeypatch):
        # at k = 1 the closure's own grid walk has built every hull the
        # check reads, so each comes from the hull cache
        clear_caches()
        aggregation_closure(inst, SampleScheme(d))
        calls = dict.fromkeys(("_generators", "vrep_to_hrep"), 0)

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        modules = (knapsack, closure, polyhedra, verify)
        for name in calls:
            func = counted(name, getattr(knapsack, name))
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, func)
        assert check_cg_dominance(inst, SampleScheme(d)).status == PASS
        assert calls == dict.fromkeys(calls, 0)

    def test_verify_builds_no_hull_of_its_own(self):
        names = ("build_relaxation", "intersect", "poly_equal")
        assert [name for name in names if hasattr(verify, name)] == []


class TestOnerowRatio:
    def test_single_row_coincides(self):
        rep = check_onerow_ratio(PACK23, scheme())
        assert rep.status == PASS
        assert rep.note == "ratio=1"

    def test_integral_fixture(self):
        rep = check_onerow_ratio(LP_INTEGRAL, scheme())
        assert rep.note == "ratio=1"

    def test_covering_fixture_value(self):
        rep = check_onerow_ratio(COVERFIX, scheme(d=2))
        assert rep.status == PASS
        assert rep.note == "ratio=9/8"

    def test_unbounded_direction_skips(self):
        inst = Instance(PACKING, ((1, 0),), (2,))
        assert check_onerow_ratio(inst, scheme()).status == SKIPPED

    def test_negative_objective_rejected(self):
        with pytest.raises(UsageError):
            check_onerow_ratio(PACK23, scheme(), objective=(1, -1))

    def test_objective_dimension_checked(self):
        with pytest.raises(UsageError):
            check_onerow_ratio(PACK23, scheme(), objective=(1,))

    def test_grid_one_walk_charged_to_budget(self):
        # the rows' own hulls are the m unit weights of the grid-1 walk
        with pytest.raises(ResourceBudgetError) as exc:
            check_onerow_ratio(PACK2ROWS, SampleScheme(2, budget=1))
        assert str(exc.value) == "grid walk of 2 aggregations exceeds budget 1"


@st.composite
def rowwise_cases(draw):
    sense = draw(st.sampled_from((PACKING, COVERING)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    zero = draw(st.sampled_from((None, *range(n)))) if n > 1 else None
    rows = [
        draw(
            st.lists(st.integers(0, 7), min_size=n, max_size=n)
            .map(lambda r: tuple(0 if j == zero else a for j, a in enumerate(r)))
            .filter(any)
        )
        for _ in range(m)
    ]
    b = [draw(st.integers(1, 15)) for _ in range(m)]
    # the last row may repeat the first one, or be a multiple of it
    copy = draw(st.sampled_from((None, 1, 2, 3))) if m > 1 else None
    if copy is not None:
        rows[-1] = tuple(copy * a for a in rows[0])
        b[-1] = copy * b[0]
    inst = Instance(sense, tuple(rows), tuple(b), instance_id="rand")
    # an objective that is zero on the zero column keeps packing bounded
    objective = [0 if j == zero else draw(st.integers(0, 3)) for j in range(n)]
    return inst, draw(st.integers(1, 3)), objective, draw(st.booleans())


class TestRowwiseHulls:
    @settings(max_examples=60, deadline=None)
    @given(rowwise_cases())
    def test_grid_one_is_rowwise(self, case):
        # the reports equal those of the formulas the checks used before
        # they read the grid walk: the rows' own hulls, intersected
        inst, d, objective, dilate = case
        sch = SampleScheme(d)
        assert poly_equal(sampled_closure(inst, SampleScheme(1)), rowwise_hulls(inst))

        for c in (None, objective):
            got = check_onerow_ratio(inst, sch, c)
            # the rows' hulls were read first, then the sampled closure
            old = iter((rowwise_hulls(inst), sampled_closure(inst, sch)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "sampled_closure", lambda *_: next(old))
                assert check_onerow_ratio(inst, sch, c) == got
        if inst.m != 1:
            return
        # a dilated closure makes the one-row check fail with a witness
        art = aggregation_closure(inst, sch)
        if dilate and art.closure.feasible:
            points = [tuple(2 * x for x in p) for p in art.closure.vrep_points]
            body = vrep_to_hrep(points, art.closure.vrep_rays)
            art = ClosureArtifacts(inst, sch, art.parts, body, art.gamma, art.T_sample, art.S)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "aggregation_closure", lambda *_: art)
            got = check_oracle_m1(inst, sch)
        hull = rowwise_hulls(inst)
        expected = CheckReport("oracle_m1", "rand", PASS)
        if not poly_equal(art.closure, hull):
            point, row = _escape_witness(art.closure.generators, hull.hrep) or _escape_witness(
                hull.generators, art.closure.hrep
            )
            expected = CheckReport(
                "oracle_m1", "rand", FAIL, witness_point=point,
                witness_lambda=knapsack.Aggregation(((1,),)), witness_inequality=row,
            )
        assert got == expected


class TestRunSuite:
    def test_empty(self):
        assert run_suite([], scheme()) == []

    def test_sense_dispatch(self):
        reports = run_suite([PACK23, COVERFIX], scheme(d=3))
        names = [(r.check_name, r.instance_id) for r in reports]
        assert names == [
            ("oracle_m1", "pack23"),
            ("sandwich", "pack23"),
            ("cg_dominance", "pack23"),
            ("onerow_ratio", "pack23"),
            ("sandwich", "coverfix"),
            ("gamma", "coverfix"),
            ("onerow_ratio", "coverfix"),
        ]
        assert failures(reports) == 0

    def test_oracle_fixtures_all_pass(self):
        reports = run_suite([PACK23, COVER23, UNIT3], scheme())
        assert all(r.status == PASS for r in reports)

    def test_budget_errors_become_skips(self):
        # hulls and closures are cached per budget, so a starved budget
        # bites whatever the suite built before
        fresh = Instance(PACKING, ((3, 5),), (941,), instance_id="fresh")
        reports = run_suite([fresh], SampleScheme(grid_denominator=2, budget=1))
        assert reports and all(r.status == SKIPPED for r in reports)
        assert failures(reports) == 0
        assert all("budget" in r.note for r in reports)

    def test_deterministic_without_timings(self):
        a = run_suite([PACK23, COVERFIX], scheme(d=3))
        b = run_suite([PACK23, COVERFIX], scheme(d=3))
        assert a == b
        assert all(r.timing_ms == 0 for r in a)

    def test_timings_flag_populates_field(self):
        reports = run_suite([PACK23], scheme(), timings=True)
        assert all(r.timing_ms >= 0 for r in reports)


class TestSerialization:
    def test_lines_match_reports(self):
        reports = run_suite([PACK23], scheme())
        lines = suite_lines(reports)
        assert len(lines) == len(reports)
        assert all(line.count("\t") >= 4 for line in lines)

    def test_json_mirror_roundtrips(self):
        reports = run_suite([COVERFIX], scheme(d=3))
        data = json.loads(suite_json(reports))
        assert [d["check"] for d in data] == [r.check_name for r in reports]
        assert all(
            set(d) == {"check", "instance", "status", "witness", "timing_ms", "note"}
            for d in data
        )

    def test_fail_witness_serialized(self):
        rep = check_gamma(COVERFIX, scheme(d=3), gamma_override=0)
        record = rep.record()
        assert record["witness"]["point"] is not None
        assert record["witness"]["inequality"] is not None
        text = rep.witness_text()
        assert "point" in text and "cut" in text
