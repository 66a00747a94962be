"""Check harness: report plumbing, the five checks, suite dispatch."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aggclosure import verify
from aggclosure.closure import SampleScheme, sample_lambdas
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
from aggclosure.polyhedra import orthant, vrep_to_hrep
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

F = Fraction

PACK23 = Instance(PACKING, ((2, 3),), (4,), instance_id="pack23")
COVER23 = Instance(COVERING, ((2, 3),), (4,), instance_id="cover23")
UNIT3 = Instance(PACKING, ((1, 1),), (3,), instance_id="unit3")
COVERFIX = Instance(COVERING, ((2, 0), (1, 3)), (3, 4), instance_id="coverfix")
LP_INTEGRAL = Instance(PACKING, ((2, 3),), (6,), instance_id="lpint")


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
        point, row = _escape_witness(box, tri)
        assert not row.admits_point(point)

    def test_ray_escape(self):
        box = vrep_to_hrep([(0, 0), (2, 0), (0, 2), (2, 2)])
        point, row = _escape_witness(orthant(2), box)
        assert not row.admits_point(point)

    def test_containment_gives_none(self):
        box = vrep_to_hrep([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert _escape_witness(box, orthant(2)) is None


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
        # fail, so the first failing weight and its witness are compared
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

    def test_two_row_example(self):
        inst = Instance(PACKING, ((2, 3), (1, 0)), (4, 1))
        assert check_cg_dominance(inst, SampleScheme(grid_denominator=2)).status == PASS

    def test_single_row(self):
        assert check_cg_dominance(PACK23, scheme()).status == PASS

    def test_covering_rejected(self):
        with pytest.raises(UsageError):
            check_cg_dominance(COVER23, scheme())


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
        # hull results are memoized, so a starved budget only bites on
        # an instance no other test has touched
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
