"""Executable consistency checks for the closure construction.

Each check turns one structural fact about aggregated knapsack hulls
into an exact pass/fail test on a concrete instance: single-row
instances where the closure has a brute-force oracle, the sandwich
inclusions between the sampled closure and its two outer bodies, the
shift bound for covering instances, dominance over rounding cuts, and
the ratio between the per-row hull intersection and the sampled
closure.  Failures always carry a witness (a point, the aggregation
weights involved, and the violated inequality) that can be re-checked
by direct substitution.

Reports serialize to one tab-separated line per check plus a structured
mirror for tooling.  Timings are recorded only on request so report
bytes stay identical across runs.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from .closure import (
    SampleScheme,
    _check_grid_budget,
    _composition,
    _grid_bars,
    _grid_hulls,
    _grid_rows,
    _rational_aggregation,
    aggregation_closure,
    sampled_closure,
    saturated,
)
from .errors import ResourceBudgetError, UsageError
from .knapsack import (
    Aggregation,
    COVERING,
    Instance,
    KnapsackRelaxation,
    PACKING,
    _round_row,
    hull_keys,
    instance_generators,
    integer_hull,
)
from .polyhedra import (
    LE,
    LinearInequality,
    Polyhedron,
    homogenize,
    make_inequality,
    render_point,
)
from .rational import RatVector, as_vector, format_rat, idot, int_clear
from .record import Record, set_fields

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

# the tab and every line boundary of `str.splitlines`, each to its
# `unicode_escape` spelling: any of them would split a report line
LINE_ESCAPES = str.maketrans(
    {
        c: c.encode("unicode_escape").decode()
        for c in "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    }
)


class CheckReport(Record):
    """The outcome of one check on one instance."""

    __slots__ = ("check_name", "instance_id", "status", "witness_point",
                 "witness_lambda", "witness_inequality", "timing_ms", "note")

    def __init__(
        self, check_name: str, instance_id: str, status: str,
        witness_point: RatVector | None = None,
        witness_lambda: Aggregation | None = None,
        witness_inequality: LinearInequality | None = None, timing_ms: int = 0,
        note: str = "",
    ) -> None:
        if status not in (PASS, FAIL, SKIPPED):
            raise UsageError(f"unknown status: {status!r}")
        if status == FAIL and witness_inequality is None:
            raise UsageError("fail reports must carry a witness")
        set_fields(
            self, check_name, instance_id, status, witness_point, witness_lambda,
            witness_inequality, timing_ms, note,
        )

    def witness_text(self) -> str:
        if self.witness_inequality is None and self.witness_point is None:
            return "-"
        parts = []
        if self.witness_point is not None:
            parts.append("point " + render_point(self.witness_point))
        if self.witness_lambda is not None:
            parts.append("lambda " + self.witness_lambda.render())
        if self.witness_inequality is not None:
            parts.append("cut " + self.witness_inequality.render())
        return " | ".join(parts)

    def tsv_line(self) -> str:
        """The report as one tab-separated line, every field written with
        `LINE_ESCAPES`, so a tab or line break in a note or id cannot
        split it."""
        fields = [
            self.check_name,
            self.instance_id or "-",
            self.status,
            self.witness_text(),
            str(self.timing_ms),
        ]
        if self.note:
            fields.append(self.note)
        return "\t".join(f.translate(LINE_ESCAPES) for f in fields)

    def record(self) -> dict:
        return {
            "check": self.check_name,
            "instance": self.instance_id,
            "status": self.status,
            "witness": {
                "point": None
                if self.witness_point is None
                else render_point(self.witness_point),
                "lambda": None
                if self.witness_lambda is None
                else [
                    [format_rat(w) for w in col]
                    for col in self.witness_lambda.weights
                ],
                "inequality": None
                if self.witness_inequality is None
                else self.witness_inequality.render(),
            },
            "timing_ms": self.timing_ms,
            "note": self.note,
        }


def _violated_row(rows, g) -> LinearInequality | None:
    # first of ``rows`` the homogeneous generator ``g`` violates
    for ineq in rows:
        if not ineq.holds_at(g):
            return ineq
    return None


def _point(g) -> RatVector:
    return tuple(Fraction(a, g[-1]) for a in g[:-1])


def _pushed(base, ray, step):
    # the vertex generator ``base`` moved ``step`` times along ``ray``
    den = base[-1]
    return tuple(a + step * den * r for a, r in zip(base[:-1], ray)) + (den,)


def _escape_witness(generators, rows):
    """A point of the set ``generators`` generate outside the set ``rows``
    cut out, with the violated row.

    ``generators`` are homogeneous, the points first, as in
    `Polyhedron.generators`.  The points are tried first, in their order;
    the case where only the recession cones differ takes the first ray
    that breaks a row, and pushes the first point along it with doubling
    step until a row is violated, which ends because the broken row's gap
    grows with the step.  Only membership and the recession cone of the
    outer set are read, so any rows that describe it give the same point.
    Returns None when the containment actually holds.
    """
    verts = [g for g in generators if g[-1]]
    for g in verts:
        row = _violated_row(rows, g)
        if row is not None:
            return _point(g), row
    if not verts:
        return None
    for ray in generators[len(verts) :]:
        if _violated_row(rows, ray) is None:
            continue
        step = 1
        while True:
            probe = _pushed(verts[0], ray, step)
            row = _violated_row(rows, probe)
            if row is not None:
                return _point(probe), row
            step *= 2
    return None


def check_oracle_m1(inst: Instance, scheme: SampleScheme) -> CheckReport:
    """Single-row closure against the brute-force hull.

    With one row every grid aggregation is a positive multiple of it, so
    the sampled closure is the integer hull of the row itself, and the
    closure must equal it, as canonical inequality systems, exactly: the
    check passes when the closure is `saturated`.  A failure is witnessed
    against that sampled closure, with the row's unit weight.
    """
    if inst.m != 1:
        raise UsageError("oracle check requires a single row")
    art = aggregation_closure(inst, scheme)
    if saturated(art):
        return CheckReport("oracle_m1", inst.instance_id, PASS)
    hull = sampled_closure(inst, scheme)
    hit = _escape_witness(art.closure.generators, hull.hrep) or _escape_witness(
        hull.generators, art.closure.hrep
    )
    if hit is None:
        raise RuntimeError("representations differ but no escape point found")
    point, row = hit
    return CheckReport(
        "oracle_m1",
        inst.instance_id,
        FAIL,
        witness_point=point,
        witness_lambda=Aggregation(((1,),)),
        witness_inequality=row,
    )


def check_sandwich(inst: Instance, scheme: SampleScheme) -> CheckReport:
    """Sampled closure against its two outer bodies.

    The sampled closure must sit inside the tuple body and inside the
    recursion bound, and so must the instance's own integer hull ``P_I``:
    every feasible lattice point must satisfy both.  Whether the outer
    intersection collapses onto the sampled closure is reported as a
    note, not asserted: sampling guarantees it only for special classes.

    Both bodies are decided on their defining rows: K's are the
    ``source_facet`` of each tuple of ``S``, L's the rows of its distinct
    ``parts``.  They cut out the same sets as the built bodies, so every
    point, and every ray against the recession cone, gets the same
    verdict.  ``P_I`` is read as the generators of `instance_generators`,
    whose lattice walk is charged to ``scheme.budget``, so it is decided
    exactly, along a column no row uses too, with no hull built.  ``K``
    or ``L`` is intersected only when a point is found outside it, to
    name the first of its rows that cuts the point.
    """
    art = aggregation_closure(inst, scheme)
    sc = sampled_closure(inst, scheme)
    k_rows = [t.source_facet for t in art.S]
    # a repeated part is one object, as `intersect` counts it
    l_rows = [iq for part in {id(p): p for p in art.parts}.values() for iq in part.hrep]

    def failed(point, build, note):
        return CheckReport(
            "sandwich", inst.instance_id, FAIL, witness_point=point,
            witness_inequality=_violated_row(build().hrep, homogenize(point)), note=note,
        )

    bodies = ((art.K, k_rows, "the tuple body"), (art.L, l_rows, "the recursion bound"))
    for build, rows, body in bodies:
        hit = _escape_witness(sc.generators, rows)
        if hit is not None:
            return failed(hit[0], build, f"sampled closure escapes {body}")
    hit = _escape_witness(instance_generators(inst, scheme.budget), k_rows + l_rows)
    if hit is not None:
        point, row = hit
        return failed(point, art.K if row in k_rows else art.L, "feasible lattice point cut off")
    return CheckReport(
        "sandwich", inst.instance_id, PASS,
        note=f"saturation={'true' if saturated(art) else 'false'}",
    )


def check_gamma(
    inst: Instance, scheme: SampleScheme, gamma_override: int | None = None
) -> CheckReport:
    """Shift bound for covering instances.

    Adding the bound to any single coordinate of any vertex of the
    recursion bound must land inside every sampled hull.  An override
    value turns the check into a diagnostic probe of smaller shifts.
    """
    if inst.sense != COVERING:
        raise UsageError("shift bound check requires a covering instance")
    art = aggregation_closure(inst, scheme)
    if art.gamma is None:
        return CheckReport(
            "gamma", inst.instance_id, SKIPPED,
            note="free coordinate splits off; shift bound undefined",
        )
    gamma = art.gamma if gamma_override is None else gamma_override
    # a one-variable L is `closure_1d`, which lies in every sampled hull
    # (see `sampled_closure`), so no shift g >= 0 can leave one
    hulls = () if inst.n == 1 and gamma >= 0 else _grid_hulls(inst, scheme)
    for v in art.L().generators:
        if not v[-1]:
            break
        for j in range(inst.n):
            shifted = tuple(
                c + (gamma * v[-1] if i == j else 0) for i, c in enumerate(v)
            )
            for comps, hull in hulls:
                row = _violated_row(hull.hrep, shifted)
                if row is not None:
                    return CheckReport(
                        "gamma", inst.instance_id, FAIL,
                        witness_point=_point(shifted),
                        witness_lambda=_rational_aggregation(comps),
                        witness_inequality=row,
                        note=f"shift {gamma} leaves a sampled hull",
                    )
    return CheckReport("gamma", inst.instance_id, PASS, note=f"gamma={gamma}")


def check_cg_dominance(inst: Instance, scheme: SampleScheme) -> CheckReport:
    """Rounding cuts of sampled weights are valid for the sampled hulls,
    i.e. aggregation cuts are at least as strong.

    Walks the single-row grid once, in `sample_lambdas` order, after
    charging its size to ``scheme.budget`` as the closure's walk does.
    Rounding, unlike the hull, changes when a row is scaled, so the cut
    of v/D is ``floor(v·a / D) x <= floor(v·b / D)``, `_round_row` of
    the integer row v·A | v·b over D.  A zero cut is skipped before any
    hull is read.  A nonzero cut is tested against the hull of the row's
    `hull_keys` key, taken from `integer_hull` the first time the key
    has a nonzero cut and kept per key: at k = 1 the closure's walk has
    already built it, and a one-variable hull has no cache entry.  The
    cut in lowest terms is a positive multiple of the raw row, so the
    raw row gives the same verdict, and the inequality is built for a
    witness only.
    """
    if inst.sense != PACKING:
        raise UsageError("rounding dominance check requires a packing instance")
    d = scheme.grid_denominator
    _check_grid_budget(inst.m, SampleScheme(d, budget=scheme.budget))
    # each coordinate is read twice in step: as the row and by its key
    coords = [itertools.tee(c) for c in _grid_rows(inst, d)]
    walk = zip(
        _grid_bars(d, inst.m),
        zip(*(row for row, _ in coords)),
        hull_keys(PACKING, [key for _, key in coords], 1),
    )
    hull_of: dict = {}
    for bars, row, key in walk:
        cut = _round_row(PACKING, row, d)
        if cut is None:
            continue
        *coeffs, rhs = cut
        hull = hull_of.get(key)
        if hull is None:
            rel = KnapsackRelaxation(PACKING, inst.n, (row[:-1],), (row[-1],))
            hull = hull_of[key] = integer_hull(rel, scheme.budget)
        # a packing hull's rays are the unit vectors of the columns its
        # row leaves at 0, where the cut's coefficient floor(0 / D) is 0,
        # so only a vertex can violate the cut
        for g in hull.generators:
            if g[-1] and idot(coeffs, g) > rhs * g[-1]:
                return CheckReport(
                    "cg_dominance", inst.instance_id, FAIL,
                    witness_point=_point(g),
                    witness_lambda=_rational_aggregation((_composition(bars, d),)),
                    witness_inequality=make_inequality(coeffs, rhs, LE),
                )
    return CheckReport("cg_dominance", inst.instance_id, PASS)


def _optimum(poly: Polyhedron, objective: RatVector, maximize: bool):
    """Exact optimum over a polyhedron by vertex evaluation.

    Returns None for an unbounded direction, raises on an empty body.
    """
    if not poly.feasible:
        raise UsageError("cannot optimize over an empty set")
    c, den = int_clear(objective)
    values = []
    for g in poly.generators:
        value = idot(c, g)
        if not g[-1]:
            if (maximize and value > 0) or (not maximize and value < 0):
                return None
        else:
            values.append(Fraction(value, g[-1] * den))
    return max(values) if maximize else min(values)


def check_onerow_ratio(inst: Instance, scheme: SampleScheme, objective=None) -> CheckReport:
    """Ratio between per-row hull intersection and sampled closure optima.

    At grid denominator 1 the only weights are the m unit vectors, so the
    intersection of the rows' own integer hulls is the sampled closure at
    grid 1, read off the cached grid walk like any sampled closure; in
    one variable both are `closure_1d`.  Informational: the ratio is
    reported in the note; packing ratios above 2 are flagged for review
    but do not fail the check.
    """
    if objective is None:
        objective = tuple(Fraction(1) for _ in range(inst.n))
    c = as_vector(objective)
    if len(c) != inst.n:
        raise UsageError("objective dimension does not match the instance")
    if any(w < 0 for w in c):
        raise UsageError("objective must be nonnegative")

    rowwise = sampled_closure(inst, SampleScheme(1, budget=scheme.budget))
    sc = sampled_closure(inst, scheme)

    maximize = inst.sense == PACKING
    opt_rows = _optimum(rowwise, c, maximize)
    opt_closure = _optimum(sc, c, maximize)
    if opt_rows is None or opt_closure is None:
        return CheckReport(
            "onerow_ratio", inst.instance_id, SKIPPED,
            note="objective unbounded over the compared sets",
        )
    if maximize:
        ratio = None if opt_closure == 0 else opt_rows / opt_closure
    else:
        ratio = None if opt_rows == 0 else opt_closure / opt_rows
    if ratio is None:
        note = "ratio=1 (degenerate zero optimum)" if opt_rows == opt_closure else "ratio=inf"
    else:
        note = f"ratio={format_rat(ratio)}"
        if inst.sense == PACKING and ratio > 2:
            note += " anomaly: above the expected factor 2"
    return CheckReport("onerow_ratio", inst.instance_id, PASS, note=note)


def _applicable_checks(inst: Instance):
    checks = []
    if inst.m == 1:
        checks.append(check_oracle_m1)
    checks.append(check_sandwich)
    if inst.sense == COVERING:
        checks.append(check_gamma)
    if inst.sense == PACKING:
        checks.append(check_cg_dominance)
    checks.append(check_onerow_ratio)
    return checks


def run_suite(instances, scheme: SampleScheme, timings: bool = False) -> list[CheckReport]:
    """All applicable checks over all instances, deterministic order.

    A check that raises reports as skipped with the reason; timings are
    zero unless requested so that output is byte-stable.
    """
    reports = []
    for inst in instances:
        for check in _applicable_checks(inst):
            started = time.perf_counter()
            try:
                rep = check(inst, scheme)
            except (UsageError, ResourceBudgetError) as exc:
                rep = CheckReport(
                    check.__name__.removeprefix("check_"),
                    inst.instance_id,
                    SKIPPED,
                    note=str(exc),
                )
            if timings:
                elapsed = int((time.perf_counter() - started) * 1000)
                rep = CheckReport(
                    rep.check_name, rep.instance_id, rep.status, rep.witness_point,
                    rep.witness_lambda, rep.witness_inequality, elapsed, rep.note,
                )
            reports.append(rep)
    return reports


def suite_lines(reports) -> list[str]:
    return [rep.tsv_line() for rep in reports]


def suite_json(reports) -> str:
    import json
    return json.dumps([rep.record() for rep in reports], indent=2)


def failures(reports) -> int:
    return sum(1 for rep in reports if rep.status == FAIL)
