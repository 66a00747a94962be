"""End-to-end acceptance checks for the package.

Each test prints one `[criterion N] PASS/FAIL` line straight to the
terminal, so a plain `pytest -v` run doubles as the acceptance report.
Random corpora are seeded; reruns see the same instances.
"""

import random
import time
from fractions import Fraction

from aggclosure.closure import (
    FacetTuple,
    SampleScheme,
    _dominates,
    _flat_key,
    _grid_hulls,
    aggregation_closure,
    closure_1d,
    filter_minimal_tuples,
    sample_lambdas,
    sampled_closure,
)
from aggclosure.knapsack import (
    COVERING,
    PACKING,
    Aggregation,
    Instance,
    build_relaxation,
    integer_hull,
)
from aggclosure.polyhedra import contains, intersect, poly_subset
from aggclosure.verify import (
    PASS,
    check_cg_dominance,
    check_gamma,
    check_onerow_ratio,
    check_sandwich,
)
from aggclosure import cli
from oracles import serialize_instance


def _inst(name, sense, rows, rhs):
    return Instance(sense, tuple(tuple(r) for r in rows), tuple(rhs), instance_id=name)


# Small named corpus reused across criteria.  Mixed senses, dimensions,
# zero columns and LP-integral cases.
FIXTURES = {
    "pack23": _inst("pack23", PACKING, [(2, 3)], (4,)),
    "cover23": _inst("cover23", COVERING, [(2, 3)], (4,)),
    "unit3": _inst("unit3", PACKING, [(1, 1, 1)], (2,)),
    "lpint": _inst("lpint", PACKING, [(2, 3)], (6,)),
    "coverfix": _inst("coverfix", COVERING, [(2, 3), (3, 2)], (4, 4)),
    "pack2rows": _inst("pack2rows", PACKING, [(2, 3), (1, 4)], (4, 4)),
    "packfree": _inst("packfree", PACKING, [(2, 0), (3, 0)], (5, 4)),
    "cover1row7": _inst("cover1row7", COVERING, [(3, 5)], (7,)),
    "pack3d": _inst("pack3d", PACKING, [(2, 3, 5)], (7,)),
    "cover3d": _inst("cover3d", COVERING, [(2, 1, 3), (1, 4, 2)], (5, 6)),
    "packbig": _inst("packbig", PACKING, [(3, 1), (1, 2)], (6, 4)),
    "coverfree": _inst("coverfree", COVERING, [(2, 0), (1, 0)], (3, 2)),
    "coverint": _inst("coverint", COVERING, [(1, 1)], (2,)),
    "packbox": _inst("packbox", PACKING, [(1, 0), (0, 1)], (2, 3)),
}

SINGLE_ROW = {"pack23", "cover23", "unit3", "lpint", "cover1row7", "pack3d", "coverint"}
LP_INTEGRAL = {"unit3", "lpint", "coverint", "packbox"}

SCHEME2 = SampleScheme(grid_denominator=2)


def _report(capsys, num, ok, label):
    with capsys.disabled():
        print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {label}", flush=True)
    assert ok, f"criterion {num}: {label}"


def _unit_column(m):
    # m = 1 everywhere this is used
    return Aggregation(((Fraction(1),),))


def test_c01_single_row_matches_brute_force_hull(capsys):
    # one row: every weight rescales it, so the closure must be the hull
    rng = random.Random(101)
    corpus = []
    while len(corpus) < 24:
        sense = PACKING if len(corpus) % 2 == 0 else COVERING
        n = rng.choice([1, 2, 3])
        row = tuple(rng.randint(0, 10) for _ in range(n))
        if not any(row):
            continue
        b = rng.randint(1, 30)
        if sense == COVERING:
            cells = 1
            for a in row:
                if a > 0:
                    cells *= (b + a - 1) // a + 1
            if cells > 3000:
                continue
        corpus.append(Instance(sense, (row,), (b,), instance_id=f"r{len(corpus)}"))

    start = time.monotonic()
    matched = 0
    for inst in corpus:
        art = aggregation_closure(inst, SCHEME2)
        hull = integer_hull(build_relaxation(inst, _unit_column(1)))
        if art.closure.hrep == hull.hrep:
            matched += 1
    elapsed = time.monotonic() - start
    ok = matched == len(corpus) and elapsed < 60
    _report(capsys, 1, ok,
            f"single-row closure equals brute-force hull ({matched}/{len(corpus)}, {elapsed:.2f}s)")


def test_c02_one_dimensional_closed_forms(capsys):
    rng = random.Random(202)
    start = time.monotonic()
    matched = 0
    total = 50
    for _ in range(total):
        m = rng.randint(1, 5)
        sense = rng.choice([PACKING, COVERING])
        A = tuple((rng.randint(1, 10),) for _ in range(m))
        b = tuple(rng.randint(1, 30) for _ in range(m))
        inst = Instance(sense, A, b)
        # the grid side walks every weight: `sampled_closure` is the
        # closed form itself in one variable
        grid = _grid_hulls(inst, SampleScheme(grid_denominator=16))
        fine = intersect([h for _, h in grid])
        if fine.hrep == closure_1d(inst).hrep:
            matched += 1
    elapsed = time.monotonic() - start
    ok = matched == total and elapsed < 10
    _report(capsys, 2, ok,
            f"1-D closed form matches fine-grid sampling ({matched}/{total}, {elapsed:.2f}s)")


def test_c03_hulls_integral_and_closed(capsys):
    checked = 0
    bad = []
    for name, inst in FIXTURES.items():
        for agg in sample_lambdas(inst.m, SCHEME2):
            hull = integer_hull(build_relaxation(inst, agg))
            if not hull.feasible:
                continue
            checked += 1
            if not hull.integral_flag:
                bad.append((name, "fractional vertex"))
                continue
            # packing hulls stay inside when a coordinate drops to zero,
            # covering hulls when a coordinate grows by one
            for v in hull.vrep_points:
                for j in range(inst.n):
                    if inst.sense == PACKING:
                        probe = tuple(c if i != j else 0 for i, c in enumerate(v))
                    else:
                        probe = tuple(c + int(i == j) for i, c in enumerate(v))
                    if not contains(hull, probe):
                        bad.append((name, f"vertex {v} axis {j}"))
    ok = not bad and checked > 0
    _report(capsys, 3, ok,
            f"sampled hulls integral and axis-closed ({checked} hulls, {len(bad)} violations)")


def test_c04_shift_bound_holds(capsys):
    rng = random.Random(404)
    insts = []
    while len(insts) < 10:
        n = rng.choice([2, 3])
        m = rng.choice([2, 3])
        A = [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]
        for row in A:
            if not any(row):
                row[rng.randrange(n)] = rng.randint(1, 5)
        if not all(any(A[i][j] for i in range(m)) for j in range(n)):
            continue
        b = tuple(rng.randint(1, 10) for _ in range(m))
        insts.append(Instance(COVERING, tuple(tuple(r) for r in A), b,
                              instance_id=f"g{len(insts)}"))

    with_zero = sum(1 for i in insts if any(0 in row for row in i.A))
    start = time.monotonic()
    passed = 0
    for inst in insts:
        rep = check_gamma(inst, SampleScheme(grid_denominator=4))
        if rep.status == PASS:
            passed += 1
    elapsed = time.monotonic() - start
    ok = passed == len(insts) and with_zero >= 3 and elapsed < 120
    _report(capsys, 4, ok,
            f"shift bound re-enters every sampled hull ({passed}/{len(insts)}, "
            f"{with_zero} with zero entries, {elapsed:.2f}s)")


def test_c05_recursion_bound_probe(capsys):
    rng = random.Random(505)
    insts = []
    while len(insts) < 12:
        n = rng.choice([2, 3])
        m = rng.choice([1, 2, 3])
        A = tuple(tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(m))
        if any(not any(r) for r in A):
            continue
        b = tuple(rng.randint(1, 12) for _ in range(m))
        insts.append(Instance(PACKING, A, b, instance_id=f"L{len(insts)}"))

    probes = 0
    misses = 0
    for inst in insts:
        art = aggregation_closure(inst, SCHEME2)
        sc = sampled_closure(inst, SCHEME2)
        for x in art.L().vrep_points:
            for j in range(inst.n):
                y = tuple(v if i != j else 0 for i, v in enumerate(x))
                probes += 1
                if not contains(sc, y):
                    misses += 1
    ok = misses == 0 and probes > 0
    _report(capsys, 5, ok,
            f"zeroing a coordinate of any recursion-bound vertex lands in the "
            f"sampled closure ({probes} probes, {misses} misses)")


def test_c06_sandwich_and_saturation(capsys):
    passed = 0
    saturated = []
    for name, inst in FIXTURES.items():
        rep = check_sandwich(inst, SCHEME2)
        if rep.status == PASS:
            passed += 1
        if "saturation=true" in rep.note:
            saturated.append(name)
    want_saturated = SINGLE_ROW | LP_INTEGRAL
    missing = sorted(want_saturated - set(saturated))
    ok = passed == len(FIXTURES) and not missing
    _report(capsys, 6, ok,
            f"closure inside both bounds on {passed}/{len(FIXTURES)} fixtures; "
            f"saturation on all {len(want_saturated)} single-row and LP-integral "
            f"fixtures{'' if not missing else ' MISSING ' + ','.join(missing)}")


def test_c07_antichain_filter_matches_brute_force(capsys):
    rng = random.Random(707)
    start = time.monotonic()
    agreed = 0
    cases = [(1000, 2), (1000, 3), (600, 3), (300, 2)]
    for trial, (count, n) in enumerate(cases):
        sense = PACKING if trial % 2 == 0 else COVERING
        tuples = []
        seen = set()
        while len(tuples) < count:
            pts = tuple(sorted(tuple(rng.randint(0, 6) for _ in range(n))
                               for _ in range(n)))
            if pts in seen:
                continue
            seen.add(pts)
            tuples.append(FacetTuple(points=pts))
        fast = filter_minimal_tuples(tuples, sense)
        # quadratic reference: drop anything strictly dominated by another key
        dedup = {}
        for t in tuples:
            dedup.setdefault(_flat_key(t), t)
        kept = []
        for key, t in dedup.items():
            dominated = False
            for other in dedup:
                if other == key:
                    continue
                if (sense == PACKING and _dominates(other, key)) or \
                        (sense == COVERING and _dominates(key, other)):
                    dominated = True
                    break
            if not dominated:
                kept.append(t)
        if {t.points for t in fast} == {t.points for t in kept}:
            agreed += 1
    elapsed = time.monotonic() - start
    ok = agreed == len(cases) and elapsed < 5
    _report(capsys, 7, ok,
            f"tuple filter matches quadratic reference ({agreed}/{len(cases)} sets "
            f"up to 1000 tuples, {elapsed:.2f}s)")


def test_c08_rounding_cut_dominance(capsys):
    rng = random.Random(808)
    insts = []
    while len(insts) < 20:
        n = rng.choice([2, 3])
        m = rng.choice([1, 2])
        A = tuple(tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(m))
        if any(not any(r) for r in A):
            continue
        b = tuple(rng.randint(1, 12) for _ in range(m))
        insts.append(Instance(PACKING, A, b, instance_id=f"cg{len(insts)}"))
    passed = 0
    for inst in insts:
        rep = check_cg_dominance(inst, SampleScheme(grid_denominator=8))
        if rep.status == PASS:
            passed += 1
    ok = passed == len(insts)
    _report(capsys, 8, ok,
            f"rounding cuts valid for sampled hulls on {passed}/{len(insts)} "
            f"packing instances")


def test_c09_grid_monotonicity(capsys):
    holds = 0
    pairs = 0
    for inst in FIXTURES.values():
        bodies = [sampled_closure(inst, SampleScheme(grid_denominator=d))
                  for d in (8, 4, 2, 1)]
        for finer, coarser in zip(bodies, bodies[1:]):
            pairs += 1
            if poly_subset(finer, coarser):
                holds += 1
    ok = holds == pairs
    _report(capsys, 9, ok,
            f"finer grids only tighten: {holds}/{pairs} inclusions across "
            f"denominators 8,4,2,1")


def test_c10_pairwise_aggregation_refines(capsys):
    rng = random.Random(1010)
    insts = []
    while len(insts) < 10:
        sense = PACKING if len(insts) % 2 == 0 else COVERING
        n = rng.choice([2, 3])
        A = tuple(tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(2))
        if any(not any(r) for r in A):
            continue
        if sense == COVERING and any(not any(A[i][j] for i in range(2))
                                     for j in range(n)):
            continue
        b = tuple(rng.randint(1, 8) for _ in range(2))
        insts.append(Instance(sense, A, b, instance_id=f"k{len(insts)}"))

    start = time.monotonic()
    pair_count = 0
    holds = True
    for inst in insts:
        two = SampleScheme(grid_denominator=2, k=2)
        for pair in sample_lambdas(inst.m, two):
            multi = integer_hull(build_relaxation(inst, pair))
            pair_count += 1
            for col in pair.weights:
                single = integer_hull(build_relaxation(inst, Aggregation((col,))))
                if not poly_subset(multi, single):
                    holds = False
        if not poly_subset(sampled_closure(inst, two),
                           sampled_closure(inst, SampleScheme(grid_denominator=2))):
            holds = False
    elapsed = time.monotonic() - start
    ok = holds and elapsed < 300
    _report(capsys, 10, ok,
            f"pairwise aggregation refines single rows ({len(insts)} instances, "
            f"{pair_count} pairs, {elapsed:.2f}s)")


def test_c11_single_row_ratio(capsys):
    # informational: a packing ratio above 2 is flagged, not failed
    packing = {name: inst for name, inst in FIXTURES.items()
               if inst.sense == PACKING}
    objectives = {"packfree": (1, 0)}  # all-ones is unbounded on the cylinder
    worst = Fraction(0)
    passed = 0
    anomalies = 0
    for name, inst in packing.items():
        obj = objectives.get(name)
        rep = check_onerow_ratio(inst, SCHEME2, objective=obj)
        if rep.status == PASS:
            passed += 1
        if "anomaly" in rep.note:
            anomalies += 1
        if "ratio=" in rep.note:
            value = Fraction(rep.note.split("ratio=")[1].split()[0])
            worst = max(worst, value)
    ok = passed == len(packing)
    _report(capsys, 11, ok,
            f"per-row vs closure optimum ratio on {passed}/{len(packing)} packing "
            f"fixtures, worst ratio {worst} ({anomalies} flagged above 2)")


def test_c12_byte_identical_runs(capsys, tmp_path):
    fixture_dir = tmp_path / "instances"
    fixture_dir.mkdir()
    for name, inst in sorted(FIXTURES.items()):
        (fixture_dir / f"{name}.txt").write_text(serialize_instance(inst))

    closure_runs = []
    verify_runs = []
    codes = set()
    for threads in (1, 2, 3):
        for _ in range(2):
            chunks = []
            for name in sorted(FIXTURES):
                code = cli.main(["closure", str(fixture_dir / f"{name}.txt"),
                                 "--grid", "2", "--threads", str(threads)])
                codes.add(code)
                chunks.append(capsys.readouterr().out)
            closure_runs.append("".join(chunks))
            code = cli.main(["verify", str(fixture_dir),
                             "--grid", "2", "--threads", str(threads)])
            codes.add(code)
            verify_runs.append(capsys.readouterr().out)

    ok = (codes == {0}
          and len(set(closure_runs)) == 1
          and len(set(verify_runs)) == 1)
    _report(capsys, 12, ok,
            f"closure and verify output byte-identical across {len(closure_runs)} "
            f"runs at thread counts 1,2,3 (exit codes {sorted(codes)})")
