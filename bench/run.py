"""Layered benchmark of the ``aggclosure`` command line.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One client runs a closed loop: each request is a fresh process running
``aggclosure.cli.main`` (through ``bench/request.py``), so every memo
starts cold, and the next request starts only after the previous one has
exited.  A run repeats the workload's corpus (one pass over its seeded
requests) as often as whole passes fit in ``--seconds`` (at least once),
and checks every output with ``bench/checks.py`` between passes.

With ``--trace 0`` it reports the end-to-end metrics.  Compute times
are means over the run's passes: the host's speed drifts in spells of
tens of seconds, and a mean follows the share of the run spent in each
spell where a median jumps between them.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
medians over the traced passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` (the default) runs every workload in turn and prints a summary
block for each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckFailure  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

WORKDIR = Path("bench") / ".work"
REQUEST_TIMEOUT_S = 60

END_TO_END = (
    ("corpus_s", "s"),
    ("req_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# <module>.<function>.<field>, unit; must match BENCHMARK.json
PER_LAYER = (
    ("closure.sample_lambdas.self_s", "s"),
    ("closure.sample_lambdas.calls", "count"),
    ("closure.sample_lambdas.weights_out", "count"),
    ("closure.build_L.self_s", "s"),
    ("closure.enumerate_tuples.self_s", "s"),
    ("closure.enumerate_tuples.tuples_out", "count"),
    ("closure.filter_minimal_tuples.self_s", "s"),
    ("closure.filter_minimal_tuples.kept_out", "count"),
    ("closure.build_K.self_s", "s"),
    ("closure.aggregation_closure.calls", "count"),
    ("closure.sampled_closure.calls", "count"),
    ("closure.separate.self_s", "s"),
    ("knapsack.build_relaxation.self_s", "s"),
    ("knapsack.build_relaxation.calls", "count"),
    ("knapsack.integer_hull.self_s", "s"),
    ("knapsack.integer_hull.calls", "count"),
    ("knapsack.integer_hull.distinct_keys", "count"),
    ("knapsack.integer_hull.hit_ratio", "ratio"),
    ("knapsack.lattice_points.self_s", "s"),
    ("knapsack.lattice_points.calls", "count"),
    ("knapsack.lattice_points.points_out", "count"),
    ("polyhedra.vrep_to_hrep.self_s", "s"),
    ("polyhedra.vrep_to_hrep.calls", "count"),
    ("polyhedra.vrep_to_hrep.generators_in", "count"),
    ("polyhedra.vrep_to_hrep.facets_out", "count"),
    ("polyhedra.hrep_to_vrep.self_s", "s"),
    ("polyhedra.hrep_to_vrep.calls", "count"),
    ("polyhedra.hrep_to_vrep.rows_in", "count"),
    ("polyhedra.intersect.self_s", "s"),
    ("polyhedra.intersect.calls", "count"),
    ("polyhedra.intersect.inputs", "count"),
    ("polyhedra.lp_feasible.self_s", "s"),
    ("polyhedra.lp_feasible.calls", "count"),
    ("polyhedra.poly_subset.calls", "count"),
    ("rational.int_nullspace.self_s", "s"),
    ("rational.int_nullspace.calls", "count"),
    ("verify.check_oracle_m1.self_s", "s"),
    ("verify.check_sandwich.self_s", "s"),
    ("verify.check_gamma.self_s", "s"),
    ("verify.check_cg_dominance.self_s", "s"),
    ("verify.check_onerow_ratio.self_s", "s"),
    ("cli.parse_instance.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Outcome:
    """One finished request."""

    def __init__(self, index, record, spawn_ns, error=None):
        self.index = index
        self.record = record
        self.error = error
        self.setup_s = (record["ready_ns"] - spawn_ns) / 1e9 if record else None


def run_request(index: int, argv: list, trace: bool) -> tuple[Outcome, int]:
    """Spawn one request, wait for it to exit; returns it and the exit time."""
    cmd = [sys.executable, "-I", str(HERE / "request.py"), "1" if trace else "0", *argv]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        error = f"timed out after {REQUEST_TIMEOUT_S} s"
        return Outcome(index, None, spawn_ns, error), time.monotonic_ns()
    exit_ns = time.monotonic_ns()
    if proc.returncode != 0 or not out.strip():
        error = f"runner exited {proc.returncode}: {err.strip()[-300:]}"
        return Outcome(index, None, spawn_ns, error), exit_ns
    return Outcome(index, json.loads(out.strip().splitlines()[-1]), spawn_ns), exit_ns


def run_pass(requests, trace: bool):
    """One closed-loop pass over the corpus; returns outcomes and wall time."""
    outcomes = []
    first = time.monotonic_ns()
    last = first
    for i, req in enumerate(requests):
        outcome, last = run_request(i, req.argv, trace)
        outcomes.append(outcome)
    return outcomes, (last - first) / 1e9


def check_outcomes(requests, outcomes, verdicts: dict) -> None:
    """Check each output once; identical outputs of a request share a verdict."""
    for o in outcomes:
        if o.error is not None:
            continue
        key = (o.index, o.record["returncode"], o.record["stdout"])
        if key not in verdicts:
            try:
                requests[o.index].check(o.record["returncode"], o.record["stdout"])
                verdicts[key] = None
            except (CheckFailure, ValueError, IndexError) as exc:
                # ValueError and IndexError come from output that cannot be parsed
                stderr = o.record["stderr"].strip()[-200:]
                verdicts[key] = f"{type(exc).__name__}: {exc}" + (f" [{stderr}]" if stderr else "")
        o.error = verdicts[key]


def layer_totals(outcomes) -> dict:
    """Per-layer metrics of one traced pass, summed over its requests."""
    sums: dict = {}
    for o in outcomes:
        if o.record is None:
            continue
        for func, row in o.record["trace"].items():
            acc = sums.setdefault(func, {})
            for field, value in row.items():
                acc[field] = acc.get(field, 0) + value
    out = {}
    for name, _unit in PER_LAYER:
        func, _, field = name.rpartition(".")
        if func == "trace":
            continue
        row = sums.get(func, {})
        if field == "hit_ratio":
            calls = row.get("calls", 0)
            out[name] = 1 - row.get("distinct_keys", 0) / calls if calls else 0.0
        else:
            out[name] = row.get(field, 0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORKDIR / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    requests = build(name, seed, workdir)

    plain, traced = [], []  # (outcomes, corpus seconds) per pass
    verdicts: dict = {}
    started = time.monotonic()
    while True:
        use_trace = trace and len(traced) < len(plain)
        step_start = time.monotonic()
        outcomes, wall = run_pass(requests, use_trace)
        check_outcomes(requests, outcomes, verdicts)
        (traced if use_trace else plain).append((outcomes, wall))
        now = time.monotonic()
        # stop before a pass that would end past the run length, once
        # every kind of pass has run
        if now - started + (now - step_start) > seconds and (not trace or traced):
            break

    everything = [o for runs in (plain, traced) for outs, _ in runs for o in outs]
    failed = [o for o in everything if o.error is not None]
    # a request that ran but printed a wrong answer makes the run incorrect;
    # one that crashed or timed out only counts as failed
    wrong = [o for o in failed if o.record is not None]
    result = {
        "correct": not wrong,
        "attempted": len(everything),
        "failed": len(failed),
        "errors": sorted({f"{requests[o.index].argv}: {o.error}" for o in failed})[:5],
    }
    if trace:
        per_pass = [layer_totals(outs) for outs, _ in traced]
        metrics = {
            name: statistics.median(p[name] for p in per_pass)
            for name, _ in PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(w for _, w in traced) - statistics.median(
            w for _, w in plain
        )
        units = dict(PER_LAYER)
    else:
        good = [o for outs, _ in plain for o in outs if o.error is None]
        if not good:
            raise SystemExit(f"error: every request failed: {result['errors']}")
        # each request's compute time is its mean over the passes; the
        # median is then taken across the corpus's distinct requests
        per_request: dict = {}
        for o in good:
            per_request.setdefault(o.index, []).append(o.record["main_s"])
        metrics = {
            "corpus_s": statistics.fmean(w for _, w in plain),
            "req_p50_s": statistics.median(statistics.fmean(v) for v in per_request.values()),
            "setup_s": statistics.median(o.setup_s for o in good),
            "peak_rss_mb": max(o.record["maxrss_kb"] for o in good) / 1024,
        }
        units = dict(END_TO_END)
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result


def print_summary(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']},"
          f" correct {str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"   {key:<42} {m['value']:.6g} {m['unit']}")
    for line in result["errors"]:
        print(f"   error: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aggclosure" / "cli.py").is_file():
        print(f"error: no aggclosure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, results[name])

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    line = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
