"""Per-function trace of one request, taken from outside the program.

``Tracer.install`` wraps public functions of the ``aggclosure`` modules
and rebinds every name that refers to them, in every ``aggclosure``
module (``from .polyhedra import intersect`` in ``closure`` binds its
own name; a call through a binding left unwrapped would escape the
trace).  Only the benchmark's request runner installs it, and only when
tracing is on.

Spans sit on an in-memory stack.  A span's self time is its duration
minus the whole time of the wrapped calls made inside it, so the
recursion in ``hrep_to_vrep`` and ``aggregation_closure`` is counted
once.  The wrapper's own bookkeeping (such as computing canonical hull
keys) happens outside every span and is charged to no function; it shows
only in ``trace.overhead_s``.  Totals per function stay in memory and
are reported when the request ends.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter_ns


def _seq(x):
    return x if hasattr(x, "__len__") else list(x)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _pre_vrep(stat, args, kwargs):
    points = _seq(_first(args, kwargs, "points"))
    rays = _seq(args[1] if len(args) > 1 else kwargs.get("rays", ()))
    stat["generators_in"] += len(points) + len(rays)
    return (points, rays) + tuple(args[2:]), {
        k: v for k, v in kwargs.items() if k not in ("points", "rays")
    }


def _pre_hrep(stat, args, kwargs):
    ineqs = _seq(_first(args, kwargs, "ineqs"))
    stat["rows_in"] += len(ineqs)
    rest = {k: v for k, v in kwargs.items() if k != "ineqs"}
    return (ineqs,) + tuple(args[1:]), rest


def _pre_intersect(stat, args, kwargs):
    polys = _seq(_first(args, kwargs, "polys"))
    stat["inputs"] += len(polys)
    return (polys,), {}


def _pre_hull(stat, args, kwargs):
    stat["keys"].add(_first(args, kwargs, "rel").canonical_key())
    return args, kwargs


def _count_out(field):
    def post(stat, result):
        stat[field] += len(result)

    return post


def _post_lattice(stat, result):
    stat["points_out"] += len(result[0])


def _post_vrep(stat, result):
    stat["facets_out"] += len(result.hrep)


# (module, function, counters, pre-call hook, post-call hook); a function
# whose counters hold no "self_s" is counted, not timed: its body is
# charged to the enclosing span
SPECS = (
    ("closure", "sample_lambdas", ("self_s", "calls", "weights_out"), None, _count_out("weights_out")),
    ("closure", "build_L", ("self_s",), None, None),
    ("closure", "enumerate_tuples", ("self_s", "tuples_out"), None, _count_out("tuples_out")),
    ("closure", "filter_minimal_tuples", ("self_s", "kept_out"), None, _count_out("kept_out")),
    ("closure", "build_K", ("self_s",), None, None),
    ("closure", "aggregation_closure", ("calls",), None, None),
    ("closure", "sampled_closure", ("calls",), None, None),
    ("closure", "separate", ("self_s",), None, None),
    ("knapsack", "build_relaxation", ("self_s", "calls"), None, None),
    ("knapsack", "integer_hull", ("self_s", "calls", "distinct_keys", "hit_ratio"), _pre_hull, None),
    ("knapsack", "lattice_points", ("self_s", "calls", "points_out"), None, _post_lattice),
    ("polyhedra", "vrep_to_hrep", ("self_s", "calls", "generators_in", "facets_out"), _pre_vrep, _post_vrep),
    ("polyhedra", "hrep_to_vrep", ("self_s", "calls", "rows_in"), _pre_hrep, None),
    ("polyhedra", "intersect", ("self_s", "calls", "inputs"), _pre_intersect, None),
    ("polyhedra", "lp_feasible", ("self_s", "calls"), None, None),
    ("polyhedra", "poly_subset", ("calls",), None, None),
    ("rational", "int_nullspace", ("self_s", "calls"), None, None),
    ("verify", "check_oracle_m1", ("self_s",), None, None),
    ("verify", "check_sandwich", ("self_s",), None, None),
    ("verify", "check_gamma", ("self_s",), None, None),
    ("verify", "check_cg_dominance", ("self_s",), None, None),
    ("verify", "check_onerow_ratio", ("self_s",), None, None),
    ("cli", "parse_instance", ("self_s",), None, None),
    ("cli", "main", ("self_s",), None, None),
)


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        # whole time of wrapped calls made inside each open span; the
        # bottom entry collects calls made outside any span
        self.stack = [0]

    def _timed(self, func, stat, pre, post):
        stack = self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            entered = _clock()
            try:
                if pre is not None:
                    args, kwargs = pre(stat, args, kwargs)
                stack.append(0)
                start = _clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = _clock()
                    stat["self_ns"] += end - start - stack.pop()
                    stat["calls"] += 1
                if post is not None:
                    post(stat, result)
                return result
            finally:
                stack[-1] += _clock() - entered

        return wrapper

    @staticmethod
    def _counted(func, stat):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import aggclosure  # noqa: F401  imports every submodule
        import aggclosure.cli  # noqa: F401

        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "aggclosure"]
        for mod_name, func_name, fields, pre, post in SPECS:
            owner = sys.modules[f"aggclosure.{mod_name}"]
            func = getattr(owner, func_name)
            stat = {"self_ns": 0, "calls": 0, "keys": set()}
            for f in fields:
                stat.setdefault(f, 0)
            self.stats[f"{mod_name}.{func_name}"] = (fields, stat)
            if "self_s" in fields:
                wrapper = self._timed(func, stat, pre, post)
            else:
                wrapper = self._counted(func, stat)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)

    def report(self) -> dict:
        """Raw totals per function: seconds, counts, distinct hull keys."""
        out = {}
        for name, (fields, stat) in self.stats.items():
            row = {"self_s": stat["self_ns"] / 1e9, "calls": stat["calls"]}
            for f in fields:
                if f not in ("self_s", "calls", "distinct_keys", "hit_ratio"):
                    row[f] = stat[f]
            if "distinct_keys" in fields:
                row["distinct_keys"] = len(stat["keys"])
            out[name] = row
        return out
