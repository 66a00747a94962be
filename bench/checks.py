"""Output checks that do not trust the program.

Every check parses the text a request printed and compares it with a
computation made here: brute-force integer points, closed forms from the
paper, or properties the construction must have.  Nothing is compared
with a stored copy of earlier output.  A failed check raises
``CheckFailure`` with a message naming the instance and the property.

All arithmetic is exact (``Fraction`` and ``int``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

PACKING = "packing"
COVERING = "covering"

# half-integer probe points tried per kernel-nd instance; larger grids are
# subsampled with a generator seeded from the instance
PROBE_LIMIT = 4000


class CheckFailure(Exception):
    """A request's output broke a property it must have."""


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class Instance:
    """Plain copy of an instance, kept by the benchmark for its checks."""

    def __init__(self, name: str, sense: str, A, b):
        self.name = name
        self.sense = sense
        self.A = tuple(tuple(row) for row in A)
        self.b = tuple(b)

    @property
    def n(self) -> int:
        return len(self.A[0])

    @property
    def m(self) -> int:
        return len(self.A)

    def text(self) -> str:
        lines = [f"id {self.name}", f"sense {self.sense}", f"n {self.n}", f"m {self.m}", "A"]
        lines += [" ".join(map(str, row)) for row in self.A]
        lines += ["b", " ".join(map(str, self.b))]
        return "\n".join(lines) + "\n"

    def feasible(self, x) -> bool:
        for row, r in zip(self.A, self.b):
            lhs = sum(a * v for a, v in zip(row, x))
            if (lhs > r) if self.sense == PACKING else (lhs < r):
                return False
        return True

    def box(self):
        """Per-coordinate upper bounds of the brute-force box.

        Packing: the largest integer value any row allows.  Covering: one
        past the largest value any single row needs, so the box holds
        every minimal point and a layer of non-minimal ones.
        """
        out = []
        for j in range(self.n):
            ratios = [(r, row[j]) for row, r in zip(self.A, self.b) if row[j]]
            if self.sense == PACKING:
                out.append(min(r // a for r, a in ratios))
            else:
                out.append(max(ceil_div(r, a) for r, a in ratios) + 1)
        return out

    def integer_points(self):
        """Every feasible integer point of the box."""
        ranges = [range(c + 1) for c in self.box()]
        return [p for p in itertools.product(*ranges) if self.feasible(p)]

    def gamma(self) -> int:
        """Ceiling of the largest b_i / a_ij over nonzero entries."""
        return max(
            ceil_div(r, a) for row, r in zip(self.A, self.b) for a in row if a
        )


class Inequality:
    """``normal . x sense rhs`` as printed by the program."""

    def __init__(self, normal, sense: str, rhs):
        self.normal = tuple(Fraction(a) for a in normal)
        self.sense = sense
        self.rhs = Fraction(rhs)

    @classmethod
    def parse(cls, text: str) -> "Inequality":
        toks = text.split()
        if len(toks) < 3 or toks[-2] not in ("<=", ">="):
            raise CheckFailure(f"not an inequality: {text!r}")
        return cls([Fraction(t) for t in toks[:-2]], toks[-2], Fraction(toks[-1]))

    def value(self, x) -> Fraction:
        return sum((a * v for a, v in zip(self.normal, x)), Fraction(0))

    def holds(self, x) -> bool:
        v = self.value(x)
        return v <= self.rhs if self.sense == "<=" else v >= self.rhs

    def violation(self, x) -> Fraction:
        v = self.value(x)
        return v - self.rhs if self.sense == "<=" else self.rhs - v

    def render(self) -> str:
        return " ".join(map(str, self.normal)) + f" {self.sense} {self.rhs}"


def affine_rank(points) -> int:
    """Affine rank of a point set by exact Gaussian elimination."""
    if not points:
        return 0
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    width = len(base)
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank + 1


# ---------------------------------------------------------------------------
# closure output


def parse_closure(stdout: str) -> dict:
    """Sections of ``aggclosure closure`` output."""
    out = {"closure": [], "L": [], "K": []}
    section = None
    for line in stdout.splitlines():
        head = line.split()[0] if line.split() else ""
        if line in ("closure", "L", "K"):
            section = line
        elif head in ("T_sample", "S", "gamma"):
            out[head] = int(line.split()[1])
            section = None
        elif head == "saturation":
            out["saturation"] = line.split()[1]
            section = None
        elif section is not None:
            if line == "infeasible":
                raise CheckFailure(f"{section} printed as infeasible")
            out[section].append(Inequality.parse(line))
        else:
            raise CheckFailure(f"unexpected closure output line {line!r}")
    for key in ("T_sample", "S", "saturation"):
        if key not in out:
            raise CheckFailure(f"closure output lacks {key!r}")
    return out


def check_closure_1d(inst: Instance, stdout: str) -> None:
    """The printed closure is the paper's one-variable closed form.

    Packing: ``0 <= x <= min_i floor(b_i/a_i)``.  Covering:
    ``x >= max_i ceil(b_i/a_i)``.  The printed rows are read as an
    interval, so the check does not depend on their order or scaling.
    """
    art = parse_closure(stdout)
    lo, hi = None, None
    for iq in art["closure"]:
        if len(iq.normal) != 1 or iq.normal[0] == 0:
            raise CheckFailure(f"{inst.name}: not a one-variable row {iq.render()}")
        bound = iq.rhs / iq.normal[0]
        upper = (iq.sense == "<=") == (iq.normal[0] > 0)
        if upper:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    if inst.sense == PACKING:
        want = (0, min(r // row[0] for row, r in zip(inst.A, inst.b)))
    else:
        want = (max(ceil_div(r, row[0]) for row, r in zip(inst.A, inst.b)), None)
    if (lo, hi) != want:
        raise CheckFailure(f"{inst.name}: closure is [{lo}, {hi}], closed form {want}")
    if art["saturation"] != "true":
        raise CheckFailure(f"{inst.name}: saturation is {art['saturation']}")


def _probe_points(inst: Instance):
    """Half-integer points of the box, subsampled past ``PROBE_LIMIT``."""
    axes = [[Fraction(k, 2) for k in range(2 * c + 2)] for c in inst.box()]
    total = 1
    for ax in axes:
        total *= len(ax)
    if total <= PROBE_LIMIT:
        return list(itertools.product(*axes))
    rng = random.Random(inst.text())
    return [tuple(rng.choice(ax) for ax in axes) for _ in range(PROBE_LIMIT)]


def check_closure_nd(inst: Instance, stdout: str) -> None:
    """Validity, tightness and containment of a multi-variable closure.

    * every feasible integer point of the box satisfies every printed
      closure, ``L`` and ``K`` row (all three are valid for the integers);
    * every half-integer probe point the closure accepts satisfies the
      instance's rows (the closure lies inside the linear relaxation);
    * the antichain ``S`` is no larger than the tuple family ``T_sample``;
    * with one row the closure is the integer hull, so every printed row
      is tight at n affinely independent feasible integer points.
    """
    art = parse_closure(stdout)
    if not art["closure"]:
        raise CheckFailure(f"{inst.name}: empty closure description")
    points = inst.integer_points()
    for section in ("closure", "L", "K"):
        for iq in art[section]:
            if len(iq.normal) != inst.n:
                raise CheckFailure(f"{inst.name}: {section} row {iq.render()} has wrong width")
            for p in points:
                if not iq.holds(p):
                    raise CheckFailure(
                        f"{inst.name}: {section} row {iq.render()} cuts off feasible {p}"
                    )
    for x in _probe_points(inst):
        if all(iq.holds(x) for iq in art["closure"]) and not inst.feasible(x):
            raise CheckFailure(f"{inst.name}: closure admits {x} outside the rows")
    if art["S"] > art["T_sample"]:
        raise CheckFailure(f"{inst.name}: S {art['S']} exceeds T_sample {art['T_sample']}")
    if inst.m == 1:
        for iq in art["closure"]:
            tight = [p for p in points if iq.value(p) == iq.rhs]
            if affine_rank(tight) < inst.n:
                raise CheckFailure(
                    f"{inst.name}: row {iq.render()} is tight at fewer than"
                    f" {inst.n} affinely independent integer points"
                )


# ---------------------------------------------------------------------------
# separate output


def check_separate(inst: Instance, point, must_cut: bool, stdout: str) -> None:
    """A printed cut is valid, really violated, and comes from grid weights.

    ``must_cut`` marks a query point beyond the integer bound of a single
    row along an axis: the unit weight on that row is on every grid, so
    the program must find a cut.  An integer-feasible point must answer
    ``inside``, and any point answered ``inside`` must satisfy the rows.
    """
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise CheckFailure(f"{inst.name}: expected one output line, got {len(lines)}")
    line = lines[0]
    if line == "inside":
        if must_cut:
            raise CheckFailure(f"{inst.name}: {point} beyond a row's integer bound answered inside")
        if not inst.feasible(point):
            raise CheckFailure(f"{inst.name}: inside point {point} violates the rows")
        return
    if all(v.denominator == 1 for v in point) and inst.feasible(point):
        raise CheckFailure(f"{inst.name}: integer-feasible {point} was cut")
    try:
        cut_text, rest = line.split("  violation ")
        viol_text, lam_text = rest.split("  lambda ")
    except ValueError:
        raise CheckFailure(f"{inst.name}: unreadable separation line {line!r}") from None
    cut = Inequality.parse(cut_text)
    violation = Fraction(viol_text)
    if cut.violation(point) != violation:
        raise CheckFailure(
            f"{inst.name}: printed violation {violation}, recomputed {cut.violation(point)}"
        )
    if violation <= 0:
        raise CheckFailure(f"{inst.name}: violation {violation} is not positive")
    weights = [Fraction(t) for t in lam_text.split()]
    if len(weights) != inst.m or any(w < 0 for w in weights) or sum(weights) != 1:
        raise CheckFailure(f"{inst.name}: weights {lam_text!r} are not a convex combination")
    for p in inst.integer_points():
        if not cut.holds(p):
            raise CheckFailure(f"{inst.name}: cut {cut.render()} cuts off feasible {p}")


# ---------------------------------------------------------------------------
# verify output


def expected_checks(inst: Instance) -> list[str]:
    """The suite's documented check set for an instance's shape and sense:
    ``oracle_m1`` for one row, ``sandwich`` always, ``gamma`` for
    covering, ``cg_dominance`` for packing, ``onerow_ratio`` always."""
    names = ["oracle_m1"] if inst.m == 1 else []
    names.append("sandwich")
    names.append("gamma" if inst.sense == COVERING else "cg_dominance")
    names.append("onerow_ratio")
    return names


def check_verify(instances, stdout: str) -> None:
    """``fail=0``, the documented checks and no others for each instance,
    each passing, and every ``gamma=`` equal to the benchmark's own
    ceiling of the worst ratio.  (The exit code, 0, is checked by the
    caller, as for every request.)"""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("summary "):
        raise CheckFailure("verify printed no summary line")
    fields = dict(kv.split("=") for kv in lines[-1].split()[1:])
    if fields.get("fail") != "0":
        raise CheckFailure(f"verify summary {lines[-1]!r}")
    by_name = {inst.name: inst for inst in instances}
    seen: dict = {name: [] for name in by_name}
    for line in lines[:-1]:
        cols = line.split("\t")
        if len(cols) < 5:
            raise CheckFailure(f"unreadable verify line {line!r}")
        check, name, status = cols[0], cols[1], cols[2]
        if name not in by_name:
            raise CheckFailure(f"verify reported unknown instance {name!r}")
        if status != "pass":
            raise CheckFailure(f"{name}: {check} is {status}")
        seen[name].append(check)
        if check == "gamma":
            note = cols[5] if len(cols) > 5 else ""
            want = f"gamma={by_name[name].gamma()}"
            if note != want:
                raise CheckFailure(f"{name}: printed {note!r}, computed {want!r}")
    for name, inst in by_name.items():
        if seen[name] != expected_checks(inst):
            raise CheckFailure(f"{name}: checks {seen[name]} != {expected_checks(inst)}")
