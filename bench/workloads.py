"""Seeded workloads: instance files, request argument lists and checks.

Each workload is one pass of requests (its corpus).  ``build(name, seed,
workdir)`` writes the instance files for that seed under ``workdir`` and
returns the requests; the program sees only those files.

The seed draws:

* ``fine-grid-1d``: every coefficient and right-hand side, and the order
  of packing and covering instances;
* ``kernel-nd``, ``separate-cold``, ``verify-sweep``: a row and a column
  permutation of each base instance, plus the query points of
  ``separate-cold``.

Permuting rows leaves the weight grid, and so the set of sampled hulls,
unchanged; permuting columns relabels every hull.  The work of each
request is therefore the same for every seed, while the bytes the
program reads and the order it meets rows, columns and generators differ.
Random coefficients in several variables change the work of a request
by a factor of five (0.2 s to 1.1 s over 25 random 3x3 packing instances
at grid 4), which no median over a few dozen requests can absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from checks import (
    COVERING,
    PACKING,
    CheckFailure,
    Instance,
    check_closure_1d,
    check_closure_nd,
    check_separate,
    check_verify,
)

P, C = PACKING, COVERING


@dataclass
class Request:
    """One CLI invocation and the check its output must pass."""

    argv: list
    check: Callable[[int, str], None] = field(repr=False)


def _write(inst: Instance, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(inst.text())
    return str(path)


def _permuted(name: str, sense: str, A, b, rng: random.Random) -> Instance:
    rows = list(range(len(A)))
    cols = list(range(len(A[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return Instance(name, sense, [[A[i][j] for j in cols] for i in rows], [b[i] for i in rows])


def _checked(kind: Callable, *args) -> Callable[[int, str], None]:
    """A request check: exit code 0, then ``kind(*args, stdout)``."""

    def check(returncode: int, stdout: str) -> None:
        if returncode != 0:
            raise CheckFailure(f"exit code {returncode}")
        kind(*args, stdout)

    return check


# ---------------------------------------------------------------------------
# fine-grid-1d: one variable, five rows, grid 16 (4,845 weights a request)

FINE_SENSES = (P, C, P, P, C, P, C, P)


def fine_grid_1d(rng: random.Random, workdir: Path) -> list[Request]:
    senses = list(FINE_SENSES)
    rng.shuffle(senses)
    out = []
    for i, sense in enumerate(senses):
        A = [[rng.randint(2, 9)] for _ in range(5)]
        b = [rng.randint(20, 60) for _ in range(5)]
        inst = Instance(f"fg{i}", sense, A, b)
        path = _write(inst, workdir / f"{inst.name}.txt")
        out.append(Request(["closure", path, "--grid", "16"], _checked(check_closure_1d, inst)))
    return out


# ---------------------------------------------------------------------------
# kernel-nd: three and four variables at coarse grids, some with --k 2

# (name, sense, A, b, grid, k); pack3x3 and its covering twin are the
# instances named in ROADMAP.md
KERNEL_BASES = (
    ("pack3x3", P, ((3, 2, 4), (2, 5, 1), (4, 1, 3)), (9, 10, 8), 4, 1),
    ("pk3a", P, ((1, 4, 4), (5, 1, 4), (3, 2, 5)), (8, 10, 8), 4, 1),
    ("cv3a", C, ((5, 2, 3), (2, 2, 4), (3, 1, 4)), (12, 8, 9), 3, 1),
    ("cv3b", C, ((4, 5, 1), (4, 2, 4), (4, 2, 3)), (12, 10, 8), 3, 1),
    ("pk3k2", P, ((1, 4, 1), (3, 5, 5)), (12, 11), 3, 2),
    ("pk3k2b", P, ((4, 5, 1), (2, 5, 4)), (10, 11), 3, 2),
    ("pk4r1", P, ((5, 4, 4, 3),), (11,), 2, 1),
    ("cv4r1", C, ((1, 5, 3, 1),), (8,), 2, 1),
)


def kernel_nd(rng: random.Random, workdir: Path) -> list[Request]:
    out = []
    for name, sense, A, b, grid, k in KERNEL_BASES:
        inst = _permuted(name, sense, A, b, rng)
        path = _write(inst, workdir / f"{name}.txt")
        argv = ["closure", path, "--grid", str(grid)]
        if k != 1:
            argv += ["--k", str(k)]
        out.append(Request(argv, _checked(check_closure_nd, inst)))
    return out


# ---------------------------------------------------------------------------
# separate-cold: two and three variables, grid 8, points inside and outside

SEPARATE_BASES = (
    ("sp2a", P, ((3, 5), (4, 3), (2, 7)), (17, 19, 23)),
    ("sp2b", C, ((3, 5), (4, 3), (2, 7)), (17, 19, 23)),
    ("sp3a", P, ((3, 2, 4), (2, 5, 3)), (13, 17)),
    ("sp3b", C, ((3, 2, 4), (2, 5, 3)), (13, 17)),
)


def _outside_point(inst: Instance, rng: random.Random):
    """A point of the linear relaxation on a random axis that lies past
    the integer bound one row sets along that axis.

    Packing: ``x_j`` in ``(floor(t), t]`` with ``t = min_i b_i/a_ij``.
    Covering: ``x_j`` in ``[t, ceil(t))`` with ``t = max_i b_i/a_ij``.
    Bases are chosen so that ``t`` is fractional on every axis.
    """
    j = rng.randrange(inst.n)
    ratios = [Fraction(r, row[j]) for row, r in zip(inst.A, inst.b)]
    if inst.sense == PACKING:
        t = min(ratios)
        lo, hi = Fraction(int(t)), t
    else:
        t = max(ratios)
        lo, hi = t, Fraction(int(t) + 1)
    if t.denominator == 1:
        raise ValueError(f"{inst.name}: integral bound {t} on axis {j}")
    step = (hi - lo) / 4
    value = lo + step * rng.randint(1, 3)
    return tuple(value if i == j else Fraction(0) for i in range(inst.n))


def _inside_point(inst: Instance, rng: random.Random):
    """A random feasible integer point; it is in every integer hull."""
    return tuple(Fraction(v) for v in rng.choice(inst.integer_points()))


def separate_cold(rng: random.Random, workdir: Path) -> list[Request]:
    out = []
    for name, sense, A, b in SEPARATE_BASES:
        inst = _permuted(name, sense, A, b, rng)
        path = _write(inst, workdir / f"{name}.txt")
        points = [(_outside_point(inst, rng), True), (_outside_point(inst, rng), True)]
        points.append((_inside_point(inst, rng), False))
        for x, must_cut in points:
            text = " ".join(str(v) for v in x)
            argv = ["separate", path, "--point", text, "--grid", "8"]
            out.append(Request(argv, _checked(check_separate, inst, x, must_cut)))
    return out


# ---------------------------------------------------------------------------
# verify-sweep: directories of mixed instances, default grid

VERIFY_BASES = (
    ("vp1", P, ((3, 4, 5),), (12,)),
    ("vc1", C, ((2, 3, 5),), (11,)),
    ("vp2", P, ((3, 5), (4, 3)), (14, 13)),
    ("vc2", C, ((3, 5), (4, 3)), (14, 13)),
    ("vp3", P, ((2, 3, 4), (4, 3, 2)), (9, 10)),
    ("vc3", C, ((2, 3, 1), (1, 2, 3)), (7, 8)),
)
VERIFY_DIRS = 3


def verify_sweep(rng: random.Random, workdir: Path) -> list[Request]:
    out = []
    for d in range(VERIFY_DIRS):
        folder = workdir / f"d{d}"
        insts = [
            _permuted(f"{name}-{d}", sense, A, b, rng) for name, sense, A, b in VERIFY_BASES
        ]
        for inst in insts:
            _write(inst, folder / f"{inst.name}.txt")
        out.append(Request(["verify", str(folder)], _checked(check_verify, insts)))
    return out


WORKLOADS = {
    "fine-grid-1d": fine_grid_1d,
    "kernel-nd": kernel_nd,
    "separate-cold": separate_cold,
    "verify-sweep": verify_sweep,
}


def build(name: str, seed: int, workdir: Path) -> list[Request]:
    """Write the instance files of one workload and return its requests."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
