"""Exact rational scalars and integer linear algebra.

Every quantity in this package is exact; no floating point is used
anywhere.  Rationals are ``fractions.Fraction`` (arbitrary-precision
integer numerator and denominator, always reduced, denominator >= 1)
and rational vectors are tuples of them; they are what the user writes
and reads (weights, points, violations).  Wherever the denominator is
known the work is done on ints instead: `int_clear` scales a rational
vector to an integer one over a common denominator, inequalities are
stored as integer rows and vertices and rays as homogeneous integer
tuples.

The integer kernels at the bottom (gcd-reduced fraction-free elimination)
keep intermediate coefficient growth under control and are shared by the
polyhedral conversion routines.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Rat = Fraction
RatVector = tuple[Fraction, ...]
RatMatrix = tuple[RatVector, ...]

IntVector = tuple[int, ...]


def parse_rat(text: str) -> Rat:
    """Parse ``"3"``, ``"-4/7"``, ... into a Fraction.

    Raises ValueError on malformed input (including a zero denominator).
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None


def format_rat(x: Rat) -> str:
    """Render ``p/q`` with the denominator omitted when it is 1."""
    return str(Fraction(x))


def as_vector(values: Iterable) -> RatVector:
    return tuple(Fraction(v) for v in values)


def idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def int_clear(vec: Sequence[Fraction]) -> tuple[IntVector, int]:
    """Scale a rational vector to integers by the lcm of denominators.

    Returns ``(ints, den)`` with ``ints[i] / den == vec[i]`` and ``den >= 1``.
    """
    if all(type(v) is int for v in vec):
        return tuple(vec), 1
    fracs = [Fraction(v) for v in vec]
    den = 1
    for f in fracs:
        den = lcm(den, f.denominator)
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def reduce_gcd(vec: Sequence[int]) -> IntVector:
    """Divide an integer vector by the gcd of its entries (gcd 1 afterwards)."""
    g = 0
    for a in vec:
        g = gcd(g, a)
    if g > 1:
        return tuple(a // g for a in vec)
    return tuple(vec)


def _sign_normalize(vec: Sequence[int]) -> IntVector:
    for a in vec:
        if a:
            return tuple(vec) if a > 0 else tuple(-x for x in vec)
    return tuple(vec)


class IntEchelon:
    """Incremental fraction-free row reduction over the integers.

    Rows are inserted one at a time; each inserted row is stored gcd-reduced
    with entries at all earlier pivot columns eliminated.  Rows and pivots
    are tuples, so a copy shares them with the original.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows: tuple = (), pivots: tuple = ()):
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Sequence[int]) -> IntVector:
        """Eliminate the row against stored pivots.  Zero result = dependent."""
        r = list(row)
        for prow, pcol in zip(self.rows, self.pivots):
            f = r[pcol]
            if f:
                p = prow[pcol]
                r = [p * a - f * b for a, b in zip(r, prow)]
        return _sign_normalize(reduce_gcd(r))

    def insert(self, row: Sequence[int]) -> bool:
        """Reduce and append if independent.  Returns True when rank grew."""
        r = self.reduce(row)
        if not any(r):
            return False
        pcol = next(i for i, a in enumerate(r) if a)
        self.rows = self.rows + (r,)
        self.pivots = self.pivots + (pcol,)
        return True

    def nullspace(self, width: int) -> list[IntVector]:
        """Integer basis of the right nullspace, one vector per free column.

        The vector of free column f starts as 1 at f and 0 at the other
        free columns and is back-substituted in descending pivot order;
        when a pivot does not divide the accumulated sum the whole vector
        is scaled up first.  Each vector comes out gcd-reduced and
        positive at f, so the basis depends only on the row space.
        """
        pivots = set(self.pivots)
        order = sorted(zip(self.rows, self.pivots), key=lambda t: -t[1])
        basis = []
        for f in range(width):
            if f in pivots:
                continue
            v = [0] * width
            v[f] = 1
            # rows pivoting right of f only meet zeros
            for row, pcol in order:
                if pcol > f:
                    continue
                s = sum(map(mul, row[pcol + 1 :], v[pcol + 1 :]))
                a = row[pcol]
                if s % a:
                    scale = abs(a) // gcd(s, a)
                    v = [x * scale for x in v]
                    s *= scale
                v[pcol] = -s // a
            basis.append(reduce_gcd(v))
        return basis


def int_echelon(rows: Iterable[Sequence[int]]) -> IntEchelon:
    # once the rank is the row width every later row reduces to zero
    ech = IntEchelon()
    for row in rows:
        if ech.insert(row) and ech.rank == len(row):
            break
    return ech


def int_row_basis(rows: Iterable[Sequence[int]]) -> list[IntVector]:
    """Canonical gcd-reduced integer basis of the row space (RREF rows).

    Each row of an echelon of ``rows`` is cleared above its pivot, in
    descending pivot order, by fraction-free elimination against the rows
    already cleared, then divided by its gcd.  The result is the reduced
    row echelon form with every row scaled to primitive integers, pivot
    positive; it depends only on the span, so different generating sets
    of the same space produce identical output.
    """
    ech = int_echelon(rows)
    done: list[tuple[int, IntVector]] = []
    for pcol, row in sorted(zip(ech.pivots, ech.rows), reverse=True):
        r = row
        for qcol, qrow in done:
            f = r[qcol]
            if f:
                r = [qrow[qcol] * a - f * b for a, b in zip(r, qrow)]
        done.append((pcol, reduce_gcd(r)))
    return [row for _, row in reversed(done)]


# no caller in src/; kept because bench/tracer.py looks it up with getattr
# and no default, so deleting it would break `bench/run.py --trace 1`
def int_nullspace(rows: Iterable[Sequence[int]], width: int) -> list[IntVector]:
    """Deterministic gcd-reduced integer basis of the right nullspace.

    The basis vector for free column f has a positive entry at f and
    zeros at the other free columns.
    """
    return int_echelon(rows).nullspace(width)
