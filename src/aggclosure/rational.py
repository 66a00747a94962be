"""Exact rational scalars, vectors, and small dense linear algebra.

Every quantity in this package is exact: scalars are ``fractions.Fraction``
(arbitrary-precision integer numerator and denominator, always reduced,
denominator >= 1), vectors are tuples of Fraction, matrices are tuples of row
tuples.  No floating point is used anywhere.

The integer kernels at the bottom (gcd-reduced fraction-free elimination) keep
intermediate coefficient growth under control and are shared by the polyhedral
conversion routines.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

Rat = Fraction
RatVector = tuple[Fraction, ...]
RatMatrix = tuple[RatVector, ...]

IntVector = tuple[int, ...]


def rat(numerator: int | str | Fraction, denominator: int = 1) -> Rat:
    """Build an exact rational.  Accepts ints, ``"p/q"`` strings, Fractions."""
    return Fraction(numerator, denominator) if denominator != 1 else Fraction(numerator)


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


def as_matrix(rows: Iterable[Iterable]) -> RatMatrix:
    mat = tuple(as_vector(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def vdot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


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
    ech = IntEchelon()
    for row in rows:
        ech.insert(row)
    return ech


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    return int_echelon(rows).rank


def int_row_basis(rows: Iterable[Sequence[int]], width: int) -> list[IntVector]:
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


def int_nullspace(rows: Iterable[Sequence[int]], width: int) -> list[IntVector]:
    """Deterministic gcd-reduced integer basis of the right nullspace.

    The basis vector for free column f has a positive entry at f and
    zeros at the other free columns.
    """
    return int_echelon(rows).nullspace(width)


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[RatVector]:
    """Solve a square exact linear system; None reports a singular matrix.

    Fraction-free (Bareiss-style) forward elimination on the integer-cleared
    augmented system bounds intermediate growth; the solution is read off
    the integer null vector of the augmented system.
    """
    mat = as_matrix(matrix)
    b = as_vector(rhs)
    n = len(mat)
    if n == 0:
        return ()
    if len(mat[0]) != n or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    ech = IntEchelon()
    for row, rhs_entry in zip(mat, b):
        ints, _ = int_clear(tuple(row) + (rhs_entry,))
        ech.insert(ints)
    # a pivot on the rhs column means 0 = nonzero: inconsistent, and the
    # matrix necessarily singular
    if ech.rank != n or n in ech.pivots:
        return None
    # the nullspace of [A | b] is spanned by (-x, 1)
    (v,) = ech.nullspace(n + 1)
    return tuple(Fraction(-a, v[n]) for a in v[:n])


def affine_rank(points: Sequence[Sequence]) -> int:
    """Largest count of affinely independent points in the list.

    Empty input has affine rank 0; a single point has affine rank 1.
    Invariant under translation and permutation of the input.
    """
    pts = [as_vector(p) for p in points]
    if not pts:
        return 0
    base = pts[0]
    ech = IntEchelon()
    for p in pts[1:]:
        diff = tuple(a - b for a, b in zip(p, base))
        ints, _ = int_clear(diff)
        ech.insert(ints)
    return ech.rank + 1
