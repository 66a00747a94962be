from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggclosure.rational import (
    IntEchelon,
    as_vector,
    format_rat,
    int_clear,
    int_nullspace,
    int_row_basis,
    parse_rat,
    reduce_gcd,
)
from oracles import affine_rank, as_matrix, int_rank, rat, solve_linear, vdot


class TestParseFormat:
    def test_integer_renders_without_denominator(self):
        assert format_rat(rat(3)) == "3"

    def test_negative_fraction_round_trip(self):
        assert format_rat(parse_rat("-4/7")) == "-4/7"

    def test_parse_reduces(self):
        assert parse_rat("6/4") == Fraction(3, 2)

    @pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1.5.2", "1/2/3", "/3"])
    def test_malformed_input_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    @given(st.fractions())
    def test_round_trip(self, x):
        assert parse_rat(format_rat(x)) == x


class TestSolveLinear:
    def test_diagonal(self):
        assert solve_linear([[2, 0], [0, 2]], (1, 1)) == (Fraction(1, 2), Fraction(1, 2))

    def test_singular_returns_none(self):
        assert solve_linear([[1, 1], [1, 1]], (1, 2)) is None

    def test_dense(self):
        assert solve_linear([[2, 3], [1, 4]], (4, 4)) == (Fraction(4, 5), Fraction(4, 5))

    def test_consistent_dependent_rows_still_singular(self):
        # underdetermined, no unique answer
        assert solve_linear([[1, 1], [2, 2]], (1, 2)) is None

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            )
        )
    )
    def test_solution_satisfies_system(self, case):
        matrix, rhs = case
        x = solve_linear(matrix, rhs)
        if x is not None:
            for row, b in zip(matrix, rhs):
                assert vdot(as_vector(row), x) == b


class TestAffineRank:
    def test_triangle(self):
        assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 3

    def test_collinear(self):
        assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 2

    def test_collinear_offset(self):
        assert affine_rank([(2, 0), (0, 2), (1, 1)]) == 2

    def test_empty_and_single(self):
        assert affine_rank([]) == 0
        assert affine_rank([(5, 7)]) == 1

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
            min_size=1,
            max_size=8,
        ),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_translation_invariant(self, pts, shift):
        moved = [tuple(a + s for a, s in zip(p, shift)) for p in pts]
        assert affine_rank(moved) == affine_rank(pts)

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            min_size=1,
            max_size=8,
        ),
        st.randoms(),
    )
    def test_permutation_invariant(self, pts, rng):
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert affine_rank(shuffled) == affine_rank(pts)


class TestIntegerLinearAlgebra:
    def test_int_clear(self):
        ints, den = int_clear(as_vector([Fraction(1, 2), Fraction(2, 3)]))
        assert ints == (3, 4) and den == 6

    def test_reduce_gcd(self):
        assert reduce_gcd((4, -6, 8)) == (2, -3, 4)
        assert reduce_gcd((0, 0)) == (0, 0)

    def test_rank(self):
        assert int_rank([(1, 2), (2, 4), (0, 1)]) == 2

    def test_echelon_reduce_detects_dependence(self):
        ech = IntEchelon()
        assert ech.insert((1, 2, 3))
        assert ech.insert((0, 1, 1))
        assert not any(ech.reduce((1, 3, 4)))

    def test_nullspace_basis_orthogonal_and_deterministic(self):
        rows = [(1, 2, 3), (0, 1, 1)]
        basis = int_nullspace(rows, 3)
        assert basis == int_nullspace(rows, 3)
        assert len(basis) == 1
        for row in rows:
            assert sum(a * b for a, b in zip(row, basis[0])) == 0

    def test_nullspace_of_nothing_is_identity(self):
        assert int_nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @given(
        st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
            min_size=0,
            max_size=5,
        )
    )
    def test_nullspace_dimension_and_orthogonality(self, rows):
        basis = int_nullspace(rows, 4)
        assert len(basis) == 4 - int_rank(rows)
        for nu in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, nu)) == 0
            from math import gcd

            g = 0
            for a in nu:
                g = gcd(g, a)
            assert g == 1

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            as_matrix([[1, 2], [3]])


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    # reduced row echelon form over Fraction with deterministic pivoting;
    # the integer kernels are checked against it
    mat = [list(r) for r in rows]
    nrows = len(mat)
    width = len(mat[0]) if mat else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivot_cols


def fraction_row_basis(rows):
    # the Fraction RREF row basis that integer elimination replaced, each
    # row gcd-reduced; kept as the oracle
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    if not rows:
        return []
    rref, pivot_cols = _rref(rows)
    return [reduce_gcd(int_clear(tuple(row))[0]) for row in rref[: len(pivot_cols)]]


def fraction_nullspace(rows, width):
    # the Fraction RREF nullspace that integer back-substitution replaced;
    # kept as the oracle
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    if not rows:
        return [tuple(int(i == f) for i in range(width)) for f in range(width)]
    rref, pivot_cols = _rref(rows)
    basis = []
    for f in range(width):
        if f in pivot_cols:
            continue
        v = [Fraction(int(i == f)) for i in range(width)]
        for i, c in enumerate(pivot_cols):
            v[c] = -rref[i][f]
        ints = reduce_gcd(int_clear(v)[0])
        basis.append(ints if ints[f] > 0 else tuple(-a for a in ints))
    return basis


class TestNullspace:
    def test_scales_up_when_a_pivot_does_not_divide(self):
        ech = IntEchelon()
        ech.insert((2, 3, 0))
        ech.insert((0, 3, 1))
        assert ech.nullspace(3) == [(3, -2, 6)]

    @given(
        st.integers(1, 5).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.lists(st.integers(-6, 6), min_size=width, max_size=width),
                    min_size=0,
                    max_size=width,
                ),
                st.lists(st.integers(-3, 3), min_size=width, max_size=width),
            )
        )
    )
    def test_matches_fraction_rref(self, case):
        # any rank, a subset leaf's width - 1 included, with one dependent
        # row mixed in
        width, rows, mix = case
        dependent = [sum(c * row[j] for c, row in zip(mix, rows)) for j in range(width)]
        rows = rows[:1] + [dependent] + rows[1:]
        assert int_nullspace(rows, width) == fraction_nullspace(rows, width)


class TestRowBasis:
    def test_cleared_above_the_pivots(self):
        assert int_row_basis([(0, 1, 1), (1, 1, 0)]) == [(1, 0, -1), (0, 1, 1)]

    def test_depends_only_on_the_span(self):
        assert int_row_basis([(1, 2, 3), (2, 4, 7)]) == int_row_basis([(0, 0, 1), (3, 6, 0)])

    @given(
        st.integers(1, 5).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.lists(st.integers(-6, 6), min_size=width, max_size=width),
                    min_size=0,
                    max_size=width + 1,
                ),
            )
        )
    )
    def test_matches_fraction_rref(self, case):
        width, rows = case
        assert int_row_basis(rows) == fraction_row_basis(rows)
