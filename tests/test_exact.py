"""Exact linear algebra oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import bareiss_det_int, fraction_charpoly, fraction_pivots, nonzero_rows
from spectral_renorm.cohomology import SURFACES, BlowupSurface
from spectral_renorm.exact import (
    _pivots,
    charpoly,
    det_exact,
    identity,
    integer_roots,
    mat_mul,
    rational_kernel,
    solve_exact,
)


def frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def laplace_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for i in range(n):
        if m[i][0] == 0:
            continue
        minor = [row[1:] for r, row in enumerate(m) if r != i]
        term = m[i][0] * laplace_det(minor)
        total += term if i % 2 == 0 else -term
    return total


def test_det_against_laplace_oracle():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = frac_matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(n)] for _ in range(n)])
        assert det_exact(nonzero_rows(m)) == laplace_det(m)


def test_det_against_numpy():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 7)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        exact = det_exact(nonzero_rows(rows))
        approx = np.linalg.det(np.array(rows, dtype=float))
        assert abs(float(exact) - approx) < 1e-6 * max(1.0, abs(approx))


@st.composite
def sparse_int_matrix(draw, max_n=8, bound=9):
    """A square integer matrix with a drawn share of nonzero entries."""
    n = draw(st.integers(1, max_n))
    density = draw(st.floats(0.05, 1.0))
    cells = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(-bound, bound)),
                          min_size=n * n, max_size=n * n))
    return [[v if u < density else 0 for u, v in cells[i * n:(i + 1) * n]]
            for i in range(n)]


def permutation_sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrix())
def test_det_exact_matches_bareiss_on_sparse_integer_matrices(rows):
    assert det_exact(nonzero_rows(rows)) == bareiss_det_int(rows)


@settings(max_examples=100, deadline=None)
@given(sparse_int_matrix(max_n=5), st.lists(st.integers(1, 7), min_size=25, max_size=25))
def test_det_exact_matches_laplace_on_sparse_rational_matrices(rows, dens):
    n = len(rows)
    m = [[Fraction(rows[i][j], dens[i * n + j]) for j in range(n)] for i in range(n)]
    assert det_exact(nonzero_rows(m)) == laplace_det(m)


@settings(max_examples=60, deadline=None)
@given(sparse_int_matrix(max_n=7), st.data())
def test_det_exact_is_zero_on_singular_matrices(rows, data):
    n = len(rows)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    repeated = [row[:] for row in rows]
    repeated[j] = repeated[i][:]
    if i != j:
        assert det_exact(nonzero_rows(repeated)) == 0
    zero_col = [row[:j] + [0] + row[j + 1:] for row in rows]
    assert det_exact(nonzero_rows(zero_col)) == 0
    if n >= 3 and i != j:
        # a combination of two other rows: no row or column is zero or
        # repeated, so the zero appears only when the elimination cancels
        k = next(k for k in range(n) if k not in (i, j))
        a, b = data.draw(st.integers(1, 5)), data.draw(st.integers(-5, -1))
        combo = [row[:] for row in rows]
        combo[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        assert det_exact(nonzero_rows(combo)) == 0 == bareiss_det_int(combo)


def test_det_exact_cancellation_to_zero():
    # rows 0, 1 are independent and row 2 = row 0 + row 1: every entry and
    # every row is nonzero, and the last pivot cancels to an exact 0
    m = frac_matrix([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    assert det_exact(nonzero_rows(m)) == 0
    assert _pivots(nonzero_rows(m)) is None
    assert fraction_pivots(m) is None


@settings(max_examples=100, deadline=None)
@given(sparse_int_matrix())
def test_det_exact_with_a_zero_diagonal(rows):
    for i in range(len(rows)):
        rows[i][i] = 0
    assert det_exact(nonzero_rows(rows)) == bareiss_det_int(rows)


@settings(max_examples=100, deadline=None)
@given(sparse_int_matrix(), st.randoms(use_true_random=False))
def test_det_exact_under_row_and_column_permutations(rows, rng):
    n = len(rows)
    p = list(range(n))
    q = list(range(n))
    rng.shuffle(p)
    rng.shuffle(q)
    paq = [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]
    expected = permutation_sign(p) * permutation_sign(q) * det_exact(nonzero_rows(rows))
    assert det_exact(nonzero_rows(paq)) == expected


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrix(), st.lists(st.integers(1, 7), min_size=64, max_size=64),
       st.lists(st.sampled_from([1, 2, 6, 10, 30]), min_size=8, max_size=8))
def test_pivots_match_the_fraction_reference_on_sparse_rational_matrices(
        rows, dens, row_factors):
    # row factors give rows a common factor, so the setup divides out a content
    n = len(rows)
    m = [[Fraction(rows[i][j] * row_factors[i], dens[i * n + j]) for j in range(n)]
         for i in range(n)]
    assert _pivots(nonzero_rows(m)) == fraction_pivots(m)


@settings(max_examples=100, deadline=None)
@given(sparse_int_matrix(max_n=7), st.data())
def test_pivots_match_the_fraction_reference_on_singular_matrices(rows, data):
    n = len(rows)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    dens = data.draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    repeated = [row[:] for row in rows]
    repeated[j] = repeated[i][:]
    zero_col = [row[:j] + [0] + row[j + 1:] for row in rows]
    cases = [repeated, zero_col]
    if n >= 3 and i != j:
        # a combination of two other rows cancels to 0 during the elimination
        k = next(k for k in range(n) if k not in (i, j))
        a, b = data.draw(st.integers(1, 5)), data.draw(st.integers(-5, -1))
        combo = [row[:] for row in rows]
        combo[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        cases.append(combo)
    for case in cases:
        m = [[Fraction(x, dens[c]) for c, x in enumerate(row)] for row in case]
        assert _pivots(nonzero_rows(m)) == fraction_pivots(m)


def test_pivots_divide_out_row_contents_and_pivot_gcds():
    # Column 2 first: its three rows tie at 3 nonzeros, so row 0 pivots with
    # 1.  Row 1 becomes (6, 4) - 9 (4, 1) -> (-30, -5), content 5, scale 5.
    # Row 2 is cleared to (3, 2, 6) with scale 1/6 and becomes
    # (3, 2) - 6 (4, 1) -> (-21, -4).  Column 1: rows 1 and 2 tie at 2, so
    # row 1 pivots with 5 * -1 = -5, and row 2 becomes
    # -1 * -21 - (-4) * -6 -> (-3), content 3, scale 1/6 * 3 / -1 = -1/2:
    # the last pivot is -1/2 * -1 = 1/2.
    m = [[Fraction(4), Fraction(1), Fraction(1)],
         [Fraction(6), Fraction(4), Fraction(9)],
         [Fraction(1, 2), Fraction(1, 3), Fraction(1)]]
    expected = [(0, 2, Fraction(1)), (1, 1, Fraction(-5)), (2, 0, Fraction(1, 2))]
    assert _pivots(nonzero_rows(m)) == fraction_pivots(m) == expected
    assert det_exact(nonzero_rows(m)) == laplace_det(m) == Fraction(5, 2)
    # negative pivots and a common factor of every row
    neg = [[-x * 6 for x in row] for row in m]
    assert _pivots(nonzero_rows(neg)) == fraction_pivots(neg)
    assert det_exact(nonzero_rows(neg)) == (-6) ** 3 * Fraction(5, 2)
    # Pivot 4 at (0, 1) meets a = 6 in row 1: gcd(6, 4) = 2, so row 1
    # becomes 2 (3) - 3 (1) -> (3), content 3, scale 3/2.
    m = frac_matrix([[1, 4], [3, 6]])
    expected = [(0, 1, Fraction(4)), (1, 0, Fraction(3, 2))]
    assert _pivots(nonzero_rows(m)) == fraction_pivots(m) == expected
    assert det_exact(nonzero_rows(m)) == -6


def test_pivots_take_columns_in_descending_order_and_the_sparsest_row():
    # an anti-diagonal matrix: each column has one row
    n = 5
    anti = frac_matrix([[int(i + j == n - 1) for j in range(n)] for i in range(n)])
    assert ([(r, c) for r, c, _ in _pivots(nonzero_rows(anti))]
            == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
    assert det_exact(nonzero_rows(anti)) == permutation_sign(list(range(n - 1, -1, -1)))
    # all-ones 2x2 block plus a singleton: the singleton's column 2 goes
    # first, then the block's rows tie in column 1 and the lowest goes
    m = frac_matrix([[1, 1, 0], [1, 2, 0], [0, 0, 3]])
    assert [(r, c) for r, c, _ in _pivots(nonzero_rows(m))] == [(2, 2), (0, 1), (1, 0)]
    assert det_exact(nonzero_rows(m)) == 3
    # column 2's lowest live row 0 has 3 nonzeros and row 1 has 1, so row 1
    # pivots; then row 2 (1 nonzero) beats row 0 (2) in column 1
    m = frac_matrix([[1, 1, 1], [0, 0, 2], [0, 3, 0]])
    assert [(r, c) for r, c, _ in _pivots(nonzero_rows(m))] == [(1, 2), (2, 1), (0, 0)]
    assert _pivots(nonzero_rows(m)) == fraction_pivots(m)
    assert det_exact(nonzero_rows(m)) == laplace_det(m) == -6


def test_solve_and_inverse():
    a = frac_matrix([[2, 1], [1, 3]])
    inv = solve_exact(a, identity(2))
    assert mat_mul(a, inv) == frac_matrix([[1, 0], [0, 1]])
    x = solve_exact(a, [[Fraction(1)], [Fraction(0)]])
    assert mat_mul(a, x) == [[Fraction(1)], [Fraction(0)]]
    with pytest.raises(ValueError):
        solve_exact(frac_matrix([[1, 1], [1, 1]]), [[Fraction(1)], [Fraction(1)]])


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrix(max_n=6, bound=5), st.data())
def test_row_reduction_solves_exactly_when_the_determinant_is_nonzero(rows, data):
    # solve_exact and rational_kernel share one row reduction
    a = frac_matrix(rows)
    n = len(rows)
    x = frac_matrix(data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                                       min_size=n, max_size=n)))
    if det_exact(nonzero_rows(a)) == 0:
        with pytest.raises(ValueError):
            solve_exact(a, mat_mul(a, x))
        with pytest.raises(ValueError):
            solve_exact(a, identity(n))
    else:
        assert solve_exact(a, mat_mul(a, x)) == x
        assert mat_mul(a, solve_exact(a, identity(n))) == identity(n)
    # integer entries of at most 5 on at most 6 rows: every nonzero singular
    # value is far above matrix_rank's tolerance
    rank = int(np.linalg.matrix_rank(np.array(rows, dtype=float)))
    basis = rational_kernel(a)
    assert len(basis) == n - rank
    for vec in basis:
        assert all(v == 0 for (v,) in mat_mul(a, [[v] for v in vec]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=5), st.sampled_from([[3], [-2, 0, 1], [1, 1, 1]]),
       st.integers(0, 7))
def test_integer_roots_deflate_every_integer_root(roots, cofactor, bound):
    # cofactors without integer roots: 3, x^2 - 2, x^2 + x + 1
    coeffs = list(cofactor)
    for r in roots:  # times (x - r), lowest degree first
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    assert integer_roots(coeffs, 6) == sorted(roots)
    assert integer_roots(coeffs, bound) == sorted(r for r in roots if abs(r) <= bound)


def test_rational_kernel():
    a = frac_matrix([[1, 2, 3], [2, 4, 6]])
    basis = rational_kernel(a)
    assert len(basis) == 2
    for vec in basis:
        for row in a:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def _form(rows):
    """A surface whose intersection form is ``rows``, for its ``det``."""
    n = len(rows)
    return BlowupSurface(k=n - 1, incidences=(False,) * (n - 1), basis="standard",
                         intersection=tuple(tuple(r) for r in rows), canonical=(0,) * n)


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrix())
def test_charpoly_matches_the_fraction_recurrence(rows):
    cp = charpoly(rows)
    assert cp == fraction_charpoly(rows)
    assert all(type(c) is int for c in cp)
    assert _form(rows).det() == bareiss_det_int(rows)


def test_charpoly_of_the_builtin_pullbacks_and_forms():
    for row in SURFACES.values():
        matrices = [row.push, row.pull, row.intersection]
        matrices += [m for m in (row.involution, row.second_push, row.second_pull) if m]
        for m in matrices:
            assert charpoly(m) == fraction_charpoly(m)
        assert _form(row.intersection).det() == bareiss_det_int(row.intersection)


def test_charpoly_refuses_a_matrix_off_the_integers():
    with pytest.raises(ArithmeticError):
        charpoly([[Fraction(1, 2)]])


def test_charpoly_and_integer_roots():
    a = frac_matrix([[2, 0], [0, 3]])
    cp = charpoly(a)  # (x-2)(x-3) = 6 - 5x + x^2
    assert cp == [Fraction(6), Fraction(-5), Fraction(1)]
    assert integer_roots(cp, 3) == [2, 3]
    assert integer_roots(cp, 2) == [2]
    jordan = frac_matrix([[1, 1], [0, 1]])
    assert integer_roots(charpoly(jordan), 2) == [1, 1]
