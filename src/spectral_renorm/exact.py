"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``Fraction``.  Determinants go through
fraction-free Bareiss elimination on an integer rescaling of the rows, which
keeps intermediate entries at minor size instead of exploding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

FracMatrix = list  # list[list[Fraction]]


def identity(n: int) -> FracMatrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for l in range(k):
            if ai[l]:
                bl = b[l]
                oi = out[i]
                c = ai[l]
                for j in range(m):
                    if bl[j]:
                        oi[j] += c * bl[j]
    return out


def mat_sub(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a: FracMatrix) -> FracMatrix:
    return [list(col) for col in zip(*a)]


def bareiss_det_int(rows: list) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def det_exact(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix.

    Rows are rescaled to integers first; the Bareiss recurrence then never
    leaves the integers.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    scale = Fraction(1)
    int_rows = []
    for row in matrix:
        den = lcm(*(Fraction(x).denominator for x in row))
        scale *= den
        int_rows.append([int(Fraction(x) * den) for x in row])
    return Fraction(bareiss_det_int(int_rows), 1) / scale


def solve_exact(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    """Solve a X = b exactly (b may have several columns).

    Raises ``ValueError`` on a singular system.
    """
    n = len(a)
    m = len(b[0])
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n: n + m] for row in aug]


def mat_inverse(a: FracMatrix) -> FracMatrix:
    return solve_exact(a, identity(len(a)))


def rational_kernel(a: FracMatrix) -> list:
    """Basis of the right kernel, each vector scaled to a primitive integer
    vector with positive leading entry."""
    rows = [list(map(Fraction, row)) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(primitive_int_vector(vec))
    return basis


def primitive_int_vector(vec: Sequence[Fraction]) -> list:
    den = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


def charpoly(a: FracMatrix) -> list:
    """Characteristic polynomial det(x I - A) by the Faddeev-LeVerrier
    recurrence; returns coefficients [c_0, ..., c_n] lowest degree first."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        ck = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        for i in range(n):
            m[i][i] += ck
    return coeffs


def eval_poly(coeffs: Sequence[Fraction], x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def integer_roots(coeffs: Sequence[Fraction]) -> list:
    """All integer roots (with multiplicity) of a rational polynomial."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    shift = 0
    while ints[shift] == 0:
        shift += 1
    roots = [0] * shift
    core = ints[shift:]
    const = abs(core[0])
    divisors = set()
    d = 1
    while d * d <= const:
        if const % d == 0:
            divisors.update((d, -d, const // d, -(const // d)))
        d += 1
    for cand in sorted(divisors, key=abs):
        while len(core) > 1 and eval_int_poly(core, cand) == 0:
            roots.append(cand)
            core = poly_deflate(core, cand)
    return sorted(roots)


def eval_int_poly(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs: Sequence[int], root: int) -> list:
    """Divide by (x - root) via synthetic division; root must be exact."""
    n = len(coeffs) - 1
    out = [0] * n
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = coeffs[i] + root * acc
    if acc != 0:
        raise ValueError("not a root")
    return out
