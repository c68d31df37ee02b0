"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``Fraction``, except for ``det_exact``,
the one exact determinant, which takes each row as a ``{column: entry}`` dict
of its nonzeros, as ``pencils.assemble`` builds them, and reads the entries
(ints or ``Fraction``s) as they are.  It is sparse Gaussian elimination over
Q with the columns in descending index.  The pencils it serves are sums of a
few permutation matrices in the Schreier tree's vertex order, where this
fixed order makes little fill (a Markowitz search for pivots cost more than
it saved).  The elimination is fraction-free: each row is kept as integers
with content 1 times a scale held as an integer numerator and denominator,
and a row update cross-multiplies, divides out the row's new content and
multiplies it into the scale, so no entry and no scale is a ``Fraction`` and
none needs a gcd of its own.  A scale is reduced once, when its row becomes
a pivot.
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


def det_exact(matrix: Sequence[dict]) -> Fraction:
    """Exact determinant of a square rational matrix by sparse elimination
    over Q.

    Row i is the dict ``{column: entry}`` of its nonzeros, each entry an int
    or a ``Fraction``; the rows are not changed.  The columns are eliminated
    in descending index, each with its live row of fewest nonzeros as the
    pivot row.  The result is correct for any square matrix; only its speed
    depends on the order.  It is the sign of the row-to-column pivot
    permutation times the product of the pivots.
    """
    if len(matrix) == 0:
        return Fraction(1)
    pivots = _pivots(matrix)
    if pivots is None:
        return Fraction(0)
    det = _permutation_sign({r: c for r, c, _ in pivots})
    for _r, _c, value in pivots:
        det *= value
    return det


def _pivots(matrix: Sequence[dict]):
    """Pivots ``(row, col, value)`` of the sparse elimination of a square
    matrix given as ``{column: entry}`` dicts of nonzeros, in elimination
    order, or ``None`` once a column empties (the matrix is singular).

    The columns go in descending index, and each column's pivot is its live
    row with the fewest nonzeros, ties to the lowest row.  Entries that
    cancel to an exact 0 are deleted, so a singular matrix empties a column
    by the last step at the latest.

    Row i is stored as integers with content 1 and a scale
    ``nums[i] / dens[i]`` of two ints: its entries are the scale times the
    stored integers.  Eliminating with a pivot p cross-multiplies, row <-
    (p/g) row - (a/g) pivot_row with a the row's entry in the pivot column and
    g = gcd(a, p), then divides out the row's content c: ``nums[i]`` takes
    the factor c and ``dens[i]`` the factor p/g, unreduced.  So no entry and
    no row update makes a ``Fraction``; a pivot's value is the one reduced
    ``Fraction`` of its row's scale times p.
    """
    n = len(matrix)
    rows = []
    nums = []
    dens = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row.values()))
        ints = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        content = gcd(*ints.values())
        if content > 1:
            ints = {j: v // content for j, v in ints.items()}
        rows.append(ints)
        nums.append(content)
        dens.append(den)
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    pivots = []
    for c in range(n - 1, -1, -1):
        if not cols[c]:
            return None
        r = min(cols[c], key=lambda i: (len(rows[i]), i))
        pivot_row = rows[r]
        p = pivot_row.pop(c)
        pivots.append((r, c, Fraction(nums[r] * p, dens[r])))
        cols[c].discard(r)
        for j in pivot_row:
            cols[j].discard(r)
        for i in cols[c]:
            row = rows[i]
            a = row.pop(c)
            g0 = gcd(a, p)
            pa, aa = p // g0, a // g0
            new = [(j, pa * row.pop(j, 0) - aa * v) for j, v in pivot_row.items()]
            # A prime of pa that divided the new row would divide the whole
            # pivot row, whose content is 1; so the content divides the
            # entries left in ``row`` before they are scaled by pa.
            content = gcd(*row.values(), *(v for _j, v in new))
            if content > 1:
                for j in row:
                    row[j] = row[j] // content * pa
            elif pa != 1:
                for j in row:
                    row[j] *= pa
            for j, v in new:
                if v:
                    row[j] = v // content
                    cols[j].add(i)
                else:
                    cols[j].discard(i)
            nums[i] *= content
            dens[i] *= pa
    return pivots


def _permutation_sign(perm: dict) -> int:
    """Sign of a permutation given as a dict ``i -> perm[i]``."""
    sign = 1
    seen = set()
    for start in perm:
        if start in seen:
            continue
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _row_reduce(rows: list, ncols: int) -> list:
    """Gauss-Jordan reduction of ``rows`` in place over their first ``ncols``
    columns, each pivot the first nonzero entry at or below the current row;
    returns the pivot columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def solve_exact(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    """Solve a X = b exactly (b may have several columns).

    Raises ``ValueError`` on a singular system.
    """
    n = len(a)
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(a, b)]
    if len(_row_reduce(aug, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def mat_inverse(a: FracMatrix) -> FracMatrix:
    return solve_exact(a, identity(len(a)))


def rational_kernel(a: FracMatrix) -> list:
    """Basis of the right kernel, each vector scaled to a primitive integer
    vector with positive leading entry."""
    rows = [list(map(Fraction, row)) for row in a]
    ncols = len(rows[0]) if rows else 0
    pivots = _row_reduce(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
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


def integer_roots(coeffs: Sequence[Fraction], bound: int) -> list:
    """All integer roots (with multiplicity) of a rational polynomial that
    lie in [-bound, bound]: the divisors of the constant term up to ``bound``
    are tried, so the search takes at most ``bound`` trial divisions."""
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
    for d in range(1, min(bound, const) + 1):
        if len(core) == 1:
            break
        if const % d:
            continue
        for cand in (d, -d):
            while len(core) > 1:
                try:
                    core = poly_deflate(core, cand)
                except ValueError:  # not a root (again)
                    break
                roots.append(cand)
    return sorted(roots)


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
