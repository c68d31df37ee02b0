"""Independent exact determinant routines that the tests check ``exact`` against.

``bareiss_det_int`` is dense fraction-free Bareiss elimination on an integer
matrix.  ``fraction_markowitz_pivots`` is the sparse Markowitz elimination
with every entry a ``Fraction``; ``exact._markowitz_pivots`` keeps integer
rows with one scale each and must return the same pivots.
"""

from fractions import Fraction


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


def fraction_markowitz_pivots(matrix):
    """Pivots ``(row, col, value)`` of the sparse elimination over Q, with the
    same Markowitz search and tie-break as ``exact._markowitz_pivots``, or
    ``None`` once a column empties."""
    n = len(matrix)
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in matrix]
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    if not all(cols):
        return None
    live_cols = list(range(n))  # ascending
    pivots = []
    for _step in range(n):
        best = None
        for c in live_cols:
            below = len(cols[c]) - 1
            for i in cols[c]:
                key = ((len(rows[i]) - 1) * below, c, i)
                if best is None or key < best:
                    best = key
            if best[0] == 0:  # later columns cannot beat it
                break
        _cost, c, r = best
        pivot_row = rows[r]
        value = pivot_row.pop(c)
        pivots.append((r, c, value))
        live_cols.remove(c)
        cols[c].discard(r)
        for j in pivot_row:
            cols[j].discard(r)
        for i in cols[c]:
            row = rows[i]
            factor = row.pop(c) / value
            for j, v in pivot_row.items():
                new = row.get(j, 0) - factor * v
                if new:
                    row[j] = new
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
        cols[c].clear()
        if any(not cols[j] for j in pivot_row):
            return None
    return pivots
