"""Reference routines the tests check the package against.

``bareiss_det_int`` is dense fraction-free Bareiss elimination on an integer
matrix.  ``fraction_pivots`` is the sparse elimination in descending column
order with every entry a ``Fraction``; ``exact._pivots`` keeps integer rows
with one scale each and must return the same pivots.  ``densify``
turns ``pencils.assemble``'s rows of nonzeros into the dense matrix, and
``nonzero_rows`` a dense matrix into rows of nonzeros.
``det_symbolic`` expands polynomial determinants by cofactors, ``schur_complement`` splits a
rational matrix into blocks, ``slice_matrix`` is the sliced pencil as a
dense float matrix for the eigensolver, ``decimated_spectrum_numpy`` is
the array form of the spectral decimation, and ``compose`` and
``eval_binary_form`` compose rational maps and evaluate binary forms
directly.

``BinaryForm`` is a binary form with integer coefficients, the integer
counterpart of ``modp.FormModP``: ``MultiPoly.subs`` restricts a map to a
line with either.  ``poly_gcd_int`` is the primitive-PRS gcd of integer
polynomials (over ``_pseudo_rem``, ``_primitive_int`` and the schoolbook
``_poly_mul_int``), and ``binary_forms_gcd`` the gcd of integer forms,
with the powers of s and t read off their zero runs by ``_forms_gcd``; the
tests check the coprimality certificate of ``verification`` against it
line by line.  None of these calls the F_p layer.

``iterate_line_forms`` is the exact integer iteration of a map along a line
that ``degrees.degrees_mod_p`` runs over F_p: after each step it divides the
integer forms by their gcd (``modular_poly_gcd_int``: modular images of the
cores, ``modp.gcd`` of their ``residues``, recombined by CRT and checked by exact trial division, with the
primitive PRS as the fallback) and by their joint content.
``degrees_along_line_int`` reads its degrees.

``potential`` is the scalar form of ``ratmaps.potential.potential_grid``:
the package's telescoping loop at given points, after the exact factor test
on a rational scalar point.
"""

import math
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from spectral_renorm.exact import mat_mul, solve_exact
from spectral_renorm.pencils import builtin_scheme, pencil_terms
from spectral_renorm.ratmaps.maps import RationalMapP2, _normalize_triple
from spectral_renorm.ratmaps import modp
from spectral_renorm.ratmaps.poly import MultiPoly
from spectral_renorm.ratmaps.potential import NEG_INF, _forms, _on_factor_zero, _telescope
from spectral_renorm.spectra import (
    _CHEBYSHEV,
    _HANOI_FIBER,
    _grig_born,
    _hanoi_born,
    preimages,
    slice_point,
)


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


def fraction_pivots(matrix):
    """Pivots ``(row, col, value)`` of the sparse elimination over Q, in the
    same column order and with the same pivot rows as ``exact._pivots``, or
    ``None`` once a column empties."""
    n = len(matrix)
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in matrix]
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
        value = pivot_row.pop(c)
        pivots.append((r, c, value))
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
    return pivots


def nonzero_rows(matrix: Sequence[Sequence]) -> list:
    """The rows of a dense square matrix as ``{column: entry}`` dicts of
    nonzeros, the input of ``det_exact``; the inverse of ``densify``."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def densify(rows: Sequence[dict]) -> list:
    """The dense matrix of a square matrix given as ``{column: entry}`` dicts
    of nonzeros, its other entries the zero of the entries' type (``Fraction``
    or ``MultiPoly``)."""
    zero = 0 * next(x for row in rows for x in row.values())
    return [[row.get(j, zero) for j in range(len(rows))] for row in rows]


def det_symbolic(matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a small polynomial matrix by cofactor expansion."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    if size == 1:
        return matrix[0][0]
    arity = matrix[0][0].arity
    total = MultiPoly.zero(arity)
    for i in range(size):
        entry = matrix[i][0]
        if entry.is_zero():
            continue
        minor = [row[1:] for r, row in enumerate(matrix) if r != i]
        cof = det_symbolic(minor)
        term = entry * cof
        total = total + term if i % 2 == 0 else total - term
    return total


def mat_sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def schur_complement(matrix: Sequence[Sequence[Fraction]], split: int, which: int = 1) -> list:
    """Schur complement of a 2x2 block decomposition at row/column ``split``.

    ``which=1`` eliminates the lower-right block: S1 = A - B D^-1 C, and
    det M = det D * det S1 holds exactly.  ``which=2`` eliminates the
    upper-left block instead.

    Raises ``ValueError`` if the designated block is singular.
    """
    size = len(matrix)
    if not 0 < split < size:
        raise ValueError("split must cut the matrix into two nonempty blocks")
    a = [row[:split] for row in matrix[:split]]
    b = [row[split:] for row in matrix[:split]]
    c = [row[:split] for row in matrix[split:]]
    d = [row[split:] for row in matrix[split:]]
    if which == 1:
        x = solve_exact(d, c)  # D^-1 C
        return mat_sub(a, mat_mul(b, x))
    if which == 2:
        x = solve_exact(a, b)  # A^-1 B
        return mat_sub(d, mat_mul(c, x))
    raise ValueError("which must be 1 or 2")


def slice_matrix(group_tag: str, n: int, grig_slice: float = -1.0) -> np.ndarray:
    """Dense symmetric matrix of the sliced pencil at level n.

    This is the float instantiation of ``pencils.pencil_terms`` at
    ``spectra.slice_point``, where the spectral variable is 0.  Permutation
    terms are accumulated in place, so this is one d^n x d^n allocation.
    Its eigenvalues are the reference for ``spectra.decimated_spectrum``.
    """
    lam, mu = (Fraction(x) for x in slice_point(group_tag, grig_slice))
    scheme = builtin_scheme(group_tag)
    size = scheme.d ** n
    m = np.zeros((size, size))
    cols = np.arange(size)
    for a, b, c, rows in pencil_terms(scheme, n):
        coeff = a + b * lam + c * mu  # exact, so each term is rounded once
        if coeff:
            np.add.at(m, (np.asarray(rows), cols), float(coeff))
    return m


def decimated_spectrum_numpy(group_tag: str, n: int, grig_slice: float = -1.0):
    """``spectra.decimated_spectrum`` as numpy arrays, by the array form it
    replaced: yields the levels 1..n, each from every level's preimages by
    ``spectra.preimages`` in the order (plus, minus, born), one stable
    argsort at the end, and equal points merged into the first of their run
    with ``np.add.reduceat``."""
    lam, _ = slice_point(group_tag, grig_slice)

    def decimate(fiber, terminal, born):
        pts, mults = np.zeros(0), np.zeros(0, dtype=np.int64)
        for k in range(1, n + 1):
            lift = ~np.isin(pts, terminal)
            new = [(p, m) for p, m in born(k) if m]
            pts = np.concatenate([*preimages(fiber, pts[lift]), [p for p, _ in new]])
            mults = np.concatenate([np.tile(mults[lift], 2),
                                    np.array([m for _, m in new], dtype=np.int64)])
            yield pts, mults

    def grigorchuk(theta, mults):
        inner = np.abs(theta) != 1.0
        root = np.sqrt(4.0 + lam * lam - 4.0 * lam * theta[inner])
        return (np.concatenate([root, -root, 2.0 - lam * theta[~inner]]),
                np.concatenate([mults[inner], mults[inner], mults[~inner]]))

    def lamplighter(k):
        pts, mults = [4.0], [1]
        for q in range(2, k + 2):
            mult = ((k + 1) % q == 0) + sum(2 ** (k - 1 - j) for j in range(q - 1, k, q))
            for p in range(1, q):
                if gcd(p, q) == 1:
                    x = 4.0 * math.sin(math.pi * (q - 2 * p) / (2 * q))
                    pts.append(float(round(x)) if q <= 3 else x)
                    mults.append(mult)
        return np.array(pts), np.array(mults, dtype=np.int64)

    if group_tag == "hanoi":
        levels = decimate(_HANOI_FIBER, (3.0,), _hanoi_born)
    elif group_tag == "grigorchuk":
        levels = (grigorchuk(*level) for level in decimate(_CHEBYSHEV, (-1.0, 1.0), _grig_born))
    else:
        levels = (lamplighter(k) for k in range(1, n + 1))
    for pts, mults in levels:
        order = np.argsort(pts, kind="stable")
        pts, mults = pts[order], mults[order]
        starts = np.flatnonzero(np.concatenate(([len(pts) > 0], np.diff(pts) != 0)))
        yield pts[starts], np.add.reduceat(mults, starts)


def compose(outer: RationalMapP2, inner: RationalMapP2) -> RationalMapP2:
    """Composition outer o inner with content normalization.

    Common polynomial factors beyond content are not removed;
    ``verification.components_coprime`` detects them.
    """
    comps = _normalize_triple(tuple(c.subs(inner.components) for c in outer.components))
    return RationalMapP2(name=f"{outer.name}*{inner.name}", components=comps)


def _strip(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _primitive_int(coeffs: Sequence[int]) -> list:
    g = gcd(*coeffs)
    if g == 0:
        return []
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _poly_mul_int(a: Sequence[int], b: Sequence[int]) -> list:
    """Product of integer coefficient lists (schoolbook)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pseudo_rem(f: list, g: list) -> list:
    """Pseudo-remainder of integer polynomials, deg f >= deg g >= 0."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        df = len(f) - 1
        lead = f[-1]
        f = [c * lg for c in f]
        shift = df - dg
        for i, gi in enumerate(g):
            f[i + shift] -= lead * gi
        f = _strip(f)
    return f


def poly_gcd_int(f: Sequence[int], g: Sequence[int]) -> list:
    """Gcd of two integer polynomials (coefficient lists, lowest degree
    first), by the primitive-PRS chain on the primitive parts."""
    f = _strip(list(f))
    g = _strip(list(g))
    if not f:
        return _primitive_int(g)
    if not g:
        return _primitive_int(f)
    cf, cg = gcd(*f), gcd(*g)
    c = gcd(cf, cg)
    f = [x // cf for x in f]
    g = [x // cg for x in g]
    if len(f) < len(g):
        f, g = g, f
    result = _prs_gcd(f, g)
    return [x * c for x in result] if c > 1 else result


def _prs_gcd(f: list, g: list) -> list:
    """Primitive pseudo-remainder chain on primitive inputs."""
    while True:
        r = _pseudo_rem(f, g)
        if not r:
            break
        r = _primitive_int(r)
        f, g = g, r
    return _primitive_int(g)


class BinaryForm:
    """Homogeneous form in (s, t) with integer coefficients, the integer
    counterpart of ``modp.FormModP``.

    ``coeffs[k]`` is the coefficient of ``s^(degree-k) t^k``.  The zero form
    has ``degree == -1`` and an empty coefficient list.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, coeffs: Sequence[int], degree: int | None = None):
        coeffs = [int(c) for c in coeffs]
        if degree is None:
            degree = len(coeffs) - 1
        if degree >= 0 and len(coeffs) != degree + 1:
            raise ValueError("coefficient list does not match degree")
        if all(c == 0 for c in coeffs):
            self.degree = -1
            self.coeffs = []
        else:
            self.degree = degree
            self.coeffs = coeffs

    def is_zero(self) -> bool:
        return self.degree < 0

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other) -> "BinaryForm":
        """Product with a form, or with an integer scalar (an int or an
        integral Fraction); any other scalar raises ``ValueError``."""
        if not isinstance(other, BinaryForm):
            k = Fraction(other)
            if k.denominator != 1:
                raise ValueError(f"cannot scale an integer binary form by {other}")
            return BinaryForm([c * k.numerator for c in self.coeffs], self.degree)
        if self.is_zero() or other.is_zero():
            return BinaryForm([], -1)
        return BinaryForm(
            _strip_to_deg(_poly_mul_int(self.coeffs, other.coeffs), self.degree + other.degree),
            self.degree + other.degree,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BinaryForm":
        result = BinaryForm([1], 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return BinaryForm(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.degree
        )


def _strip_to_deg(coeffs: list, degree: int) -> list:
    coeffs = list(coeffs) + [0] * (degree + 1 - len(coeffs))
    return coeffs[: degree + 1]


def binary_forms_gcd(forms: Sequence[BinaryForm]) -> BinaryForm:
    """Gcd of binary forms of a common degree (``_forms_gcd`` with the
    primitive-PRS gcd of the cores)."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return BinaryForm([], -1)
    return _forms_gcd(forms, poly_gcd_int)


def _forms_gcd(forms: Sequence[BinaryForm], core_gcd) -> BinaryForm:
    """Gcd t^a s^b g of nonzero integer binary forms of a common degree.

    A power of t is a run of zero coefficients at the front of the list and
    a power of s one at the back, so a and b are the shortest such runs; g
    is ``core_gcd`` of the cores, what is left of each list between its runs.
    """
    fronts, backs, cores = [], [], []
    for f in forms:
        nonzero = [k for k, c in enumerate(f.coeffs) if c]
        fronts.append(nonzero[0])
        backs.append(len(f.coeffs) - 1 - nonzero[-1])
        cores.append(f.coeffs[nonzero[0]: nonzero[-1] + 1])
    g = cores[0]
    for core in cores[1:]:
        g = core_gcd(g, core)
        if len(g) == 1:
            g = [1]
            break
    return BinaryForm([0] * min(fronts) + list(g) + [0] * min(backs))


def eval_binary_form(form: BinaryForm, s, t):
    """Value of ``form`` at (s, t), term by term."""
    acc = 0
    for k, c in enumerate(form.coeffs):
        if c:
            acc += c * s ** (form.degree - k) * t ** k
    return acc


def degrees_along_line_int(map_: RationalMapP2, line: Sequence, iterations: int) -> list:
    """Degrees of the iterates restricted to a line, over the integers."""
    return [max(f.degree for f in forms if not f.is_zero())
            for forms in iterate_line_forms(map_, line, iterations)]


def iterate_line_forms(map_: RationalMapP2, line: Sequence, iterations: int) -> list:
    """The reduced integer form triples of the iterates along a line
    ``(s, t) -> (a0 s + b0 t, a1 s + b1 t, a2 s + b2 t)``."""
    forms = [BinaryForm([int(a), int(b)]) for a, b in line]
    if all(f.is_zero() for f in forms):
        raise ValueError("degenerate line")
    out = []
    for _ in range(iterations):
        forms = _reduced_step(map_, forms)
        out.append(tuple(forms))
    return out


def _reduced_step(map_: RationalMapP2, forms: list) -> list:
    forms = [c.subs(forms) for c in map_.components]
    if all(f.is_zero() for f in forms):
        raise ValueError("line collapsed into the indeterminacy locus")
    g = _forms_gcd([f for f in forms if not f.is_zero()], modular_poly_gcd_int)
    if g.degree > 0:
        forms = [f if f.is_zero() else binary_form_divexact(f, g) for f in forms]
    return _joint_primitive(forms)


def _joint_primitive(forms: list) -> list:
    """Divide the triple by the gcd of all its integer coefficients; the
    components must keep their relative scale (they are one projective
    parametrization)."""
    g = gcd(*(c for f in forms for c in f.coeffs))
    if g > 1:
        forms = [BinaryForm([c // g for c in f.coeffs], f.degree) for f in forms]
    return forms


def binary_form_divexact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    if g.is_zero():
        raise ZeroDivisionError
    if f.is_zero():
        return f
    q = poly_divexact_int(f.coeffs, g.coeffs)
    return BinaryForm(_strip_to_deg(q, f.degree - g.degree), f.degree - g.degree)


def modular_poly_gcd_int(f: Sequence[int], g: Sequence[int]) -> list:
    """``poly_gcd_int``, with inputs of more than 24 coefficients tried
    by modular images first."""
    f, g = _strip(list(f)), _strip(list(g))
    if min(len(f), len(g)) > 24:
        cf, cg = gcd(*f), gcd(*g)
        result = _try_modular_gcd([x // cf for x in f], [x // cg for x in g])
        if result is not None:
            c = gcd(cf, cg)
            return [x * c for x in result] if c > 1 else result
    return poly_gcd_int(f, g)


def residues(coeffs: Sequence[int], p: int) -> np.ndarray:
    """An integer coefficient list mod p, as the residue vector ``modp`` takes."""
    return np.array([c % p for c in coeffs], dtype=np.int64)


def _crt_list(res1: list, m1: int, res2: list, p2: int) -> list:
    # combine coefficient lists x = res1 mod m1, x = res2 mod p2
    inv = pow(m1 % p2, p2 - 2, p2)
    return [r1 + m1 * ((r2 - r1) % p2 * inv % p2) for r1, r2 in zip(res1, res2)]


def _try_modular_gcd(f: list, g: list) -> list | None:
    """Gcd of primitive integer polynomials by modular images + CRT, verified
    by exact trial division; None when the 96 primes run out.

    Images are accumulated prime by prime (discarding unlucky primes whose
    gcd degree is too high) and the trial division runs on an exponential
    schedule, since each attempt on big inputs is itself costly.
    """
    lc = gcd(abs(f[-1]), abs(g[-1]))
    best_deg = None
    combined: list = []
    modulus = 1
    next_check = 1
    used = 0
    for p in modp.primes(96):
        if f[-1] % p == 0 or g[-1] % p == 0:
            continue
        img = modp.gcd(residues(f, p), residues(g, p), p).tolist()
        deg = len(img) - 1
        if deg == 0:
            return [1]
        if best_deg is None or deg < best_deg:
            best_deg = deg
            combined = [lc * c % p for c in img]
            modulus = p
            used = 1
            next_check = 1
        elif deg == best_deg:
            combined = _crt_list(combined, modulus, [lc * c % p for c in img], p)
            modulus *= p
            used += 1
        else:
            continue  # unlucky prime
        if used < next_check:
            continue
        next_check *= 2
        lifted = [c - modulus if c > modulus // 2 else c for c in combined]
        cand = _primitive_int(lifted)
        if not cand or not cand[-1]:
            continue
        try:
            poly_divexact_int(f, cand)
            poly_divexact_int(g, cand)
            return cand
        except ValueError:
            continue
    return None


def poly_divexact_int(f: Sequence[int], g: Sequence[int]) -> list:
    """Exact division of integer polynomials; raises if not divisible."""
    f = _strip(list(f))
    g = _strip(list(g))
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return []
    q = [0] * (len(f) - len(g) + 1)
    r = f
    dg = len(g) - 1
    lg = g[-1]
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        lead = r[-1]
        if lead % lg:
            raise ValueError("not an exact polynomial division")
        qq = lead // lg
        q[dr - dg] = qq
        for i, gi in enumerate(g):
            r[i + dr - dg] -= qq * gi
        r = _strip(r)
    if r:
        raise ValueError("not an exact polynomial division")
    return q


def potential(scheme, lam, mu, n: int):
    """Value of u_n of a ``pencils.PencilScheme`` at the affine points
    (lam, mu), scalars or arrays of one shape: a float for scalars, else an
    array of that shape.

    -inf where the orbit meets a factor or seed zero, NaN where it dies.  A
    rational scalar point (int, float or Fraction) on a factor's zero set
    is detected exactly and gives -inf.
    """
    try:
        if _on_factor_zero(scheme, lam, mu):
            return NEG_INF
    except (TypeError, ValueError):  # arrays, NaN
        pass
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(mu, dtype=float))
    values, _, _ = _telescope(scheme, _forms(scheme), lam.ravel(), mu.ravel(), n)
    return float(values[0]) if lam.ndim == 0 else values.reshape(lam.shape)
