"""Polynomial arithmetic over F_p for primes p below 2^31.

Coefficient vectors run from the lowest degree up and hold residues in
[0, p) as numpy int64, and no int64 operation overflows: products split
one factor into 16-bit halves (``mul``), division updates f - c·g with
0 <= c, g < p < 2^31 stay above -2^62, and sums and scalings of residues
stay below 2^62.

``FormModP``, the package's one binary-form type, is a form in (s, t) over
F_p with the operations that ``MultiPoly.subs`` uses, so restricting a map
to a line mod p is a substitution like any other.  ``cancel_common_factor``
divides a triple of forms by their gcd (``_common_factor``: the powers of s
and t, then ``gcd`` of the cores).  Degree growth along lines (``degrees``)
runs on these, and so does the coprimality certificate of the builtin maps
(``verification``).  The exact integer forms and their PRS gcd are the
tests' oracle (``tests/exact_reference.py``).

The prime table (``primes``) is built on first use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_PRIMES: list = []


def primes(count: int) -> tuple:
    """The ``count`` largest primes below 2^31, largest first."""
    n = _PRIMES[-1] - 2 if _PRIMES else 2 ** 31 - 1
    while len(_PRIMES) < count:
        if _is_prime(n):
            _PRIMES.append(n)
        n -= 2
    return tuple(_PRIMES[:count])


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


MUL_MAX_SHORTER = 2 ** 16  # the shorter factor of ``mul`` has at most this many coefficients


def mul(a, b, p: int) -> np.ndarray:
    """Product of residue vectors mod p, exact in int64.

    b is split into 16-bit halves, each convolved with a: a term a_i·b_j of
    either convolution is below 2^31·2^16 = 2^47, and a coefficient sums at
    most ``MUL_MAX_SHORTER`` = 2^16 terms, so it stays below 2^63.
    """
    if min(len(a), len(b)) > MUL_MAX_SHORTER:
        raise OverflowError(f"factors longer than {MUL_MAX_SHORTER} could overflow int64")
    low = np.convolve(a, b & 0xFFFF) % p
    high = np.convolve(a, b >> 16) % p
    return (low + (high << 16)) % p


def _rem(f, g, p: int, quotient: list | None = None):
    """Remainder of numpy int64 coefficient vectors mod p; the quotient's
    coefficients go into ``quotient`` (of length len(f) - len(g) + 1) when
    it is given."""
    dg = len(g) - 1
    inv = pow(int(g[-1]), -1, p)
    f = f.copy()
    top = len(f)
    while top - 1 >= dg:
        lead = int(f[top - 1])
        if lead:
            factor = lead * inv % p
            shift = top - 1 - dg
            f[shift: top] = (f[shift: top] - factor * g) % p
            if quotient is not None:
                quotient[shift] = factor
        top -= 1
        while top and not f[top - 1]:
            top -= 1
    return f[:top]


def gcd(f: Sequence[int], g: Sequence[int], p: int) -> list:
    """Monic gcd mod p of two integer coefficient lists."""
    a = np.array([c % p for c in f], dtype=np.int64)
    b = np.array([c % p for c in g], dtype=np.int64)
    a = a[: _top(a)]
    b = b[: _top(b)]
    while len(b):
        a, b = b, _rem(a, b, p)
    inv = pow(int(a[-1]), -1, p)
    return [int(c) * inv % p for c in a]


def _top(arr) -> int:
    n = len(arr)
    while n and not arr[n - 1]:
        n -= 1
    return n


def divexact(f, g, p: int) -> np.ndarray:
    """Quotient f / g of residue vectors mod p (g's last coefficient
    nonzero); raises ``ValueError`` when g does not divide f."""
    quotient = [0] * (len(f) - len(g) + 1)
    if len(quotient) < 1 or len(_rem(np.array(f, dtype=np.int64),
                                     np.array(g, dtype=np.int64), p, quotient)):
        raise ValueError("not an exact polynomial division mod p")
    return np.array(quotient, dtype=np.int64)


class FormModP:
    """Homogeneous form in (s, t) over F_p.

    ``coeffs[k]`` is the residue of the coefficient of s^(degree-k) t^k, an
    int64 vector.  The zero form has ``degree == -1`` and no coefficients.
    Products with forms go through ``mul``; a scalar (an int or a
    ``Fraction`` whose denominator p does not divide) multiplies every
    coefficient.
    """

    __slots__ = ("p", "degree", "coeffs")

    def __init__(self, coeffs, degree: int, p: int):
        self.p = p
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if np.count_nonzero(coeffs):
            self.degree = degree
            self.coeffs = coeffs
        else:
            self.degree = -1
            self.coeffs = coeffs[:0]

    def is_zero(self) -> bool:
        return self.degree < 0

    def __mul__(self, other) -> "FormModP":
        p = self.p
        if isinstance(other, FormModP):
            if self.is_zero() or other.is_zero():
                return FormModP([], -1, p)
            return FormModP(mul(self.coeffs, other.coeffs, p), self.degree + other.degree, p)
        k = other.numerator * pow(other.denominator, -1, p) % p
        return self if k == 1 else FormModP(self.coeffs * k % p, self.degree, p)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FormModP":
        result = FormModP([1], 0, self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __add__(self, other: "FormModP") -> "FormModP":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return FormModP((self.coeffs + other.coeffs) % self.p, self.degree, self.p)


def cancel_common_factor(forms: Sequence[FormModP]) -> list:
    """The forms divided by the gcd of the nonzero ones (not all zero).

    The gcd is t^a s^b g with g prime to s and t (``_common_factor``),
    so each form drops a leading and b trailing zero coefficients, and only
    its core, the part between its own zero runs, is divided by g.
    """
    p = forms[0].p
    t_ord, core, s_ord = _common_factor([f.coeffs for f in forms if not f.is_zero()],
                                        lambda a, b: gcd(a, b, p))
    drop = t_ord + len(core) - 1 + s_ord
    if drop == 0:
        return list(forms)
    out = []
    for f in forms:
        if f.is_zero():
            out.append(f)
            continue
        lead, trail = _leading_zeros(f.coeffs), _trailing_zeros(f.coeffs)
        quotient = f.coeffs[lead: len(f.coeffs) - trail]
        if len(core) > 1:  # a constant core would only rescale the triple
            quotient = divexact(quotient, core, p)
        out.append(FormModP(np.pad(quotient, (lead - t_ord, trail - s_ord)), f.degree - drop, p))
    return out


def _common_factor(coeff_lists: Sequence, core_gcd) -> tuple:
    """The common factor t^a s^b g of nonzero binary forms, given by their
    coefficient lists, as (a, g's coefficients, b).

    Factors of t and s correspond to leading/trailing zero coefficients; g
    is the univariate ``core_gcd`` of the cores, the parts between each
    list's zero runs.
    """
    t_ord = min(_leading_zeros(c) for c in coeff_lists)
    s_ord = min(_trailing_zeros(c) for c in coeff_lists)
    cores = [c[_leading_zeros(c): len(c) - _trailing_zeros(c)] for c in coeff_lists]
    g = cores[0]
    for core in cores[1:]:
        g = core_gcd(g, core)
        if len(g) == 1:
            g = [1]
            break
    return t_ord, list(g), s_ord


def _leading_zeros(coeffs: Sequence[int]) -> int:
    n = 0
    for c in coeffs:
        if c != 0:
            break
        n += 1
    return n


def _trailing_zeros(coeffs: Sequence[int]) -> int:
    n = 0
    for c in reversed(coeffs):
        if c != 0:
            break
        n += 1
    return n
