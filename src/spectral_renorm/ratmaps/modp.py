"""Polynomial arithmetic over F_p for primes p below 2^31.

Every routine takes and returns coefficient vectors that run from the
lowest degree up and hold residues in [0, p) as numpy int64; reducing
integers mod p is the caller's business.  No int64 operation overflows:
products split one factor into 16-bit halves (``mul``), division updates
f - c·g with 0 <= c, g < p < 2^31 stay above -2^62, and sums and scalings of
residues stay below 2^62.

``FormModP``, the package's one binary-form type, is a form in (s, t) over
F_p with the operations that ``MultiPoly.subs`` uses, so restricting a map
to a line mod p is a substitution like any other.  ``cancel_common_factor``
divides a triple of forms by their gcd: the powers of s and t it reads off
the forms' zero runs, and the rest is the ``gcd`` of the cores, each divided
out by ``_divmod``.  Degree growth along lines (``degrees``) runs on these,
and so does the coprimality certificate of the builtin maps
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


def _divmod(f, g, p: int) -> tuple:
    """Quotient and remainder of the residue vectors f / g mod p, g's last
    coefficient nonzero; the remainder has no zero top coefficients, so it
    is empty when g divides f."""
    dg = len(g) - 1
    inv = pow(int(g[-1]), -1, p)
    quotient = np.zeros(max(len(f) - dg, 0), dtype=np.int64)
    f = f.copy()
    top = len(f)
    while top - 1 >= dg:
        lead = int(f[top - 1])
        if lead:
            factor = lead * inv % p
            shift = top - 1 - dg
            f[shift: top] = (f[shift: top] - factor * g) % p
            quotient[shift] = factor
        top -= 1
        while top and not f[top - 1]:
            top -= 1
    return quotient, f[:top]


def gcd(f, g, p: int) -> np.ndarray:
    """Monic gcd mod p of two residue vectors, each empty or with its last
    coefficient nonzero, not both empty."""
    while len(g):
        f, g = g, _divmod(f, g, p)[1]
    return f * pow(int(f[-1]), -1, p) % p


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
        """The unit form ``f ** 0``, the one power ``MultiPoly.subs`` asks
        for: it builds the others as products."""
        if n != 0:
            raise ValueError("a form mod p has only the power 0")
        return FormModP([1], 0, self.p)

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

    The gcd is t^a s^b g with g prime to s and t: a is the fewest leading
    and b the fewest trailing zero coefficients of a nonzero form, and g is
    the ``gcd`` of the cores, the parts between each form's zero runs.  So
    each form drops a leading and b trailing zeros, and only its core is
    divided by g.  A division that leaves a remainder raises
    ``ArithmeticError``: g divides every core, so that is a defect.
    """
    p = forms[0].p
    spans = {}  # form index -> (start, end) of its core
    for i, f in enumerate(forms):
        if not f.is_zero():
            nonzero = np.flatnonzero(f.coeffs)
            spans[i] = (int(nonzero[0]), int(nonzero[-1]) + 1)
    t_ord = min(start for start, _ in spans.values())
    s_ord = min(len(forms[i].coeffs) - end for i, (_, end) in spans.items())
    cores = [forms[i].coeffs[start: end] for i, (start, end) in spans.items()]
    g = cores[0]
    for core in cores[1:]:
        g = gcd(g, core, p)
        if len(g) == 1:
            break
    drop = t_ord + len(g) - 1 + s_ord
    if drop == 0:
        return list(forms)
    out = list(forms)
    for (i, (start, end)), quotient in zip(spans.items(), cores):
        if len(g) > 1:  # a constant gcd would only rescale the triple
            quotient, remainder = _divmod(quotient, g, p)
            if len(remainder):
                raise ArithmeticError("the gcd mod p leaves a remainder")
        f = forms[i]
        out[i] = FormModP(np.pad(quotient, (start - t_ord, len(f.coeffs) - end - s_ord)),
                          f.degree - drop, p)
    return out
