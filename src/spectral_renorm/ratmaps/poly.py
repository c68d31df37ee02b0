"""Sparse exact-rational multivariate polynomials.

``MultiPoly`` stores a mapping from exponent tuples to nonzero ``Fraction``
coefficients.  Everything downstream (pencil determinants, conjugacy
identities, contracted-curve checks) relies on this arithmetic being exact, so
no floating point enters here.

Products run on plain integers in the schoolbook double loop: ``MultiPoly``
multiplies the factors' cleared-denominator numerators, which keeps the term
order of the ``Fraction`` loop it replaced.  The float evaluator
(``potential._grid_eval``) sums terms in dict order, each term its
coefficient times the powers of a shared ``PowerTable`` (product chains
x^e = x^(e-1) * x, no ``pow``) in variable order, so a product that
reordered terms would change the last bits of float artifacts.

``MultiPoly.subs`` is the one substitution routine.  The same loop composes
with polynomials (map composition, charts, conjugacy identities), restricts to
a line when the values are binary forms over F_p (``modp.FormModP``, behind
degree growth and the coprimality certificate), and evaluates at a point when
they are scalars (``eval`` is an alias).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence


class MultiPoly:
    """Sparse polynomial in ``arity`` variables with Fraction coefficients.

    Terms map exponent tuples to nonzero coefficients; zero coefficients are
    never stored, so ``not p.terms`` is the zero test.  Products are computed
    on integers (denominators cleared, exponents packed into one int) in the
    schoolbook order, so ``terms`` comes out in the same order as the
    ``Fraction`` double loop would give; float evaluation sums in that order.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple, Fraction] | None = None):
        self.arity = arity
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    expo = tuple(int(e) for e in expo)
                    if len(expo) != arity:
                        raise ValueError(f"exponent {expo} has wrong arity (want {arity})")
                    clean[expo] = clean.get(expo, Fraction(0)) + coeff
            clean = {e: c for e, c in clean.items() if c != 0}
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: Fraction(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        expo = [0] * arity
        expo[index] = 1
        return cls(arity, {tuple(expo): Fraction(1)})

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.arity == other.arity and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.arity, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        return MultiPoly.constant(self.arity, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            val = out.get(expo, Fraction(0)) + coeff
            if val == 0:
                out.pop(expo, None)
            else:
                out[expo] = val
        return MultiPoly(self.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return MultiPoly.zero(self.arity)
            return MultiPoly(self.arity, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.arity)
        # Integer numerators over one common denominator per factor, and each
        # exponent tuple packed into one int whose base-``bases[i]`` digits are
        # the exponents: a digit of a product key is at most
        # deg_i(self) + deg_i(other), so adding keys never carries.  The loop
        # is the schoolbook one over (key, int) pairs, inserting and deleting
        # keys exactly when the Fraction loop would, so the result's terms
        # come out in the same order.
        bases = [self.degree_in(i) + other.degree_in(i) + 1 for i in range(self.arity)]
        da, db = self.denominator_lcm(), other.denominator_lcm()
        pa = self._packed(bases, da)
        pb = other._packed(bases, db)
        out: dict = {}
        for k1, c1 in pa:
            for k2, c2 in pb:
                key = k1 + k2
                val = out.get(key, 0) + c1 * c2
                if val:
                    out[key] = val
                else:
                    del out[key]
        den = da * db
        terms = {}
        for key, c in out.items():
            expo = []
            for base in bases:
                key, e = divmod(key, base)
                expo.append(e)
            terms[tuple(expo)] = Fraction(c, den)
        return MultiPoly._from_clean(self.arity, terms)

    def _packed(self, bases: Sequence[int], den: int) -> list:
        """(packed exponent, ``den``·coefficient) pairs in term order."""
        out = []
        for expo, coeff in self.terms.items():
            key = 0
            for base, e in zip(reversed(bases), reversed(expo)):
                key = key * base + e
            out.append((key, coeff.numerator * (den // coeff.denominator)))
        return out

    @classmethod
    def _from_clean(cls, arity: int, terms: dict) -> "MultiPoly":
        """Wrap terms that already hold arity-length int tuples and nonzero
        Fractions, skipping the checks of ``__init__``."""
        poly = object.__new__(cls)
        poly.arity = arity
        poly.terms = terms
        return poly

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation and substitution ---------------------------------------

    def subs(self, values: Sequence, powers: list | None = None):
        """Substitute ``values[i]`` for variable i.

        One routine for every kind of value: ``MultiPoly`` values compose,
        binary forms (``modp.FormModP``) restrict to a parametrized line,
        and scalars (Fractions, ints, floats) evaluate at a point.  The terms are summed in ``terms`` order, each as its
        coefficient times a product of cached powers of the values, so with
        ``MultiPoly`` values the result's term order is fixed by the
        operands' orders.  The cache, ``powers[i] = [v^0, v, v^2, ...]`` for
        ``v = values[i]``, grows as terms need it; polynomials substituted
        with the same values may share it by passing the same list, which
        starts as ``[]``.
        """
        if len(values) != self.arity:
            raise ValueError("wrong number of values")
        if powers is None:
            powers = []
        if not powers:
            powers.extend([v ** 0, v] for v in values)

        def power(i, e):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * values[i])
            return cache[e]

        total = None
        for expo, coeff in self.terms.items():
            term = None
            for i, e in enumerate(expo):
                if e:
                    term = power(i, e) if term is None else term * power(i, e)
            term = coeff * (power(0, 0) if term is None else term)
            total = term if total is None else total + term
        return 0 * power(0, 0) if total is None else total

    eval = subs

    # -- integer normalization ----------------------------------------------

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.terms.values()))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        names = "xyzw"[: self.arity] if self.arity <= 4 else None
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            mono = "*".join(
                (f"{names[i] if names else 'x%d' % i}" + (f"^{e}" if e > 1 else ""))
                for i, e in enumerate(expo)
                if e
            )
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(parts) + ")"
