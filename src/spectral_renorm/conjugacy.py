"""Symbolic (semi-)conjugacy identities and fiber-coordinate checks.

Identities between compositions of rational expressions are checked exactly
by cross-multiplication of ``num/den`` pairs of sparse polynomials.  The
square root s = sqrt(eta^2 - 1) that appears in the fiber coordinates of the
hyperbola pencil is no extension to carry along: the conic s^2 = eta^2 - 1
is rational, eta = (t^2 + 1)/(2t) and s = (t^2 - 1)/(2t), so the fiber
identities are identities in Q(t, z).  Any consistent numeric determination
of s satisfies them too, which is what the floating-point spot checks
exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from spectral_renorm.ratmaps.maps import builtin_map
from spectral_renorm.ratmaps.poly import MultiPoly

# ---------------------------------------------------------------------------
# Rational-function pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction2:
    """num/den pair of polynomials in two affine variables (not reduced;
    equality is tested by cross-multiplication)."""

    num: MultiPoly
    den: MultiPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RationalFunction2":
        return cls(p, MultiPoly.constant(p.arity, 1))

    @classmethod
    def const(cls, arity: int, v) -> "RationalFunction2":
        return cls(MultiPoly.constant(arity, Fraction(v)), MultiPoly.constant(arity, 1))

    def __add__(self, other):
        other = _coerce_rf(other, self.num.arity)
        return RationalFunction2(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction2(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce_rf(other, self.num.arity))

    def __rsub__(self, other):
        return _coerce_rf(other, self.num.arity) - self

    def __mul__(self, other):
        other = _coerce_rf(other, self.num.arity)
        return RationalFunction2(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other, self.num.arity)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction2(self.num * other.den, self.den * other.num)

    def equals(self, other) -> bool:
        other = _coerce_rf(other, self.num.arity)
        return (self.num * other.den - other.num * self.den).is_zero()

    def eval(self, values):
        return self.num.eval(values) / self.den.eval(values)


def _coerce_rf(v, arity) -> RationalFunction2:
    if isinstance(v, RationalFunction2):
        return v
    if isinstance(v, MultiPoly):
        return RationalFunction2.from_poly(v)
    return RationalFunction2.const(arity, v)


def compose_rf(expr: RationalFunction2, args: Sequence[RationalFunction2]) -> RationalFunction2:
    """Substitute rational functions for the variables of ``expr``.

    A polynomial p of degree d_i in x_i becomes P(x, w) = p(x/w)·Π w_i^d_i,
    homogenized in each variable separately, so p(a/b) is P(a, b) over
    Π b_i^d_i, and both go through ``MultiPoly.subs`` with the values
    (a_1..a_n, b_1..b_n).
    """
    arity = expr.num.arity
    if len(args) != arity:
        raise ValueError("wrong number of arguments")
    values = [a.num for a in args] + [a.den for a in args]

    def subs_rf(p: MultiPoly) -> RationalFunction2:
        degs = [max(p.degree_in(i), 0) for i in range(arity)]
        hom = {expo + tuple(d - e for d, e in zip(degs, expo)): c for expo, c in p.terms.items()}
        den = {(0,) * arity + tuple(degs): 1}
        return RationalFunction2(MultiPoly(2 * arity, hom).subs(values),
                                 MultiPoly(2 * arity, den).subs(values))

    top = subs_rf(expr.num)
    bottom = subs_rf(expr.den)
    if bottom.num.is_zero():
        raise ZeroDivisionError("denominator vanishes identically under composition")
    return top / bottom


def verify_identity(lhs: RationalFunction2 | Sequence, rhs: RationalFunction2 | Sequence) -> bool:
    """Exact equality of rational expressions (componentwise for tuples)."""
    if isinstance(lhs, RationalFunction2):
        lhs, rhs = (lhs,), (rhs,)
    if len(lhs) != len(rhs):
        raise ValueError("component count mismatch")
    return all(l.equals(r) for l, r in zip(lhs, rhs))


# ---------------------------------------------------------------------------
# Builtin expressions
# ---------------------------------------------------------------------------


def _xy():
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def _rf(num: MultiPoly, den: MultiPoly | None = None) -> RationalFunction2:
    if den is None:
        return RationalFunction2.from_poly(num)
    return RationalFunction2(num, den)


def map_affine(name: str) -> tuple:
    """A builtin plane map as a pair of affine rational functions."""
    m = builtin_map(name)
    x, y = _xy()
    one = MultiPoly.constant(2, 1)
    subs = [x, y, one]
    p0, p1, p2 = (c.subs(subs) for c in m.components)
    return (_rf(p0, p2), _rf(p1, p2))


def grig_invariant() -> RationalFunction2:
    """The fiber coordinate eta = (4 - lam^2 + mu^2) / (4 mu)."""
    lam, mu = _xy()
    return _rf(4 - lam * lam + mu * mu, 4 * mu)


def grig_semiconjugator() -> RationalFunction2:
    """theta = (4 - mu^2 + lam^2) / (4 lam), intertwining with 2 z^2 - 1."""
    lam, mu = _xy()
    return _rf(4 - mu * mu + lam * lam, 4 * lam)


def chebyshev_rf() -> RationalFunction2:
    z = MultiPoly.variable(1, 0)
    return RationalFunction2(2 * z * z - 1, MultiPoly.constant(1, 1))


def square_rf() -> RationalFunction2:
    z = MultiPoly.variable(1, 0)
    return RationalFunction2(z * z, MultiPoly.constant(1, 1))


def conjugacy_checks() -> dict:
    """All builtin conjugacy identities, each verified exactly."""
    results = {}

    f = map_affine("R_G")
    phi, psi = grig_invariant(), grig_semiconjugator()
    results["grig_phi_invariant"] = compose_rf(phi, f).equals(phi)
    results["grig_psi_chebyshev"] = compose_rf(psi, f).equals(
        compose_rf(chebyshev_rf(), (psi,)))

    f = map_affine("R_L")
    lam, mu = _xy()
    alpha = _rf(lam + mu)
    beta = _rf(lam - mu)
    lhs = (compose_rf(alpha, f), compose_rf(beta, f))
    skew_second = (alpha * beta - 4) / beta
    results["lamplighter_skew_conjugation"] = verify_identity(lhs, (alpha, skew_second))

    f = map_affine("R_H")
    x, y = _xy()
    pi1 = _rf(x * x - 1 - x * y - 2 * y * y, y)
    pi2 = _rf((1 + x - 2 * y) * (1 + x + y), 2 * y)
    lhs = (compose_rf(pi1, f), compose_rf(pi2, f))
    base = compose_rf(_rf(x * x - x - 3), (pi1, _rf(y)))
    mult = compose_rf(_rf((x - 1) * (x + 2), x + 3), (pi1, _rf(y)))
    results["hanoi_skew_conjugation"] = verify_identity(lhs, (base, mult * pi2))

    return results


def chebyshev_semiconj_check() -> dict:
    """Pin the one-dimensional normalization intertwined by the degree-2
    semi-conjugator: 2z^2 - 1 holds, z^2 does not."""
    f = map_affine("R_G")
    psi = grig_semiconjugator()
    lhs = compose_rf(psi, f)
    report = {
        "2z^2-1": lhs.equals(compose_rf(chebyshev_rf(), (psi,))),
        "z^2": lhs.equals(compose_rf(square_rf(), (psi,))),
    }
    report["normalization"] = "2z^2-1" if report["2z^2-1"] else "undetermined"
    return report


# ---------------------------------------------------------------------------
# Fibers of eta through the rational parametrization of s^2 = eta^2 - 1
# ---------------------------------------------------------------------------


def fiber_base() -> tuple:
    """(eta, s, z) in Q(t, z), with eta = (t^2 + 1)/(2t) and
    s = (t^2 - 1)/(2t), so that s^2 = eta^2 - 1.

    t -> eta + s is an isomorphism of Q(t, z) onto the field
    Q(eta, z)[s]/(s^2 - eta^2 + 1), with eta - s = 1/t, so an identity in
    eta, s and z holds there exactly when it holds here.
    """
    t = MultiPoly.variable(2, 0)
    return _rf(t * t + 1, 2 * t), _rf(t * t - 1, 2 * t), _rf(MultiPoly.variable(2, 1))


def _fiber_inverse_den(eta, s, z):
    return 1 + z * z + eta * s * (z * z - 1) - eta * eta * (1 + z * z)


def fiber_inverse(eta, s, z) -> tuple:
    """(lam, mu) at z on the fiber of eta, with s^2 = eta^2 - 1, in any field:
    Q(t, z) at ``fiber_base()``, complex numbers in the spot check."""
    d = _fiber_inverse_den(eta, s, z)
    return (-4) * (eta * eta - 1) * z / d, 2 * s * (z - 1) * (z + 1) / d


def _fiber_coordinate_den(lam, mu, eta, s):
    return (-2) + lam + eta * mu - mu * s


def fiber_coordinate(lam, mu, eta, s):
    """Slope coordinate on the fiber over eta, in any field: the
    Moebius-normalized slope of the line through (lam, mu) and (2, 0)."""
    return (2 - lam - eta * mu - mu * s) / _fiber_coordinate_den(lam, mu, eta, s)


def fiber_inverse_symbolic() -> tuple:
    """(lam(z), mu(z)) parametrizing the fiber of the invariant eta, as
    rational functions of (t, z)."""
    return fiber_inverse(*fiber_base())


def fiber_coordinate_symbolic(lam: RationalFunction2, mu: RationalFunction2) -> RationalFunction2:
    """``fiber_coordinate`` over the fibers of eta, as a rational function
    of (t, z)."""
    eta, s, _ = fiber_base()
    return fiber_coordinate(lam, mu, eta, s)


def fiber_checks_symbolic() -> dict:
    """Exact fiber-coordinate identities over the fibers of eta:

    - the fiber return map is z -> z^2;
    - the semi-conjugator composed with the fiber parametrization is the
      average of z and 1/z.
    """
    _, _, z = fiber_base()
    lam, mu = fiber_inverse_symbolic()
    image = [compose_rf(c, (lam, mu)) for c in map_affine("R_G")]
    psi = compose_rf(grig_semiconjugator(), (lam, mu))
    return {
        "fiber_return_is_square": fiber_coordinate_symbolic(*image).equals(z * z),
        "psi_is_zhukovsky": psi.equals((z * z + 1) / (2 * z)),
    }


def fiber_conjugation_check(n_samples: int = 100, tol: float = 1e-9, seed: int = 5) -> dict:
    """Floating spot check of the fiber identities at random points.

    Uses one consistent numeric square root s = sqrt(eta^2 - 1) per sample;
    the identities hold for either determination as long as it is used
    consistently, so no branch bookkeeping is needed pointwise.
    """
    rng = np.random.default_rng(seed)
    f = map_affine("R_G")
    psi = grig_semiconjugator()
    max_err = 0.0
    worst = None
    count = 0
    while count < n_samples:
        eta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(eta - 1) < 0.2 or abs(eta + 1) < 0.2 or abs(z) < 0.2 or abs(abs(z) - 1) < 1e-3:
            continue
        s = np.sqrt(complex(eta * eta - 1))
        if abs(_fiber_inverse_den(eta, s, z)) < 1e-9:
            continue
        lam, mu = fiber_inverse(eta, s, z)
        if abs(4 - mu * mu) < 1e-9 or abs(lam) < 1e-12:
            continue
        f1, f2 = (c.eval((lam, mu)) for c in f)
        if abs(_fiber_coordinate_den(f1, f2, eta, s)) < 1e-12:
            continue
        err1 = abs(fiber_coordinate(f1, f2, eta, s) - z * z)
        err2 = abs(psi.eval((lam, mu)) - 0.5 * (z + 1 / z))
        err = max(err1, err2)
        if err > max_err:
            max_err, worst = err, (eta, z)
        count += 1
    report = {"samples": n_samples, "max_error": float(max_err), "tol": tol,
              "passed": bool(max_err <= tol), "worst": repr(worst)}
    report["symbolic"] = fiber_checks_symbolic()
    return report
