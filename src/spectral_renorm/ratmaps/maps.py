"""Projective rational maps with exact integer coefficients.

A map is three coprime homogeneous forms of a common degree.  Builtins cover
the three renormalization maps, the plane involution relating the two
two-letter-tree maps, and the one-dimensional model systems extended to the
plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm, nextafter
from typing import Sequence

import numpy as np

from spectral_renorm.exact import primitive_int_vector
from spectral_renorm.ratmaps.poly import MultiPoly


class IndeterminacyError(ValueError):
    """Evaluation hit a point where all three components vanish."""


def _var(i):
    return MultiPoly.variable(3, i)


@dataclass(frozen=True)
class RationalMapP2:
    """Rational self-map of the projective plane.

    ``components`` are primitive integer homogeneous polynomials in
    (x0, x1, x2) with no common factor; ``degree`` is their common degree.
    """

    name: str
    components: tuple
    degree: int
    topological_degree: int | None = None

    def __post_init__(self):
        degs = {c.total_degree() for c in self.components}
        if len(degs) != 1:
            raise ValueError("components must share a common degree")
        if not all(c.is_homogeneous() for c in self.components):
            raise ValueError("components must be homogeneous")
        if any(v.denominator != 1 for c in self.components for v in c.terms.values()):
            raise ValueError("components must have integer coefficients")

    # -- evaluation ---------------------------------------------------------

    def eval_exact(self, point: Sequence) -> tuple:
        """Image of a projective point, as a primitive integer triple.

        Raises ``IndeterminacyError`` when the point is indeterminate.
        """
        ints = primitive_int_vector(point)
        if not any(ints):
            raise ValueError("zero vector is not a projective point")
        image = primitive_int_vector([c.eval(ints) for c in self.components])
        if not any(image):
            raise IndeterminacyError(f"{self.name} is indeterminate at {tuple(ints)}")
        return tuple(image)

    def eval_exact_affine(self, x, y):
        """Affine image of (x, y); None when the image is at infinity or the
        point is indeterminate."""
        try:
            img = self.eval_exact((Fraction(x), Fraction(y), Fraction(1)))
        except IndeterminacyError:
            return None
        if img[2] == 0:
            return None
        return (Fraction(img[0], img[2]), Fraction(img[1], img[2]))


def _normalize_triple(comps) -> tuple:
    """Clear denominators and remove the joint content, preserving the
    coefficient ratios between components."""
    den = lcm(*(c.denominator_lcm() for c in comps))
    out = [c * den for c in comps]
    g = gcd(*(int(v) for c in out for v in c.terms.values()))
    if g > 1:
        out = [c * Fraction(1, g) for c in out]
    return tuple(out)


class PowerTable(dict):
    """The powers x_i^e of one set of points, keyed by ``(i, e)`` for
    e >= 1 and computed on first use by the product chain
    x_i^e = x_i^(e-1) * x_i, the earlier power taken from the same table and
    x_i^1 being the row ``pts[i]`` itself: e - 1 rounded IEEE products, the
    same on every platform, and no ``pow``.  ``pts`` holds one coordinate
    per row (a scalar per row for one point).  Polynomials evaluated at the
    same points share one table, so each power is computed once however many
    terms and polynomials use it; points that move need a new table."""

    def __init__(self, pts):
        super().__init__()
        self.pts = pts

    def __missing__(self, key):
        i, e = key
        power = self[key] = self.pts[i] if e == 1 else self[i, e - 1] * self.pts[i]
        return power


def _grid_eval(poly: MultiPoly, powers: PowerTable):
    """Float value of ``poly`` at the points of a ``PowerTable``, summing
    terms in dict order from 0; each term is its coefficient, rounded to a
    float, times the table's powers, multiplied in variable order.  Only
    IEEE products and sums in this fixed order, so a pure-Python float loop
    in the same order gives the same bits."""
    shape = np.shape(powers.pts[0])
    total = np.zeros(shape)
    for expo, coeff in poly.terms.items():
        term = float(coeff)
        for i, e in enumerate(expo):
            if e:
                term *= powers[i, e]
        total += term
    return total


_U = Fraction(1, 2 ** 53)  # unit roundoff of IEEE double


def _gamma(k: int) -> Fraction:
    return k * _U / (1 - k * _U)


def _round_up(x: Fraction) -> float:
    return nextafter(float(x), inf)


def _error_bound(poly: MultiPoly, powers: PowerTable):
    """Bound on |``_grid_eval(poly, powers)`` - poly(p / m)| at each point,
    where ``powers.pts`` is fl(p / m): an exact point p divided by
    m = max_i |p_i| and rounded, as ``potential._telescope`` normalizes.

    With D the total degree of ``poly``, T its number of terms c_t x^(e_t)
    and u = 2^-53, each computed term is c_t (p / m)^(e_t) (1 + theta) with
    |theta| <= gamma_j = j u / (1 - j u) (Higham 2002, lemma 3.1), where j
    counts the roundings it went through: 1 for the coefficient's conversion
    to float, D for the normalization (each coordinate's quotient enters
    the monomial once per degree), sum(e_i - 1) over its variables for the
    power chain and one product per variable for the term, so 2D + 1 in
    all; the recursive sum from 0 adds at most T - 1 more.  Hence

        |value - poly(p / m)| <= gamma_k sum_t |c_t (p / m)^(e_t)|,
        k = 2D + T.

    The sum on the right is not known; it is computed as S, the same
    evaluation of sum_t |c_t| |x^(e_t)| on ``np.abs`` of the table's
    powers (rounding is symmetric in sign, so these are the moduli of the
    computed terms, each within a factor 1 - gamma_(2D+1) of the exact one, and
    their sum within 1 - gamma_(T-1)).  The bound is

        g * S + f,  g = gamma_k / ((1 - gamma_(2D+1)) (1 - gamma_(T-1)) (1 - u)^2),

    with g rounded up, where (1 - u)^2 covers the product g * S and the sum
    with f.  f covers gradual underflow, which the model above leaves out:
    each of the at most T (2D + 2) products, quotients and sums adds at most
    2^-1075 absolutely, later multiplied by at most max(1, max |c_t|) (1 + u)
    since every |x_i| <= 1, so f = (T (2D + 2) + 1) max(1, max |c_t|) 2^-1073
    rounded up keeps a factor 2 to spare and also covers the rounding of
    g * S below the normal range.  A point whose exact value is 0 has
    |value| within the bound.
    """
    deg, terms = poly.total_degree(), len(poly.terms)
    k = 2 * deg + terms
    g = _gamma(k) / ((1 - _gamma(2 * deg + 1)) * (1 - _gamma(terms - 1)) * (1 - _U) ** 2)
    cmax = max([Fraction(1)] + [abs(c) for c in poly.terms.values()])
    f = (terms * (2 * deg + 2) + 1) * cmax * Fraction(1, 2 ** 1073) / (1 - _U)
    moduli = PowerTable(np.abs(powers.pts))
    moduli.update((key, np.abs(power)) for key, power in powers.items())
    size = _grid_eval(MultiPoly(poly.arity, {e: abs(c) for e, c in poly.terms.items()}), moduli)
    return _round_up(g) * size + _round_up(f)


# ---------------------------------------------------------------------------
# Builtin maps
# ---------------------------------------------------------------------------


def builtin_map(name: str) -> RationalMapP2:
    """Construct a builtin map by name.

    R_G / G_G   renormalizations of the four-generator two-letter group
    H_inv       the plane involution with G_G = H_inv o R_G
    R_L         renormalization of the lamplighter pencil
    R_H         renormalization of the three-peg tower pencil
    model_*     plane extensions of the model systems (id x z^2, twist,
                skew product over z^2 - z - 3)
    cheb        id x (2z^2 - 1)
    """
    x, y, w = _var(0), _var(1), _var(2)
    if name == "R_G":
        four_w2_minus_mu2 = 4 * w * w - y * y
        comps = (2 * x * x * w, y * four_w2_minus_mu2 + y * x * x, w * four_w2_minus_mu2)
        return _mk(name, comps, 3, 2)
    if name == "G_G":
        four_w2_minus_mu2 = 4 * w * w - y * y
        comps = (2 * four_w2_minus_mu2 * w, -y * (x * x + four_w2_minus_mu2), x * x * w)
        return _mk(name, comps, 3, 2)
    if name == "H_inv":
        return _mk(name, (4 * w, -2 * y, x), 1, 1)
    if name == "R_L":
        comps = (-x * x + y * y + 2 * w * w, -2 * w * w, (y - x) * w)
        return _mk(name, comps, 2, 1)
    if name == "R_H":
        f1 = x - w - y
        f2 = x * x - w * w + y * w - y * y
        comps = (
            x * f1 * f2 + 2 * y * y * (-x * x + x * w + y * y),
            y * y * w * (x - w + y),
            f1 * f2 * w,
        )
        return _mk(name, comps, 4, 2)
    if name == "model_square":
        return _mk(name, (x * w, y * y, w * w), 2, 2)
    if name == "model_twist":
        return _mk(name, (x * y, x * y - 4 * w * w, y * w), 2, 1)
    if name == "model_skew":
        base = x * x - x * w - 3 * w * w
        comps = (base * (x + 3 * w), (x - w) * (x + 2 * w) * y, w * w * (x + 3 * w))
        return _mk(name, comps, 3, 2)
    if name == "cheb":
        return _mk(name, (x * w, 2 * y * y - w * w, w * w), 2, 2)
    raise ValueError(f"unknown builtin map '{name}'")


def _mk(name, comps, degree, dtop) -> RationalMapP2:
    comps = _normalize_triple(comps)
    m = RationalMapP2(name=name, components=comps, degree=degree, topological_degree=dtop)
    if m.components[0].total_degree() != degree:
        raise AssertionError(f"{name}: degree mismatch")
    return m


# ---------------------------------------------------------------------------
# Projective equality and curves
# ---------------------------------------------------------------------------


def proportional(a: Sequence, b: Sequence) -> bool:
    """Projective equality: ``a`` is not all zero and every minor
    a_i b_j - a_j b_i vanishes.

    Entries are ints, Fractions or ``MultiPoly`` (a parametrized curve
    against a point or another curve), in pairs (ratios) or triples.
    """
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return any(a) and not any(a[i] * b[j] - a[j] * b[i]
                              for i in range(len(a)) for j in range(i + 1, len(a)))


def univar(coeffs: Sequence) -> MultiPoly:
    """Univariate polynomial from ascending coefficients, e.g. [0, 1] is t."""
    return MultiPoly(1, {(k,): Fraction(c) for k, c in enumerate(coeffs) if c})
