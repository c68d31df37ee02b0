"""Projective rational maps with exact integer coefficients.

A map is three coprime homogeneous forms of a common degree.  Builtins cover
the three renormalization maps, the plane involution relating the two
two-letter-tree maps, and the one-dimensional model systems extended to the
plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from spectral_renorm.ratmaps.poly import MultiPoly


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
    topological_degree: int | None = None

    def __post_init__(self):
        degs = {c.total_degree() for c in self.components}
        if len(degs) != 1:
            raise ValueError("components must share a common degree")
        if not all(c.is_homogeneous() for c in self.components):
            raise ValueError("components must be homogeneous")
        if any(v.denominator != 1 for c in self.components for v in c.terms.values()):
            raise ValueError("components must have integer coefficients")

    @property
    def degree(self) -> int:
        return self.components[0].total_degree()


def _normalize_triple(comps) -> tuple:
    """Clear denominators and remove the joint content, preserving the
    coefficient ratios between components."""
    den = lcm(*(c.denominator_lcm() for c in comps))
    out = [c * den for c in comps]
    g = gcd(*(int(v) for c in out for v in c.terms.values()))
    if g > 1:
        out = [c * Fraction(1, g) for c in out]
    return tuple(out)


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
        return _mk(name, comps, 2)
    if name == "G_G":
        four_w2_minus_mu2 = 4 * w * w - y * y
        comps = (2 * four_w2_minus_mu2 * w, -y * (x * x + four_w2_minus_mu2), x * x * w)
        return _mk(name, comps, 2)
    if name == "H_inv":
        return _mk(name, (4 * w, -2 * y, x), 1)
    if name == "R_L":
        comps = (-x * x + y * y + 2 * w * w, -2 * w * w, (y - x) * w)
        return _mk(name, comps, 1)
    if name == "R_H":
        f1 = x - w - y
        f2 = x * x - w * w + y * w - y * y
        comps = (
            x * f1 * f2 + 2 * y * y * (-x * x + x * w + y * y),
            y * y * w * (x - w + y),
            f1 * f2 * w,
        )
        return _mk(name, comps, 2)
    if name == "model_square":
        return _mk(name, (x * w, y * y, w * w), 2)
    if name == "model_twist":
        return _mk(name, (x * y, x * y - 4 * w * w, y * w), 1)
    if name == "model_skew":
        base = x * x - x * w - 3 * w * w
        comps = (base * (x + 3 * w), (x - w) * (x + 2 * w) * y, w * w * (x + 3 * w))
        return _mk(name, comps, 2)
    if name == "cheb":
        return _mk(name, (x * w, 2 * y * y - w * w, w * w), 2)
    raise ValueError(f"unknown builtin map '{name}'")


def _mk(name, comps, dtop) -> RationalMapP2:
    return RationalMapP2(name=name, components=_normalize_triple(comps), topological_degree=dtop)


# ---------------------------------------------------------------------------
# Projective equality and composition
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


def compose(forms: Sequence[MultiPoly], inner: Sequence) -> tuple:
    """``forms`` o ``inner``: ``inner`` substituted into each form, the
    forms sharing one cache of powers of ``inner``."""
    powers: list = []
    return tuple(f.subs(inner, powers) for f in forms)
