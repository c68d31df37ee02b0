"""Blow-up chart computations for plane rational maps.

A chart parametrizes a neighbourhood of a blown-up point by (e, l), with the
exceptional divisor at e = 0.  Composing the map with the chart, cancelling
the common power of e, and restricting to e = 0 yields the image of the
exceptional divisor (a parametrized curve, or a constant point when the
divisor is collapsed).  The same stripping applied to a ratio of two
composed polynomials computes chart coordinates of the image, which is how
indeterminacy points and fiber coordinates on fixed exceptional divisors are
analyzed.

Everything here is exact; a check either holds as a polynomial identity or
fails.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from spectral_renorm.ratmaps.maps import RationalMapP2, builtin_map, proportional, univar
from spectral_renorm.ratmaps.poly import MultiPoly


def _e_order(poly: MultiPoly) -> int:
    """Order of vanishing in the first variable; large for the zero poly."""
    if poly.is_zero():
        return 1 << 30
    return min(e[0] for e in poly.terms)


def _shift_e(poly: MultiPoly, k: int) -> MultiPoly:
    if k == 0 or poly.is_zero():
        return poly
    return MultiPoly(poly.arity, {(e[0] - k,) + e[1:]: c for e, c in poly.terms.items()})


def _restrict_e0(poly: MultiPoly) -> MultiPoly:
    """Set the first variable to zero, returning a univariate polynomial in
    the second."""
    return MultiPoly(1, {(e[1],): c for e, c in poly.terms.items() if e[0] == 0})


def compose_chart(map_: RationalMapP2, chart: Sequence[MultiPoly]) -> tuple:
    """Map components composed with the chart, with the common power of e
    cancelled (components stay arity-2 in (e, l))."""
    comp = [c.subs(list(chart)) for c in map_.components]
    if all(c.is_zero() for c in comp):
        raise ValueError("chart lies inside the indeterminacy closure")
    k = min(_e_order(c) for c in comp)
    return tuple(_shift_e(c, k) for c in comp)


def exceptional_image(map_: RationalMapP2, chart: Sequence[MultiPoly]) -> tuple:
    """Image of the exceptional divisor e = 0, as a triple of univariate
    polynomials in the chart parameter l."""
    comp = compose_chart(map_, chart)
    return tuple(_restrict_e0(c) for c in comp)


def ratio_restriction(num: MultiPoly, den: MultiPoly, chart: Sequence[MultiPoly]) -> tuple:
    """Restriction to e = 0 of (num/den) o chart, with the joint power of e
    cancelled first.  Returns (num0, den0); a pole shows up as den0 == 0."""
    cn = num.subs(list(chart))
    cd = den.subs(list(chart))
    k = min(_e_order(cn), _e_order(cd))
    return _restrict_e0(_shift_e(cn, k)), _restrict_e0(_shift_e(cd, k))


def on_curve(triple: Sequence[MultiPoly], equation: MultiPoly) -> bool:
    """True when the parametrized triple satisfies the homogeneous equation
    identically and is not a constant point."""
    if equation.subs(list(triple)).is_zero():
        degs = [c.total_degree() for c in triple]
        # constant points have proportional constant components
        nonconst = any(d > 0 for d in degs)
        return nonconst
    return False


def _e():
    return MultiPoly.variable(2, 0)


def _l():
    return MultiPoly.variable(2, 1)


def _c2(v):
    return MultiPoly.constant(2, Fraction(v))


def standard_chart_checks() -> dict:
    """Run the chart-level verifications for the builtin maps.

    Returns a dict name -> bool.  Each entry checks one printed fact about
    the lift of a builtin map to its blow-up model: where an exceptional
    divisor goes, the return map on a fixed exceptional divisor, or the image
    of an indeterminacy point sitting on one.
    """
    e, l = _e(), _l()
    one = _c2(1)
    results: dict = {}

    # ---------------- two-letter, four-generator map ----------------------
    f = builtin_map("R_G")
    p0, p1, p2 = f.components
    x3 = MultiPoly.variable(3, 0)
    y3 = MultiPoly.variable(3, 1)
    w3 = MultiPoly.variable(3, 2)

    # horizontal pole [1:0:0]: exceptional divisor -> line at infinity [2l:1:0]
    img = exceptional_image(f, (one, e, l * e))
    results["grig_pole_to_infinity"] = proportional(img, (2 * univar([0, 1]), univar([1]), 0))

    # E3 over [0:-2:1]: collapsed to [0:-2:1], return map l -> 2l^2 - 1,
    # indeterminacy at l = 0 sent to the line {lam + mu + 2w = 0}
    chart_e3 = (e, _c2(-2) + l * e, one)
    img = exceptional_image(f, chart_e3)
    results["grig_E3_fixed_point"] = proportional(img, (0, -2, 1))
    lift = ratio_restriction(p1 + 2 * p2, p0, chart_e3)
    results["grig_E3_chebyshev_return"] = proportional(lift, (univar([-1, 0, 2]), univar([1])))
    img = exceptional_image(f, (e, _c2(-2) + l * e * e, one))
    results["grig_E3_indeterminacy_line"] = on_curve(img, x3 + y3 + 2 * w3)

    # E4 over [0:2:1]: collapsed to [0:2:1], return map l -> 1 - 2l^2,
    # indeterminacy sent to {lam - mu + 2w = 0}
    chart_e4 = (e, _c2(2) + l * e, one)
    img = exceptional_image(f, chart_e4)
    results["grig_E4_fixed_point"] = proportional(img, (0, 2, 1))
    lift = ratio_restriction(p1 - 2 * p2, p0, chart_e4)
    results["grig_E4_return"] = proportional(lift, (univar([1, 0, -2]), univar([1])))
    img = exceptional_image(f, (e, _c2(2) + l * e * e, one))
    results["grig_E4_indeterminacy_line"] = on_curve(img, x3 - y3 + 2 * w3)

    # E1, E2 over [-1:1:0] and [1:1:0] are regular and land on {lam = -2w}
    img = exceptional_image(f, (_c2(-1) + e, one, l * e))
    results["grig_E1_to_line"] = on_curve(img, x3 + 2 * w3)
    img = exceptional_image(f, (_c2(1) + e, one, l * e))
    results["grig_E2_to_line"] = on_curve(img, x3 + 2 * w3)

    # ---------------- lamplighter map --------------------------------------
    f = builtin_map("R_L")

    # E1 over [-1:1:0] maps regularly onto the line {mu = 0}, in both charts
    img = exceptional_image(f, (_c2(-1) + e, one, l * e))
    results["lamp_E1_to_mu0_chart_a"] = on_curve(img, y3)
    img = exceptional_image(f, (l * e - one, one, e))
    results["lamp_E1_to_mu0_chart_b"] = on_curve(img, y3)

    # E2 over [1:1:0] is collapsed to [1:0:0]
    img = exceptional_image(f, (one + l * e, one, e))
    results["lamp_E2_collapsed"] = proportional(img, (1, 0, 0))

    # the indeterminacy point on E2 is sent to the line at infinity
    img = exceptional_image(f, (one + l * e * e, one, e))
    results["lamp_E2_ind_to_infinity"] = on_curve(img, w3)

    # ---------------- three-peg tower map ----------------------------------
    f = builtin_map("R_H")
    p0, p1, p2 = f.components

    # E1 over [-1:1:0] -> conic [6 - 3l - l^2 : (1-l) l : 2 (2-l) l]
    img = exceptional_image(f, (_c2(-1) + e, one, l * e))
    results["hanoi_E1_to_conic"] = proportional(
        img,
        (univar([6, -3, -1]), univar([0, 1, -1]), univar([0, 4, -2])),
    )

    # E2 over [2:1:0] -> line {z = y}
    img = exceptional_image(f, (_c2(2) + e, one, l * e))
    results["hanoi_E2_to_line"] = on_curve(img, y3 - w3)

    # E3 over [-1:0:1]: fixed, return map l -> -2l^2/(4 - 2l - 4l^2),
    # indeterminacy at l = 2 sent to the line through [2:1:0] and [-1:0:1]
    chart_e3 = (_c2(-1) + e, l * e, one)
    img = exceptional_image(f, chart_e3)
    results["hanoi_E3_fixed_point"] = proportional(img, (-1, 0, 1))
    lift = ratio_restriction(p1, p0 + p2, chart_e3)
    results["hanoi_E3_return"] = proportional(lift, (univar([0, 0, -2]), univar([4, -2, -4])))
    img = exceptional_image(f, (_c2(-1) + e, (_c2(2) + l * e) * e, one))
    results["hanoi_E3_ind_line"] = proportional(
        img, (univar([-22, 2]), univar([-8]), univar([6, -2]))
    )

    # E4 over [1:0:1]: fixed, return map l -> l^2/(2 - 3l), two indeterminacy
    # points at l = 1 and l = -2 sent to printed lines
    chart_e4 = (one + e, l * e, one)
    img = exceptional_image(f, chart_e4)
    results["hanoi_E4_fixed_point"] = proportional(img, (1, 0, 1))
    lift = ratio_restriction(p1, p0 - p2, chart_e4)
    results["hanoi_E4_return"] = proportional(lift, (univar([0, 0, 1]), univar([2, -3])))
    img = exceptional_image(f, (one + e, (one + l * e) * e, one))
    results["hanoi_E4_ind_line_1"] = proportional(
        img, (univar([-2, -3]), univar([2]), univar([0, -3]))
    )
    img = exceptional_image(f, (one + e, (_c2(-2) + l * e) * e, one))
    results["hanoi_E4_ind_line_2"] = proportional(
        img, (univar([-17, 3]), univar([-4]), univar([-9, 3]))
    )

    # the curve {x + y - z = 0} is collapsed to the point on E4 with chart
    # coordinate l = 1/5: deform off the curve and take the leading ratio
    t = MultiPoly.variable(2, 1)
    eps = MultiPoly.variable(2, 0)
    tt = MultiPoly.variable(1, 0)
    curve = (tt, MultiPoly.constant(1, 1) - tt, MultiPoly.constant(1, 1))
    results["hanoi_C1_lands_on_E4"] = (p0 - p2).subs(list(curve)).is_zero()
    family = (t, one - t + eps, one)
    lift = ratio_restriction(p1, p0 - p2, family)
    results["hanoi_C1_slope_one_fifth"] = proportional(lift, (univar([1]), univar([5])))

    # the indeterminacy point [1:1:0] at infinity returns to the line at
    # infinity
    img = exceptional_image(f, (one + e, one, l * e))
    results["hanoi_inf_ind_to_infinity"] = on_curve(img, w3)

    return results
