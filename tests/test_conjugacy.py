"""Symbolic conjugacy identities and the fiber identities over Q(t, z)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_renorm.conjugacy import (
    RationalFunction2,
    chebyshev_semiconj_check,
    chebyshev_rf,
    compose_rf,
    conjugacy_checks,
    fiber_base,
    fiber_checks_symbolic,
    fiber_conjugation_check,
    fiber_coordinate_symbolic,
    fiber_inverse_symbolic,
    grig_invariant,
    grig_semiconjugator,
    map_affine,
    verify_identity,
)
from spectral_renorm.ratmaps.poly import MultiPoly


def test_rational_function_algebra():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = RationalFunction2(x, y)
    g = RationalFunction2(y, x)
    assert (f * g).equals(RationalFunction2.const(2, 1))
    assert (f + g).equals(RationalFunction2(x * x + y * y, x * y))
    assert (f - f).num.is_zero()
    with pytest.raises(ZeroDivisionError):
        f / RationalFunction2(MultiPoly.zero(2), y)
    with pytest.raises(ZeroDivisionError):
        RationalFunction2(x, MultiPoly.zero(2))


def test_compose_rf_matches_numeric_evaluation():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    expr = RationalFunction2(x * x + y, x - y)
    f = RationalFunction2(x + 1, y)
    g = RationalFunction2(x * y, MultiPoly.constant(2, 1))
    composed = compose_rf(expr, (f, g))
    pt = (Fraction(2), Fraction(3))
    inner = (f.eval(pt), g.eval(pt))
    assert composed.eval(pt) == expr.eval(inner)


def compose_rf_loop(expr, args):
    """Reference: ``compose_rf`` as it was before it went through
    ``MultiPoly.subs``, one loop over each polynomial's terms."""
    arity = expr.num.arity
    out_arity = args[0].num.arity

    def subs_poly(p):
        degs = [max(p.degree_in(i), 0) for i in range(arity)]
        num = MultiPoly.zero(out_arity)
        for expo, coeff in p.terms.items():
            term = MultiPoly.constant(out_arity, coeff)
            for i, e in enumerate(expo):
                if e:
                    term = term * args[i].num ** e
                if degs[i] - e:
                    term = term * args[i].den ** (degs[i] - e)
            num = num + term
        den = MultiPoly.constant(out_arity, 1)
        for i in range(arity):
            if degs[i]:
                den = den * args[i].den ** degs[i]
        return RationalFunction2(num, den)

    top, bottom = subs_poly(expr.num), subs_poly(expr.den)
    if bottom.num.is_zero():
        raise ZeroDivisionError("denominator vanishes identically under composition")
    return top / bottom


@st.composite
def small_polys(draw, arity, homogeneous=False, nonzero=False):
    degree = draw(st.integers(0, 3))
    expos = [e for e in itertools.product(range(degree + 1), repeat=arity)
             if sum(e) == degree or not homogeneous]
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    poly = MultiPoly(arity, draw(st.dictionaries(st.sampled_from(expos), coeff, max_size=4)))
    return poly if poly or not nonzero else MultiPoly.constant(arity, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda arity: st.tuples(
    small_polys(arity), small_polys(arity, nonzero=True),
    st.lists(st.tuples(small_polys(2, homogeneous=True),
                       small_polys(2, homogeneous=True, nonzero=True)),
             min_size=arity, max_size=arity))))
def test_compose_rf_matches_the_old_loop(case):
    """Univariate expressions (arity 1) are the compositions that
    ``compose_univariate`` used to do."""
    num, den, pairs = case
    expr = RationalFunction2(num, den)
    args = [RationalFunction2(a, b) for a, b in pairs]
    try:
        expected = compose_rf_loop(expr, args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            compose_rf(expr, args)
        return
    assert compose_rf(expr, args).equals(expected)


def test_all_conjugacy_identities_exact():
    results = conjugacy_checks()
    assert results == {
        "grig_phi_invariant": True,
        "grig_psi_chebyshev": True,
        "lamplighter_skew_conjugation": True,
        "hanoi_skew_conjugation": True,
    }


def test_chebyshev_normalization_pinned():
    report = chebyshev_semiconj_check()
    assert report["2z^2-1"] is True
    assert report["z^2"] is False
    assert report["normalization"] == "2z^2-1"


def test_broken_identity_detected():
    f = map_affine("R_G")
    psi = grig_semiconjugator()
    wrong = compose_rf(chebyshev_rf(), (grig_invariant(),))
    assert not compose_rf(psi, f).equals(wrong)
    with pytest.raises(ValueError):
        verify_identity((psi,), (psi, psi))


def test_fiber_base_parametrizes_the_conic():
    eta, s, z = fiber_base()
    t = RationalFunction2.from_poly(MultiPoly.variable(2, 0))
    one = RationalFunction2.const(2, 1)
    assert (s * s).equals(eta * eta - 1)
    assert ((eta + s) * (eta - s)).equals(1)
    assert (eta + s).equals(t) and (eta - s).equals(one / t)
    assert not (eta + s).equals(eta - s)
    assert z.equals(RationalFunction2.from_poly(MultiPoly.variable(2, 1)))


def test_wrong_fiber_identities_are_reported_false():
    _, _, z = fiber_base()
    one = RationalFunction2.const(2, 1)
    lam, mu = fiber_inverse_symbolic()
    image = [compose_rf(c, (lam, mu)) for c in map_affine("R_G")]
    coordinate = fiber_coordinate_symbolic(*image)
    assert coordinate.equals(z * z)
    assert not coordinate.equals(z * z * z)
    psi = compose_rf(grig_semiconjugator(), (lam, mu))
    assert psi.equals((z + one / z) / 2)
    assert not psi.equals((z - one / z) / 2)


def test_fiber_symbolic_identities():
    assert fiber_checks_symbolic() == {
        "fiber_return_is_square": True,
        "psi_is_zhukovsky": True,
    }


def test_fiber_float_spot_check():
    report = fiber_conjugation_check(n_samples=50, tol=1e-9, seed=3)
    assert report["passed"]
    assert report["max_error"] <= 1e-9


def test_fiber_tangency_value():
    # z = 1 maps to the tangency point and the semi-conjugator value is 1
    import numpy as np

    eta = 1.7 + 0.3j
    s = np.sqrt(eta * eta - 1)
    z = 1.0 + 1e-13
    d = 1 + z * z + eta * s * (z * z - 1) - eta * eta * (1 + z * z)
    lam = -4 * (eta * eta - 1) * z / d
    mu = 2 * s * (z - 1) * (z + 1) / d
    psi_val = (4 - mu * mu + lam * lam) / (4 * lam)
    assert abs(psi_val - 1.0) < 1e-9
