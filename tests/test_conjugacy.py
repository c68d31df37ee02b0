"""Conjugacy identities as proportional form pairs, and the fibers of eta."""

import dataclasses
import itertools
from fractions import Fraction

from spectral_renorm import conjugacy
from spectral_renorm.conjugacy import (
    CHEBYSHEV,
    FIBER_POINT,
    GRIG_INVARIANT,
    GRIG_SEMICONJUGATOR,
    chebyshev_semiconj_check,
    compose,
    conjugacy_checks,
    fiber_checks_symbolic,
    fiber_conjugation_check,
    fiber_coordinate,
    fiber_inverse,
)
from spectral_renorm.ratmaps.maps import builtin_map, proportional
from spectral_renorm.ratmaps.poly import MultiPoly


def test_compose_substitutes_the_inner_values():
    r_g = builtin_map("R_G").components
    composed = compose(GRIG_SEMICONJUGATOR, r_g)
    for point in ((Fraction(3), Fraction(-5, 2), Fraction(1)),
                  (Fraction(1, 3), Fraction(7), Fraction(2))):
        inner = [c.eval(point) for c in r_g]
        assert [f.eval(point) for f in composed] == [f.eval(inner) for f in GRIG_SEMICONJUGATOR]


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
    lhs = compose(GRIG_SEMICONJUGATOR, builtin_map("R_G").components)
    assert proportional(lhs, compose(CHEBYSHEV, GRIG_SEMICONJUGATOR))
    assert not proportional(lhs, compose(CHEBYSHEV, GRIG_INVARIANT))


def test_a_changed_coefficient_of_R_G_breaks_its_identities(monkeypatch):
    r_g = builtin_map("R_G")
    c0, c1, c2 = r_g.components
    x, y = MultiPoly.variable(3, 0), MultiPoly.variable(3, 1)
    assert c1.terms[(2, 1, 0)] == 1
    changed = dataclasses.replace(r_g, components=(c0, c1 + x * x * y, c2))
    monkeypatch.setattr(conjugacy, "builtin_map",
                        lambda name: changed if name == "R_G" else builtin_map(name))
    assert conjugacy_checks()["grig_phi_invariant"] is False
    assert fiber_checks_symbolic()["fiber_return_is_square"] is False


def test_wrong_fiber_identities_are_reported_false():
    t, z = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    image = compose(builtin_map("R_G").components, FIBER_POINT)
    assert proportional(image, compose(FIBER_POINT, (t, z * z)))
    assert not proportional(image, compose(FIBER_POINT, (t, z * z * z)))
    psi = compose(GRIG_SEMICONJUGATOR, FIBER_POINT)
    assert proportional(psi, (z * z + 1, 2 * z))
    assert not proportional(psi, (z * z - 1, 2 * z))


def test_fiber_formulas_are_iota_and_its_inverse():
    """At eta = (t^2 + 1)/(2t) and s = (t^2 - 1)/(2t), ``fiber_inverse`` is
    (X/W, Y/W) of iota(t, z) = [X : Y : W] and ``fiber_coordinate`` maps it
    back to z, as identities in Q(t, z).

    Cleared of their denominators (t, d = (t^2 - 1)(z^2 - t^2)/(2t^2), W and
    the slope denominator 2(1 - z)(t^2 - 1)/W, none zero on the grid), the
    three differences are polynomials of degree at most D = 6 in t and in z.
    Such a polynomial vanishing on a (D + 1) x (D + 1) grid is zero, so the
    checks below prove the identities."""
    D = 6
    ts = [Fraction(k) for k in range(2, D + 3)]
    zs = [Fraction(k, D + 3) for k in range(-(D // 2), D - D // 2 + 1)]
    assert len(ts) == len(zs) == D + 1
    for t, z in itertools.product(ts, zs):
        eta, s = (t * t + 1) / (2 * t), (t * t - 1) / (2 * t)
        x, y, w = (f.eval((t, z)) for f in FIBER_POINT)
        lam, mu = fiber_inverse(eta, s, z)
        assert (lam, mu) == (x / w, y / w)
        assert fiber_coordinate(lam, mu, eta, s) == z


def test_fiber_symbolic_identities():
    assert fiber_checks_symbolic() == {
        "fiber_return_is_square": True,
        "psi_is_zhukovsky": True,
    }


def test_fiber_float_spot_check():
    report = fiber_conjugation_check(n_samples=50, seed=3)
    assert report["passed"]
    assert report["tol"] == 1e-9
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
