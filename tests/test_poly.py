"""Polynomial and binary-form arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_renorm.ratmaps.maps import builtin_map
from spectral_renorm.ratmaps.poly import (
    _GCD_PRIMES,
    BinaryForm,
    MultiPoly,
    _gcd_mod_p,
    _poly_mul_int,
    _prs_gcd,
    _primitive_int,
    _strip,
    _try_modular_gcd,
    _content_int,
    binary_form_divexact,
    binary_forms_gcd,
    poly_divexact_int,
    poly_gcd_int,
)


def poly_of(terms, arity=2):
    return MultiPoly(arity, {e: Fraction(c) for e, c in terms.items()})


def test_zero_coefficients_never_stored():
    p = poly_of({(1, 0): 1}) - poly_of({(1, 0): 1})
    assert p.is_zero()
    assert p.terms == {}


def test_arithmetic_identities():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert p.eval((Fraction(3), Fraction(2))) == 5


def test_subs_composition():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * x + y
    q = p.subs([y, x * y])  # x -> y, y -> x y
    assert q == y * y + x * y


def test_homogeneity_and_degrees():
    x = MultiPoly.variable(3, 0)
    w = MultiPoly.variable(3, 2)
    assert (x * x * w).is_homogeneous()
    assert not (x * x + w).is_homogeneous()
    assert (x * x * w).total_degree() == 3
    assert MultiPoly.zero(3).total_degree() == -1


def fraction_product(p, q):
    """Reference product: the schoolbook double loop over Fractions."""
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            val = out.get(expo, Fraction(0)) + c1 * c2
            if val == 0:
                out.pop(expo, None)
            else:
                out[expo] = val
    return MultiPoly(p.arity, out)


@st.composite
def multipolys(draw, arity):
    # Coefficients of +-1 and +-2 over few exponents make partial sums cancel.
    numerators = draw(st.sampled_from([st.integers(-2, 2), st.integers(-10**6, 10**6)]))
    coeff = st.builds(Fraction, numerators, st.integers(1, 12))
    expo = st.tuples(*[st.integers(0, 4)] * arity)
    return MultiPoly(arity, draw(st.dictionaries(expo, coeff, max_size=10)))


@st.composite
def multipoly_pairs(draw):
    arity = draw(st.integers(1, 3))
    return draw(multipolys(arity)), draw(multipolys(arity))


@settings(max_examples=300, deadline=None)
@given(multipoly_pairs())
def test_multipoly_product_matches_fraction_loop_in_value_and_order(pair):
    p, q = pair
    for a, b in ((p, q), (q, p), (p, p)):
        got = a * b
        assert list(got.terms.items()) == list(fraction_product(a, b).terms.items())
        assert all(type(c) is Fraction for c in got.terms.values())
        assert all(type(e) is int for expo in got.terms for e in expo)


def test_multipoly_product_order_after_cancellation():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    one = MultiPoly.constant(2, 1)
    # The x^2 coefficient of (1 + x + x^2)(x^2 - x + 1) cancels to 0 mid-loop
    # and then comes back, so it is re-inserted after x^4.
    cases = [
        ((x + y), (x - y)),
        (one + x + x * x, x * x - x + one),
        (x * Fraction(1, 6) + y * Fraction(5, 4), x * Fraction(-3, 2) + y * Fraction(1, 10)),
        (MultiPoly.zero(2), x + y),
    ]
    for p, q in cases:
        assert list((p * q).terms.items()) == list(fraction_product(p, q).terms.items())
    assert list((cases[1][0] * cases[1][1]).terms) == [(0, 0), (4, 0), (2, 0)]


def test_builtin_maps_keep_their_term_order(monkeypatch):
    """Float evaluation sums terms in dict order, so every builtin map must
    come out with the terms in the order the Fraction product gives."""
    names = ("R_G", "G_G", "H_inv", "R_L", "R_H", "model_square", "model_twist",
             "model_skew", "cheb")
    built = {name: builtin_map(name) for name in names}
    scalar_mul = MultiPoly.__mul__

    def reference_mul(self, other):
        if isinstance(other, (int, Fraction)):
            return scalar_mul(self, other)
        return fraction_product(self, self._coerce(other))

    monkeypatch.setattr(MultiPoly, "__mul__", reference_mul)
    monkeypatch.setattr(MultiPoly, "__rmul__", reference_mul)
    for name in names:
        rebuilt = builtin_map(name)
        assert [list(c.terms.items()) for c in rebuilt.components] == [
            list(c.terms.items()) for c in built[name].components], name


def schoolbook_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@st.composite
def int_coeff_lists(draw):
    bits = draw(st.sampled_from([1, 5, 64, 300, 2000]))
    coeff = st.integers(-2 ** bits, 2 ** bits)
    shape = draw(st.sampled_from(["any", "negative", "single", "zero-padded"]))
    length = draw(st.integers(1, 80))
    if shape == "single":
        coeffs = [0] * length
        coeffs[draw(st.integers(0, length - 1))] = draw(coeff.filter(bool))
        return coeffs
    coeffs = draw(st.lists(coeff, min_size=length, max_size=length))
    if shape == "negative":
        return [-abs(c) - 1 for c in coeffs]
    if shape == "zero-padded":
        return ([0] * draw(st.integers(1, 5)) + coeffs[: max(1, length - 10)]
                + [0] * draw(st.integers(1, 5)))
    return coeffs


@settings(max_examples=300, deadline=None)
@given(int_coeff_lists(), int_coeff_lists())
def test_kronecker_multiplication_matches_schoolbook(a, b):
    assert _poly_mul_int(a, b) == schoolbook_int(a, b)


def test_kronecker_multiplication_on_both_sides_of_the_cutoff():
    for la, lb in ((15, 80), (16, 16), (16, 17), (80, 80)):
        a = [(-1) ** i * (i + 1) ** 40 for i in range(la)]
        b = [-(3 ** (j % 7)) for j in range(lb)]
        assert _poly_mul_int(a, b) == schoolbook_int(a, b)
        assert _poly_mul_int(a, [0] * 3 + b + [0] * 2) == schoolbook_int(a, [0] * 3 + b + [0] * 2)
    # Equal coefficients make the middle product coefficient reach the size
    # bound 16·(2^30 - 1)^2, a 64-bit number: it needs the sign bit's byte.
    m = [2 ** 30 - 1] * 16
    for a, b in ((m, m), ([-c for c in m], m)):
        assert _poly_mul_int(a, b) == schoolbook_int(a, b)


small_coeffs = st.lists(st.integers(-30, 30), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_gcd_divides_both_and_contains_common_factor(g, a, b):
    f1 = _poly_mul_int(g, a)
    f2 = _poly_mul_int(g, b)
    if not _strip(list(f1)) or not _strip(list(f2)):
        return
    result = poly_gcd_int(f1, f2)
    poly_divexact_int(f1, result)  # raises on failure
    poly_divexact_int(f2, result)
    gp = _primitive_int(_strip(list(g)))
    if gp:
        poly_divexact_int(result, gp)


def test_modular_gcd_agrees_with_prs_on_large_inputs():
    import random

    rng = random.Random(3)
    for _ in range(5):
        g = [rng.randint(-9, 9) for _ in range(30)] + [rng.randint(1, 9)]
        a = [rng.randint(-9, 9) for _ in range(30)] + [rng.randint(1, 9)]
        f1, f2 = _poly_mul_int(g, a), _poly_mul_int(g, g)
        got = poly_gcd_int(f1, f2)
        cf = _content_int(f1)
        cg = _content_int(f2)
        ff = [x // cf for x in f1]
        gg = [x // cg for x in f2]
        from math import gcd as int_gcd

        expected = _prs_gcd(ff, gg)
        c = int_gcd(cf, cg)
        expected = [x * c for x in expected] if c > 1 else expected
        assert got == expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=25, max_size=34),
    st.integers(1, 2 ** 20),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.sampled_from(["first", "second", "both"]),
)
def test_modular_gcd_agrees_with_prs_under_unlucky_primes(g, lead, r, s, unlucky):
    """f = g·a and h = g·b where a and b share a root modulo the first
    and/or second gcd prime but not over the integers, so those primes give
    images of too high a degree and must be discarded."""
    from math import gcd as int_gcd

    p0, p1 = _GCD_PRIMES[0], _GCD_PRIMES[1]
    g = g + [lead]
    if unlucky == "first":
        a, b, forced = [-r, 1], [-r - p0, 1], (p0,)
    elif unlucky == "second":
        a, b, forced = [-r, 1], [-r - p1, 1], (p1,)
    else:
        a = _poly_mul_int([-r, 1], [-s, 1])
        b = _poly_mul_int([-r - p0, 1], [-s - p1, 1])
        forced = (p0, p1)
    f, h = _poly_mul_int(g, a), _poly_mul_int(g, b)
    cf, ch = _content_int(f), _content_int(h)
    ff, hh = [x // cf for x in f], [x // ch for x in h]
    expected = _prs_gcd(ff, hh)
    assert len(expected) == len(g)
    for p in forced:
        assert len(_gcd_mod_p(ff, hh, p)) > len(expected)
    assert _try_modular_gcd(ff, hh) == expected
    c = int_gcd(cf, ch)
    assert poly_gcd_int(f, h) == [x * c for x in expected]


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        poly_divexact_int([1, 0, 1], [1, 1])


def test_binary_form_gcd_with_st_factors():
    # (s t) * (s + t) and (s t) * (s - t): gcd is s t
    f = BinaryForm([0, 1, 1, 0])  # s^2 t + s t^2 = st(s+t)
    g = BinaryForm([0, 1, -1, 0])  # st(s-t)
    got = binary_forms_gcd([f, g])
    assert got.degree == 2
    assert got.coeffs == [0, 1, 0]
    assert binary_form_divexact(f, got).coeffs == [1, 1]


def test_binary_form_eval_matches_structure():
    f = BinaryForm([2, 0, -1])  # 2 s^2 - t^2
    assert f.eval(3, 1) == 17
    assert (f * f).degree == 4
