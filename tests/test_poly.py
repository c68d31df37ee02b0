"""Polynomial and binary-form arithmetic."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import (
    BinaryForm,
    _poly_mul_int,
    _prs_gcd,
    _primitive_int,
    _strip,
    _try_modular_gcd,
    binary_form_divexact,
    binary_forms_gcd,
    eval_binary_form,
    modular_poly_gcd_int,
    poly_divexact_int,
    poly_gcd_int,
    residues,
)
from spectral_renorm.ratmaps import modp
from spectral_renorm.ratmaps.maps import builtin_map
from spectral_renorm.ratmaps.poly import MultiPoly


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
def multipolys(draw, arity, max_exponent=4, max_terms=10):
    # Coefficients of +-1 and +-2 over few exponents make partial sums cancel.
    numerators = draw(st.sampled_from([st.integers(-2, 2), st.integers(-10**6, 10**6)]))
    coeff = st.builds(Fraction, numerators, st.integers(1, 12))
    expo = st.tuples(*[st.integers(0, max_exponent)] * arity)
    return MultiPoly(arity, draw(st.dictionaries(expo, coeff, max_size=max_terms)))


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


def subs_multipoly_loop(p, polys):
    """Reference: the loop ``MultiPoly.subs`` ran when it took only
    polynomial values."""
    arity = polys[0].arity
    out = MultiPoly.zero(arity)
    cache = [{0: MultiPoly.constant(arity, 1)} for _ in polys]

    def powered(i, e):
        if e not in cache[i]:
            cache[i][e] = powered(i, e - 1) * polys[i]
        return cache[i][e]

    for expo, coeff in p.terms.items():
        term = MultiPoly.constant(arity, coeff)
        for i, e in enumerate(expo):
            if e:
                term = term * powered(i, e)
        out = out + term
    return out


def eval_on_forms_loop(poly, basis):
    """Reference: the binary-form substitution loop that restricted maps to
    lines before ``MultiPoly.subs`` took forms."""
    caches = [{0: BinaryForm([1], 0)} for _ in basis]

    def powered(i, e):
        if e not in caches[i]:
            caches[i][e] = powered(i, e - 1) * basis[i]
        return caches[i][e]

    acc = BinaryForm([], -1)
    for expo, coeff in poly.terms.items():
        term = BinaryForm([int(coeff)], 0)
        for i, e in enumerate(expo):
            if e:
                term = term * powered(i, e)
        acc = acc + term if not acc.is_zero() else term
    return acc


def eval_loop(poly, values):
    """Reference: the point-evaluation loop ``MultiPoly.eval`` ran before it
    became an alias of ``subs``."""
    total = None
    for expo, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(values, expo):
            if e:
                term = term * v ** e
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


@st.composite
def homogeneous_polys(draw, arity=3, integral=False):
    degree = draw(st.integers(0, 4))
    expos = [e for e in itertools.product(range(degree + 1), repeat=arity) if sum(e) == degree]
    numerators = st.integers(-3, 3)
    coeff = numerators if integral else st.builds(Fraction, numerators, st.integers(1, 6))
    return MultiPoly(arity, draw(st.dictionaries(st.sampled_from(expos), coeff, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(homogeneous_polys(), st.integers(1, 3).flatmap(
    lambda arity: st.tuples(*[multipolys(arity, max_exponent=2, max_terms=4)] * 3)))
def test_subs_with_polynomial_values_matches_the_old_loop_in_value_and_order(p, values):
    assert list(p.subs(values).terms.items()) == list(
        subs_multipoly_loop(p, values).terms.items())


@settings(max_examples=150, deadline=None)
@given(homogeneous_polys(integral=True), st.integers(0, 3).flatmap(
    lambda degree: st.tuples(*[st.lists(st.integers(-9, 9), min_size=degree + 1,
                                        max_size=degree + 1)] * 3)))
def test_subs_with_binary_forms_matches_the_old_loop(p, coeff_lists):
    basis = [BinaryForm(coeffs) for coeffs in coeff_lists]
    assert p.subs(basis) == eval_on_forms_loop(p, basis)


@settings(max_examples=150, deadline=None)
@given(homogeneous_polys(), st.tuples(*[st.builds(Fraction, st.integers(-9, 9),
                                                  st.integers(1, 9))] * 3))
def test_subs_with_scalar_values_matches_the_old_eval_loop(p, point):
    assert p.subs(point) == p.eval(point) == eval_loop(p, point)


def test_subs_keeps_a_leading_constant_term_first():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = MultiPoly(2, {(0, 0): 3, (1, 0): 1, (0, 2): -2})
    values = [x + y, x * y - 1]
    assert list(p.subs(values).terms.items()) == list(
        subs_multipoly_loop(p, values).terms.items())
    assert MultiPoly.zero(2).subs(values) == MultiPoly.zero(2)
    assert MultiPoly.zero(2).subs([BinaryForm([1, 2])] * 2).is_zero()


def test_binary_form_takes_integer_scalars_only():
    f = BinaryForm([1, -2, 3])
    assert f * 3 == 3 * f == BinaryForm([3, -6, 9])
    assert f * Fraction(4, 2) == BinaryForm([2, -4, 6])
    assert (0 * f).is_zero()
    with pytest.raises(ValueError):
        f * Fraction(1, 2)
    with pytest.raises(ValueError):
        Fraction(1, 2) * f


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
        got = modular_poly_gcd_int(f1, f2)
        cf = gcd(*f1)
        cg = gcd(*f2)
        ff = [x // cf for x in f1]
        gg = [x // cg for x in f2]
        expected = _prs_gcd(ff, gg)
        c = gcd(cf, cg)
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
    p0, p1 = modp.primes(2)
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
    cf, ch = gcd(*f), gcd(*h)
    ff, hh = [x // cf for x in f], [x // ch for x in h]
    expected = _prs_gcd(ff, hh)
    assert len(expected) == len(g)
    for p in forced:
        assert len(modp.gcd(residues(ff, p), residues(hh, p), p)) > len(expected)
    assert _try_modular_gcd(ff, hh) == expected
    c = gcd(cf, ch)
    assert modular_poly_gcd_int(f, h) == [x * c for x in expected]


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
    assert eval_binary_form(f, 3, 1) == 17
    assert (f * f).degree == 4
