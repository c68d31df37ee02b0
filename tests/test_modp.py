"""Polynomial arithmetic over F_p against the integer arithmetic it reduces."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exact_reference import (
    BinaryForm,
    _poly_mul_int,
    bareiss_det_int,
    poly_divexact_int,
    poly_gcd_int,
    residues,
)
from spectral_renorm.ratmaps import modp
from spectral_renorm.ratmaps.maps import builtin_map

P = modp.primes(2)


def test_prime_table_holds_the_largest_primes_below_2_31():
    assert modp.primes(3) == (2 ** 31 - 1, 2 ** 31 - 19, 2 ** 31 - 61)
    table = modp.primes(96)
    assert table[:3] == modp.primes(3)
    assert all(a > b for a, b in zip(table, table[1:]))
    assert all(modp._is_prime(q) for q in table) and table[-1] > 2 ** 30


def kronecker_product(a, b):
    """Integer product of lists of residues below 2^31: each list read as the
    base-2^80 digits of one integer (a product coefficient sums at most 2^12
    terms below 2^62, so no digit carries), multiplied once."""
    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(10, "little") for c in coeffs), "little")

    data = (pack(a) * pack(b)).to_bytes(10 * (len(a) + len(b) - 1), "little")
    return [int.from_bytes(data[i: i + 10], "little") for i in range(0, len(data), 10)]


@pytest.mark.parametrize("p", P)
def test_product_equals_the_integer_product_reduced(p):
    rng = random.Random(p)
    for la, lb in ((1, 1), (1, 7), (2, 3), (15, 80), (64, 64), (300, 1000), (4096, 4096)):
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        for x, y in ((a, b), ([p - 1] * la, [p - 1] * lb), ([p - 1] * la, b)):
            got = modp.mul(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), p)
            assert got.tolist() == [c % p for c in kronecker_product(x, y)], (la, lb)
    assert kronecker_product([3, 1], [2, 5, 7]) == _poly_mul_int([3, 1], [2, 5, 7])


@st.composite
def int_coeff_lists(draw):
    bits = draw(st.sampled_from([1, 5, 31, 64, 300, 2000]))
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
@given(int_coeff_lists(), int_coeff_lists(), st.sampled_from(P))
def test_product_mod_p_matches_the_schoolbook_product_reduced(a, b, p):
    got = modp.mul(residues(a, p), residues(b, p), p)
    assert got.tolist() == [c % p for c in _poly_mul_int(a, b)]


def test_product_refuses_factors_that_could_overflow():
    long = np.ones(modp.MUL_MAX_SHORTER + 1, dtype=np.int64)
    with pytest.raises(OverflowError, match="overflow"):
        modp.mul(long, long, P[0])


@pytest.mark.parametrize("p", P)
def test_gcd_and_divmod_match_the_integer_ones(p):
    rng = random.Random(5)
    for _ in range(20):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 30))] + [rng.randint(1, 9)]
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 30))] + [rng.randint(1, 9)]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 30))] + [rng.randint(1, 9)]
        f, h = _poly_mul_int(g, a), _poly_mul_int(g, b)
        exact = poly_gcd_int(f, h)
        monic = residues(exact, p) * pow(exact[-1], -1, p) % p
        got = modp.gcd(residues(f, p), residues(h, p), p)
        assert got.dtype == np.int64 and got.tolist() == monic.tolist()
        quotient, remainder = modp._divmod(residues(f, p), residues(exact, p), p)
        assert quotient.tolist() == residues(poly_divexact_int(f, exact), p).tolist()
        assert len(remainder) == 0
    # x^2 + 1 = (x - 1)(x + 1) + 2, and 1 = 0 (x + 1) + 1
    for f, quotient, remainder in (([1, 0, 1], [-1, 1], [2]), ([1], [], [1])):
        got = modp._divmod(residues(f, p), residues([1, 1], p), p)
        assert [r.tolist() for r in got] == [residues(quotient, p).tolist(),
                                             residues(remainder, p).tolist()]


@pytest.mark.parametrize("name", ("R_G", "R_H", "model_skew"))
def test_substitution_mod_p_is_the_integer_substitution_reduced(name):
    m = builtin_map(name)
    line = [(3, -7), (-2, 5), (11, 1)]
    p = P[1]
    forms = [modp.FormModP(residues([a, b], p), 1, p) for a, b in line]
    exact = [BinaryForm([a, b]) for a, b in line]
    for _ in range(2):
        forms = [c.subs(forms) for c in m.components]
        exact = [c.subs(exact) for c in m.components]
        for f, e in zip(forms, exact):
            assert f.degree == e.degree
            assert f.coeffs.tolist() == residues(e.coeffs, p).tolist()


def test_cancel_strips_the_powers_of_s_and_t_and_divides_the_cores():
    """s t (s + t) (s + 2t), s t^2 (s + t) and s^2 t (s + t) have the gcd
    s t (s + t), which each form's zero runs meet differently."""
    p = P[0]
    coeffs = ([0, 1, 3, 2, 0], [0, 0, 1, 1, 0], [0, 1, 1, 0, 0])
    out = modp.cancel_common_factor([modp.FormModP(residues(c, p), 4, p) for c in coeffs])
    assert [f.degree for f in out] == [1, 1, 1]
    assert [f.coeffs.tolist() for f in out] == [[1, 2], [0, 1], [1, 0]]
    # a zero form is kept, and coprime forms come back as they are
    zero = modp.FormModP(residues([0, 0], p), 1, p)
    kept = modp.cancel_common_factor([zero, modp.FormModP(residues([1, 1], p), 1, p),
                                      modp.FormModP(residues([1, 0], p), 1, p)])
    assert kept[0].is_zero() and [f.coeffs.tolist() for f in kept[1:]] == [[1, 1], [1, 0]]


def sylvester_resultant(a, b):
    """Resultant of two binary forms of one degree m >= 1, given by their
    integer coefficient lists: the determinant of their Sylvester matrix.
    It vanishes mod p exactly when the forms share a factor over F_p."""
    m = len(a) - 1
    return bareiss_det_int([[0] * k + f + [0] * (m - 1 - k) for f in (a, b) for k in range(m)])


@st.composite
def planted_factors(draw):
    """A prime p, residue forms (a, b, c) of one degree with a and b coprime
    mod p (c may be zero), and the coefficients of a factor s^i t^j g with g
    prime to s and t: its j leading and i trailing zeros frame g."""
    p = draw(st.sampled_from(P))
    residue, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    m = draw(st.integers(1, 5))
    a, b, c = (draw(st.lists(residue, min_size=m + 1, max_size=m + 1)) for _ in range(3))
    assume(sylvester_resultant(a, b) % p)
    k = draw(st.integers(0, 4))
    g = [draw(unit)] + ([*draw(st.lists(residue, min_size=k - 1, max_size=k - 1)), draw(unit)]
                        if k else [])
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return p, (a, b, c), [0] * j + g + [0] * i


@settings(max_examples=200, deadline=None)
@given(planted_factors())
def test_cancelling_a_planted_factor_gives_a_scalar_times_the_coprime_triple(case):
    p, triple, factor = case
    forms = [modp.FormModP(residues(_poly_mul_int(f, factor), p), len(f) + len(factor) - 2, p)
             for f in triple]
    out = modp.cancel_common_factor(forms)
    a = triple[0]
    first = next(k for k, c in enumerate(a) if c)
    scalar = int(out[0].coeffs[first]) * pow(a[first], -1, p) % p
    for got, f in zip(out, triple):
        if any(f):
            assert got.degree == len(f) - 1
            assert got.coeffs.tolist() == residues([scalar * c for c in f], p).tolist()
        else:
            assert got.is_zero()
