"""Projective maps: formulas, evaluation, degree growth, potentials."""

import dataclasses
import importlib
import json
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from exact_reference import (
    BinaryForm,
    binary_forms_gcd,
    compose,
    degrees_along_line_int,
    eval_binary_form,
    iterate_line_forms,
    potential,
)
from spectral_renorm.cli import main
from spectral_renorm.pencils import builtin_scheme
from spectral_renorm.ratmaps import modp
from spectral_renorm.ratmaps.degrees import (
    LINE_PRIMES,
    classify_growth,
    compose_along_line,
    degrees_mod_p,
    dynamical_degree,
)
from spectral_renorm.ratmaps.maps import (
    RationalMapP2,
    builtin_map,
    proportional,
)
from spectral_renorm.ratmaps.maps import compose as compose_forms
from spectral_renorm.ratmaps.poly import MultiPoly
from spectral_renorm.ratmaps.potential import (
    NEG_INF,
    PowerTable,
    _error_bound,
    _grid_eval,
    _homogenize,
    _on_factor_zero,
    potential_grid,
)
from spectral_renorm.spectra import DECIMATION_MAX_LEVEL, decimated_spectrum
from spectral_renorm import verification
from spectral_renorm.verification import (
    FACTS,
    components_coprime,
    fact_report,
    image,
    indeterminacy_report,
)


def test_importing_pencils_leaves_degrees_and_potential_unloaded():
    for module, unloaded in (
            ("pencils", ("ratmaps.degrees", "ratmaps.potential", "ratmaps.modp")),
            ("spectra", ("pencils", "groups", "exact", "ratmaps.poly"))):
        names = [f"spectral_renorm.{m}" for m in unloaded]
        code = (f"import sys, spectral_renorm.{module}; "
                f"print([m in sys.modules for m in {names}])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == str([False] * len(names))


def test_builtin_degrees_and_formulas():
    x, y, w = (MultiPoly.variable(3, i) for i in range(3))
    rg = builtin_map("R_G")
    assert rg.degree == 3 and rg.topological_degree == 2
    assert rg.components[0] == 2 * x * x * w
    assert rg.components[1] == y * (4 * w * w - y * y) + y * x * x
    assert rg.components[2] == w * (4 * w * w - y * y)
    rl = builtin_map("R_L")
    assert rl.degree == 2
    assert rl.components == (-x * x + y * y + 2 * w * w, -2 * w * w, (y - x) * w)
    assert builtin_map("R_H").degree == 4
    with pytest.raises(ValueError):
        builtin_map("nope")


def test_involution_composes_to_identity():
    h = builtin_map("H_inv")
    hh = compose(h, h)
    x, y, w = (MultiPoly.variable(3, i) for i in range(3))
    assert hh.components == (x, y, w)


def test_second_map_factors_through_involution():
    h = builtin_map("H_inv")
    f = builtin_map("R_G")
    g = builtin_map("G_G")
    hf = compose(h, f)
    for a, b in zip(hf.components, g.components):
        assert a == b


def test_eval_examples():
    rg = builtin_map("R_G")
    assert proportional(compose_forms(rg.components, (2, 0, 1)), (2, 0, 1))
    assert proportional(compose_forms(rg.components, (Fraction(3, 2), Fraction(5, 2), 1)),
                        (-2, 0, 1))
    rl = builtin_map("R_L")
    assert proportional(compose_forms(rl.components, (0, 2, 1)), (3, -1, 1))
    # an indeterminacy point: every component vanishes
    assert not any(compose_forms(rg.components, (0, 2, 1)))


def test_eval_projective_invariance_and_float():
    rg = builtin_map("R_G")
    rng = random.Random(5)
    for _ in range(20):
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        if all(v == 0 for v in pt):
            continue
        c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        a = compose_forms(rg.components, pt)
        if not any(a):
            continue
        assert proportional(a, compose_forms(rg.components, [c * v for v in pt]))
        vals = np.array([_grid_eval(c, PowerTable(np.array([float(v) for v in pt])))
                         for c in rg.components])
        fa = vals / np.linalg.norm(vals)
        assert abs(np.linalg.norm(fa) - 1.0) < 1e-12
        exact_dir = np.array([float(v) for v in a])
        exact_dir /= np.linalg.norm(exact_dir)
        assert min(np.linalg.norm(fa - exact_dir), np.linalg.norm(fa + exact_dir)) < 1e-9


def test_degree_sequences_and_submultiplicativity():
    line = [(1, 2), (3, -1), (0, 1)]
    degs = compose_along_line(builtin_map("R_G"), line, 6)
    assert degs == [3, 7, 15, 31, 63, 127]
    for i in range(len(degs)):
        for j in range(len(degs) - i - 1):
            assert degs[i + j + 1] <= degs[i] * degs[j]
    assert compose_along_line(builtin_map("R_L"), line, 6) == [2, 3, 4, 5, 6, 7]


def test_maps_take_integer_coefficients_only():
    """A rational coefficient would be truncated on restriction to a line,
    so the constructor rejects it; the projectively equal integer map keeps
    its degrees."""
    x, y, w = (MultiPoly.variable(3, i) for i in range(3))
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="integer coefficients"):
        RationalMapP2("h", (x * x * half, y * y, w * w * half))
    m = RationalMapP2("h", (x * x, 2 * y * y, w * w))
    assert compose_along_line(m, [(1, 2), (3, -1), (0, 1)], 3) == [2, 4, 8]


def test_compose_along_line_consistent_with_pointwise_eval():
    rg = builtin_map("R_G")
    line = [(1, 2), (3, -1), (0, 1)]
    forms = iterate_line_forms(rg, line, 3)[-1]
    s, t = 2, 3
    from_forms = [eval_binary_form(f, s, t) if not f.is_zero() else 0 for f in forms]
    pt = (Fraction(1 * s + 2 * t), Fraction(3 * s - 1 * t), Fraction(t))
    expected = pt
    for _ in range(3):
        expected = compose_forms(rg.components, expected)
    assert proportional(expected, from_forms)


def test_degenerate_line_is_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        compose_along_line(builtin_map("R_G"), [(0, 0)] * 3, 2)


def test_gcd_cancellation_idempotent():
    rg = builtin_map("R_G")
    forms = iterate_line_forms(rg, [(1, 2), (3, -1), (0, 1)], 3)[-1]
    g = binary_forms_gcd([f for f in forms if not f.is_zero()])
    assert g.degree == 0


def test_dynamical_degree_classes():
    assert dynamical_degree(builtin_map("R_L"), 8, 3)["growth"] == "linear"
    r = dynamical_degree(builtin_map("model_square"), 6, 2)
    assert r["growth"] == "exponential" and abs(r["estimate"] - 2.0) < 1e-9
    assert dynamical_degree(builtin_map("H_inv"), 5, 2)["growth"] == "bounded"
    assert classify_growth([3, 3])["growth"] == "inconclusive"


def test_dynamical_degree_bounded_by_algebraic_degree():
    for name in ("R_G", "R_L"):
        m = builtin_map(name)
        r = dynamical_degree(m, 6, 2)
        if r["estimate"] is not None:
            assert r["estimate"] <= m.degree + 1e-9


BUILTIN_MAPS = ("R_G", "G_G", "H_inv", "R_L", "R_H", "model_square", "model_twist",
                "model_skew", "cheb")
# The reference degrees deg F^k of the two renormalization maps.
REFERENCE_DEGREES = {"R_H": [4, 10, 22, 46, 94, 190], "R_G": [3, 7, 15, 31, 63, 127, 255]}
# x = w, the line at infinity w = 0, the coordinate lines x = 0 and y = 0,
# y = 2w (through R_G's indeterminacy point [0:2:1]), x = 2w, and a
# parametrized point: none is generic for every map.
SPECIAL_LINES = [
    [(4, -5), (1, 2), (4, -5)],
    [(1, 0), (0, 1), (0, 0)],
    [(0, 0), (1, 2), (3, -1)],
    [(1, 2), (0, 0), (3, -1)],
    [(1, -1), (2, 4), (1, 2)],
    [(2, 4), (1, 3), (1, 2)],
    [(1, 2), (2, 4), (3, 6)],
]


def _outcome(run):
    try:
        return run()
    except ValueError as err:
        return f"ValueError: {err}"


def test_degrees_mod_p_equal_the_integer_oracle_line_by_line():
    """On narrow lines, special ones included, each prime gives the exact
    integer iteration's degrees, or refuses the line where it does."""
    rng = random.Random(20)
    primes = modp.primes(LINE_PRIMES)
    for name in BUILTIN_MAPS:
        m = builtin_map(name)
        iterations = 4 if name == "R_H" else 5
        lines = SPECIAL_LINES + [[(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
                                 for _ in range(6)]
        for line in lines:
            exact = _outcome(lambda: degrees_along_line_int(m, line, iterations))
            for p in primes:
                assert _outcome(lambda: degrees_mod_p(m, line, iterations, p)) == exact, \
                    (name, line, p)


def test_special_line_gives_the_same_short_sequence_over_the_integers_and_mod_p():
    line = [(4, -5), (1, 2), (4, -5)]  # x = w
    rh = builtin_map("R_H")
    short = [2, 5, 11, 23, 47, 95]
    assert degrees_along_line_int(rh, line, 6) == short
    assert all(degrees_mod_p(rh, line, 6, p) == short for p in modp.primes(LINE_PRIMES))
    assert compose_along_line(rh, line, 6) == short


def test_dynamical_degree_gives_the_reference_degrees_for_every_seed():
    for name, reference in REFERENCE_DEGREES.items():
        m = builtin_map(name)
        for seed in range(200):
            assert dynamical_degree(m, 4, 3, seed)["degrees"] == reference[:4], (name, seed)


def test_dynamical_degree_gives_python_int_degrees():
    # the degrees come from numpy's zero runs; an int64 would reach the JSON
    for name in ("R_G", "R_H", "H_inv"):
        result = dynamical_degree(builtin_map(name), 4, 2)
        assert [type(d) for d in result["degrees"]] == [int] * 4, name


def test_a_gcd_that_leaves_a_remainder_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """A gcd mod p that does not divide the forms is a defect, not a
    degenerate line: ``dyndeg`` exits 3 instead of dropping the line."""
    gcd, calls = modp.gcd, []

    def planted(f, g, p):
        # s + t for both gcds of the first cancellation, which divides no
        # generic form's core
        calls.append(p)
        return np.array([1, 1], dtype=np.int64) if len(calls) <= 2 else gcd(f, g, p)

    monkeypatch.setattr(modp, "gcd", planted)
    assert main(["dyndeg", "--map", "R_H", "--iters", "4", "--out", str(tmp_path / "out")]) == 3
    assert "ArithmeticError" in json.loads(capsys.readouterr().err)["error"]


def test_contracted_curves_and_indeterminacy_reports():
    assert all(r["ok"] for r in fact_report()["contracted"])
    assert all(r["ok"] for r in indeterminacy_report())


def _with_common_factor(name: str, factor: str) -> RationalMapP2:
    """The builtin map with every component multiplied by x + 2y - w, or by
    w (a factor at infinity)."""
    m = builtin_map(name)
    x, y, w = (MultiPoly.variable(3, i) for i in range(3))
    h = {"x+2y-w": x + 2 * y - w, "w": w}[factor]
    return RationalMapP2(f"{name}*({factor})", tuple(c * h for c in m.components))


NOT_COPRIME = [(name, factor) for name in ("R_G", "R_H", "R_L") for factor in ("x+2y-w", "w")]


def test_every_builtin_map_is_certified_coprime():
    assert all(components_coprime(builtin_map(name)) for name in BUILTIN_MAPS)


@pytest.mark.parametrize("name, factor", NOT_COPRIME)
def test_components_with_a_common_factor_are_not_certified(name, factor):
    assert not components_coprime(_with_common_factor(name, factor))


def test_coprimality_over_f_p_agrees_with_the_integer_gcd_line_by_line():
    """On narrow lines, where lines through indeterminacy points, lines of
    rank 1 and degenerate lines are common, the first iterate mod the two
    primes keeps the map's degree exactly when the integer forms of the
    restriction have a constant gcd (``exact_reference.binary_forms_gcd``)."""
    maps = [builtin_map(name) for name in verification.INDETERMINACY]
    maps += [_with_common_factor(name, factor) for name, factor in NOT_COPRIME]
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        line = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        for m in maps:
            over_f_p = _outcome(lambda: compose_along_line(m, line, 1)) == [m.degree]
            forms = [c.subs([BinaryForm([a, b]) for a, b in line]) for c in m.components]
            over_z = binary_forms_gcd(forms).degree == 0  # -1 when all forms vanish
            assert over_f_p == over_z, (m.name, line)
            seen.add((m.name, over_z))
    assert {(name, v) for name in verification.INDETERMINACY for v in (True, False)} <= seen


def test_curve_in_the_indeterminacy_closure_gets_an_error_row(monkeypatch):
    # the constant curve [0:2:1] sits on an indeterminacy point of R_G
    t = MultiPoly.variable(1, 0)
    monkeypatch.setattr(verification, "FACTS", [
        ("contracted", "R_G", "point", (0 * t, 2, 1), (0, 2, 1)),
        ("contracted", "R_G", "point onto a line", (0 * t, 2, 1), MultiPoly.variable(3, 2))])
    error = "curve lies in the indeterminacy closure"
    assert fact_report() == {"contracted": [
        {"map": "R_G", "curve": "point", "ok": False, "error": error},
        {"map": "R_G", "curve": "point onto a line", "ok": False, "error": error}], "charts": {}}


def test_verify_contracted_rejects_wrong_target():
    t = MultiPoly.variable(1, 0)
    curve = image(builtin_map("R_G").components, (t, 2, 1))
    assert proportional(curve, (1, 1, 0))
    assert not proportional(curve, (1, 0, 0))


def _shifted(target):
    """A target that no image meeting ``target`` meets.  A point, curve or
    pair gets 1 added to its last entry, or to its first when the last is
    its only nonzero entry: a vector changed in one entry stays proportional
    only when it is zero elsewhere.  An orbit gets its last point shifted so.
    A line gets its coefficient vector shifted so: a curve that is not a
    point lies on one line at most."""
    if isinstance(target, list):
        return target[:-1] + [_shifted(target[-1])]
    if isinstance(target, MultiPoly):
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert set(target.terms) <= set(units)
        coeffs = _shifted(tuple(target.terms.get(u, 0) for u in units))
        return sum(c * MultiPoly.variable(3, i) for i, c in enumerate(coeffs))
    k = len(target) - 1 if any(target[:-1]) else 0
    return target[:k] + (target[k] + 1,) + target[k + 1:]


def test_every_fact_fails_with_a_target_that_is_not_proportional(monkeypatch):
    wrong = []
    for section, name, label, source, target, *rows in FACTS:
        for goal, expected in ((target, True), (_shifted(target), False)):
            monkeypatch.setattr(verification, "FACTS",
                                [(section, name, label, source, goal, *rows)])
            report = fact_report()
            oks = [r["ok"] for r in report["contracted"]] + list(report["charts"].values())
            if oks != [expected]:
                wrong.append((name, label, goal))
    assert wrong == []


def test_proportional_over_ints_fractions_and_polynomials():
    assert proportional((2, -4, 6), (-1, 2, -3))
    assert not proportional((2, -4, 6), (-1, 2, 3))
    assert proportional((Fraction(1, 3), Fraction(-1, 2)), (Fraction(2), Fraction(-3)))
    assert not proportional((Fraction(1, 3), Fraction(1, 2)), (Fraction(2), Fraction(-3)))
    t = MultiPoly.variable(1, 0)
    curve = (t, t * t - 1, MultiPoly.constant(1, 3))
    assert proportional(tuple(c * (t + 1) for c in curve), curve)
    assert proportional((2 * t, MultiPoly.constant(1, 1), 0), (t, Fraction(1, 2), 0))
    assert not proportional(curve, (t, t * t + 1, MultiPoly.constant(1, 3)))
    with pytest.raises(ValueError):
        proportional((1, 2), (1, 2, 3))


def test_proportional_rejects_the_zero_vector():
    zero = MultiPoly.zero(1)
    assert not proportional((0, 0, 0), (1, 2, 3))
    assert not proportional((0, 0), (0, 0))
    assert not proportional((zero, zero, zero),
                            (MultiPoly.variable(1, 0), MultiPoly.constant(1, 1), 0))
    assert not proportional((Fraction(0), Fraction(0)), (Fraction(1), Fraction(5)))


def test_a_contracted_divisor_does_not_meet_a_line_target(monkeypatch):
    # R_L contracts E2 over [1:1:0] to [1:0:0], a point on the line {mu = 0}
    e, l = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    monkeypatch.setattr(verification, "FACTS", [("charts", "R_L", "E2 onto mu=0", (1 + l * e, 1, e),
                                                 MultiPoly.variable(3, 1))])
    assert fact_report()["charts"] == {"E2 onto mu=0": False}


def test_chart_checks_all_pass():
    results = fact_report()["charts"]
    assert len(results) == 25 and all(results.values())


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_potential_zero_factor_gives_neg_inf():
    scheme = builtin_scheme("grigorchuk")
    assert potential(scheme, Fraction(1, 3), Fraction(2), 5) == NEG_INF


def test_potential_stabilizes_along_orbit():
    scheme = builtin_scheme("grigorchuk")
    u18 = potential(scheme, -1.0, 0.2, 18)
    u20 = potential(scheme, -1.0, 0.2, 20)
    assert math.isfinite(u18) and abs(u20 - u18) < 1e-6


def test_potential_lamplighter_tail_decay():
    scheme = builtin_scheme("lamplighter")
    values = {n: potential(scheme, 0.37, 1.21, n) for n in (8, 10, 12, 14)}
    for n in (8, 10, 12):
        assert abs(values[n + 2] - values[n]) < 40 * (n / 2 ** n)


def test_potential_grid_flags_factor_zeros():
    scheme = builtin_scheme("grigorchuk")
    grid = potential_grid(scheme, (-4, 4, -4, 4), 33, 4)
    # mu = 2 row sits on the factor zero set 4 - mu^2 = 0
    row = np.argmin(np.abs(grid["ys"] - 2.0))
    assert grid["neg_inf_mask"][row].any()


def test_potential_hanoi_depth_zero_ridges():
    scheme = builtin_scheme("hanoi")
    # points on lam^2 = (1+mu)^2 are exact factor zeros
    assert potential(scheme, Fraction(3), Fraction(2), 3) == NEG_INF
    assert potential(scheme, Fraction(-3), Fraction(2), 3) == NEG_INF


# The scalar orbit loop that the vectorized ``potential`` replaced, with its
# own float evaluator and exception on indeterminate orbits.


class _OrbitIndeterminate(RuntimeError):
    pass


def _reference_eval(poly, values):
    total = 0.0
    for expo, coeff in poly.terms.items():
        term = float(coeff)
        for v, e in zip(values, expo):
            if e:
                term *= v ** e
        total += term
    return total


def _reference_log_abs_affine(form, point):
    val = _reference_eval(form, point)
    if val == 0.0:
        return NEG_INF
    if point[2] == 0.0:
        return float("inf")
    return math.log(abs(val)) - form.total_degree() * math.log(abs(point[2]))


def _reference_step(map_, point):
    vals = np.array([_reference_eval(c, point) for c in map_.components])
    m = np.max(np.abs(vals))
    if m == 0.0 or not np.isfinite(m):
        raise _OrbitIndeterminate
    return vals / m


def _reference_potential(scheme, lam, mu, n):
    for q, _m in scheme.factors:
        if q.eval((Fraction(lam), Fraction(mu))) == 0:
            return NEG_INF
    hom_factors = [(_homogenize(q), m) for q, m in scheme.factors]
    point = np.array([float(lam), float(mu), 1.0])
    point = point / np.max(np.abs(point))
    total = 0.0
    for j in range(n - scheme.seed_level):
        for q, mult in hom_factors:
            contrib = _reference_log_abs_affine(q, point)
            if contrib == NEG_INF:
                return NEG_INF
            if not math.isfinite(contrib):
                return float("nan")
            total += mult * scheme.d ** (-(j + 1 + scheme.seed_level)) * contrib
        point = _reference_step(builtin_map(scheme.map_name), point)
    tail = _reference_log_abs_affine(_homogenize(scheme.seed), point)
    if not math.isfinite(tail):
        return tail if tail == NEG_INF else float("nan")
    return total + scheme.d ** (-n) * tail


@pytest.mark.parametrize("group", ["grigorchuk", "lamplighter", "hanoi"])
def test_potential_matches_the_scalar_reference_loop(group):
    scheme = builtin_scheme(group)
    rng = random.Random(11)
    points = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(6)]
    points += [(Fraction(3), Fraction(2)), (0.5, 2.0), (-1.0, 0.2)]
    for n in (scheme.seed_level, 3, 8, 14):
        for lam, mu in points:
            u = potential(scheme, lam, mu, n)
            ref = _reference_potential(scheme, lam, mu, n)
            if math.isfinite(ref):
                assert abs(u - ref) <= 1e-13 * abs(ref) + 1e-300
            else:
                assert u == ref or (math.isnan(u) and math.isnan(ref))


@pytest.mark.parametrize("group", ["grigorchuk", "lamplighter", "hanoi"])
def test_potential_equals_the_grid_bit_for_bit(group):
    scheme = builtin_scheme(group)
    grid = potential_grid(scheme, (-4, 4, -4, 4), 33, 7)
    gx, gy = np.meshgrid(grid["xs"], grid["ys"])
    assert potential(scheme, gx, gy, 7).tobytes() == grid["values"].tobytes()
    # scalar calls off the factor zeros, where the exact test does not answer first
    for i, j in ((5, 17), (32, 9), (20, 3), (1, 30)):
        u = potential(scheme, float(grid["xs"][j]), float(grid["ys"][i]), 7)
        assert np.float64(u).tobytes() == grid["values"][i, j].tobytes()


# The float evaluator before the shared power table: every term computes its
# own powers by the product chain x^e = x^(e-1) * x.


def _reference_grid_eval(poly, pts):
    shape = np.shape(pts[0])
    total = np.zeros(shape)
    for expo, coeff in poly.terms.items():
        term = np.full(shape, float(coeff))
        for i, e in enumerate(expo):
            if e:
                power = pts[i]
                for _ in range(e - 1):
                    power = power * pts[i]
                term = term * power
        total += term
    return total


@pytest.mark.parametrize("group", ["grigorchuk", "lamplighter", "hanoi"])
@pytest.mark.parametrize("window", [(-4, 4, -4, 4), (0.25, 3.5, 0.5, 2.75)])
def test_power_table_evaluator_matches_the_per_term_powers_bit_for_bit(group, window,
                                                                       monkeypatch):
    scheme = builtin_scheme(group)
    fast = potential_grid(scheme, window, 48, 9)
    lowest = []

    def per_term(poly, powers):
        lowest.append(float(np.min(powers.pts[:2])))
        return _reference_grid_eval(poly, powers.pts)

    monkeypatch.setattr(importlib.import_module("spectral_renorm.ratmaps.potential"),
                        "_grid_eval", per_term)
    slow = potential_grid(scheme, window, 48, 9)
    assert min(lowest) < 0.0  # the orbits reach negative coordinates
    assert fast["values"].tobytes() == slow["values"].tobytes()
    for mask in ("neg_inf_mask", "dead_mask"):
        assert np.array_equal(fast[mask], slow[mask])


def test_lamplighter_diagonal_is_neg_inf_in_array_and_scalar_form():
    # mu = lam is a factor zero that R_L sends to the line at infinity
    scheme = builtin_scheme("lamplighter")
    assert potential(scheme, -4.0, -4.0, 7) == NEG_INF
    assert potential(scheme, np.array([-4.0]), np.array([-4.0]), 7).tolist() == [NEG_INF]
    grid = potential_grid(scheme, (-4, 4, -4, 4), 33, 7)
    assert np.all(np.diag(grid["values"]) == NEG_INF)


def test_a_dead_orbit_starting_on_a_factor_zero_is_neg_inf_in_array_form():
    # (1.75, 0.75) lies on lam^2 = (1 + mu)^2; the homogenized factor
    # evaluates to about 5e-16 in floats, and R_H then sends the point to the
    # line at infinity, so only the exact test sees the zero
    scheme = builtin_scheme("hanoi")
    assert potential(scheme, 1.75, 0.75, 7) == NEG_INF
    assert potential(scheme, np.array([1.75]), np.array([0.75]), 7).tolist() == [NEG_INF]


def test_every_masked_hanoi_grid_cell_agrees_with_the_scalar_form():
    scheme = builtin_scheme("hanoi")
    grid = potential_grid(scheme, (-4, 4, -4, 4), 33, 7)
    masked = grid["neg_inf_mask"] | grid["dead_mask"]
    assert grid["dead_mask"].any()
    for i, j in zip(*np.nonzero(masked)):
        u = potential(scheme, float(grid["xs"][j]), float(grid["ys"][i]), 7)
        assert np.float64(u).tobytes() == grid["values"][i, j].tobytes()


# (group, window, resolution, n, block): blocks that end mid-row, and the
# hanoi 33^2 grid whose near-zero cells, some needing the exact factor test,
# fall in several blocks
BLOCK_CASES = [
    *[(g, (-3.7, 4.1, -4.2, 3.3), 129, 12, 1000) for g in ("grigorchuk", "lamplighter", "hanoi")],
    ("hanoi", (-4, 4, -4, 4), 33, 7, 100),
]


@pytest.mark.parametrize("group, window, resolution, n, block", BLOCK_CASES)
def test_blocks_do_not_change_a_bit(group, window, resolution, n, block, monkeypatch):
    scheme = builtin_scheme(group)
    module = importlib.import_module("spectral_renorm.ratmaps.potential")
    monkeypatch.setattr(module, "GRID_BLOCK", resolution * resolution)
    whole = potential_grid(scheme, window, resolution, n)
    monkeypatch.setattr(module, "GRID_BLOCK", block)
    blocked = potential_grid(scheme, window, resolution, n)
    assert blocked["values"].tobytes() == whole["values"].tobytes()
    for mask in ("neg_inf_mask", "dead_mask"):
        assert np.array_equal(blocked[mask], whole[mask])
    if resolution == 33:
        assert len(set(np.flatnonzero(whole["neg_inf_mask"]) // block)) > 1
        assert whole["dead_mask"].any()


def test_the_working_set_of_the_grid_does_not_grow_with_the_grid():
    scheme = builtin_scheme("hanoi")
    excess = []
    for resolution in (256, 1024):
        tracemalloc.start()
        try:
            grid = potential_grid(scheme, (-4, 4, -4, 4), resolution, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess.append(peak - sum(v.nbytes for v in grid.values() if isinstance(v, np.ndarray)))
    # a pass over the whole grid at once gives 16x
    assert excess[1] <= 1.25 * excess[0], excess


def _forms(group):
    """Every form the potential evaluates for one group: the homogenized
    factors and seed, and the map's components."""
    scheme = builtin_scheme(group)
    return ([_homogenize(q) for q, _m in scheme.factors] + [_homogenize(scheme.seed)]
            + list(builtin_map(scheme.map_name).components))


def _python_float_eval(poly, point):
    total = 0.0
    for expo, coeff in poly.terms.items():
        term = float(coeff)
        for x, e in zip(point, expo):
            if e:
                power = x
                for _ in range(e - 1):
                    power *= x
                term *= power
        total += term
    return total


def _random_points(rng, count):
    """Affine points of mixed sign over all binades, some coordinates 0."""
    def coordinate():
        return rng.choice([0.0, rng.uniform(-4, 4),
                           rng.uniform(-1, 1) * 2.0 ** rng.randint(-1100, 60)])
    return [(coordinate(), coordinate()) for _ in range(count)]


def _normalized(lam, mu):
    # the starting points as potential._telescope normalizes them
    pts = np.stack([lam, mu, np.ones(lam.size)], axis=0)
    return pts / np.max(np.abs(pts), axis=0, keepdims=True)


@pytest.mark.parametrize("group", ["grigorchuk", "lamplighter", "hanoi"])
def test_grid_eval_equals_a_pure_python_float_loop_bit_for_bit(group):
    rng = random.Random(23)
    lam, mu = np.array(_random_points(rng, 300)).T
    for pts in (np.stack([lam, mu, np.ones(lam.size)]), _normalized(lam, mu)):
        for form in _forms(group):
            expected = [_python_float_eval(form, point) for point in pts.T.tolist()]
            assert _grid_eval(form, PowerTable(pts)).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("group", ["grigorchuk", "lamplighter", "hanoi"])
def test_float_forms_are_within_the_error_bound_of_the_exact_value(group):
    xs = np.linspace(-4, 4, 33)
    gx, gy = np.meshgrid(xs, xs)
    # terms that underflow: 2 lam^2 w of R_G is 0 in floats at lam = 1e-170
    underflow = [(1e-170, 0.5), (1e-200, 1e-200 * (1 + 2 ** -52)), (5e-324, -3.0)]
    randoms = np.array(_random_points(random.Random(29), 200) + underflow).T
    lam, mu = np.concatenate([gx.ravel(), randoms[0]]), np.concatenate([gy.ravel(), randoms[1]])
    pts = _normalized(lam, mu)
    exact_pts = []
    for a, b in zip(lam.tolist(), mu.tolist()):
        m = max(abs(a), abs(b), 1.0)
        exact_pts.append((Fraction(a) / Fraction(m), Fraction(b) / Fraction(m), 1 / Fraction(m)))
    for form in _forms(group):
        powers = PowerTable(pts)
        values, bounds = _grid_eval(form, powers), _error_bound(form, powers)
        for value, bound, point in zip(values.tolist(), bounds.tolist(), exact_pts):
            assert abs(Fraction(value) - form.eval(point)) <= Fraction(bound), (form, point)


def _neg_inf_disagreements(scheme, resolution):
    """Cells of the grid on (-4, 4)^2 at n = 7 where the grid and the scalar
    form disagree on -inf.  The scalar form is called at every cell on a
    factor's zero set and every -inf cell; at any other cell it runs the
    grid's loop on that one point (see
    ``test_potential_equals_the_grid_bit_for_bit``) and reads what the grid
    reads, which is not -inf."""
    grid = potential_grid(scheme, (-4, 4, -4, 4), resolution, 7)
    xs, ys, neg_inf = grid["xs"].tolist(), grid["ys"].tolist(), grid["neg_inf_mask"]
    on_zero = np.array([[_on_factor_zero(scheme, x, y) for x in xs] for y in ys])
    return [(xs[j], ys[i]) for i, j in zip(*np.nonzero(on_zero | neg_inf))
            if (potential(scheme, xs[j], ys[i], 7) == NEG_INF) != neg_inf[i, j]]


@pytest.mark.parametrize("resolution", [33, 65, 129])
def test_every_hanoi_grid_cell_agrees_with_the_scalar_form_on_neg_inf(resolution):
    # 9, 27 and 74 cells on a factor's zero set read finite when only the
    # dead orbits got the exact test
    scheme = builtin_scheme("hanoi")
    assert _neg_inf_disagreements(scheme, resolution) == []
    # a living orbit that starts on lam^2 = (1 + mu)^2
    assert potential(scheme, -2.75, -3.75, 7) == NEG_INF
    assert potential(scheme, np.array([-2.75]), np.array([-3.75]), 7).tolist() == [NEG_INF]


def test_the_error_bound_decides_which_cells_get_the_exact_test(monkeypatch):
    scheme = builtin_scheme("hanoi")
    module = importlib.import_module("spectral_renorm.ratmaps.potential")
    monkeypatch.setattr(module, "_error_bound",
                        lambda form, powers: _error_bound(form, powers) / 2 ** 20)
    assert _neg_inf_disagreements(scheme, 33) != []


@pytest.mark.parametrize("group", ["grigorchuk", "lamplighter", "hanoi"])
def test_grid_masks_are_disjoint_and_mark_the_non_finite_cells(group):
    scheme = builtin_scheme(group)
    grid = potential_grid(scheme, (-4, 4, -4, 4), 33, 7)
    neg_inf, dead = grid["neg_inf_mask"], grid["dead_mask"]
    assert neg_inf.any() and not (neg_inf & dead).any()
    assert np.array_equal(neg_inf, np.isneginf(grid["values"]))
    assert np.array_equal(dead, np.isnan(grid["values"]))


def test_a_zero_met_before_the_orbit_dies_is_neg_inf_and_after_it_is_not():
    lam = MultiPoly.variable(2, 0)
    scheme = dataclasses.replace(builtin_scheme("grigorchuk"), factors=((lam + 1, 1),),
                                 seed=MultiPoly.constant(2, 1), seed_level=0)
    assert scheme.map_name == "R_G" and scheme.d == 2
    grid = potential_grid(scheme, (-1, 0, 2, 3), 2, 3)
    # (-1, 2) and (-1, 3) lie on the factor's zero set lam = -1, and R_G sends
    # (-1, 2) to the line at infinity.  (0, 2) is an indeterminacy point of
    # R_G: its orbit dies there, and the factor vanishes at the zero vector
    # only afterwards.
    assert grid["neg_inf_mask"].tolist() == [[True, False], [True, False]]
    assert grid["dead_mask"].tolist() == [[False, True], [False, False]]
    assert grid["values"][:, 0].tolist() == [NEG_INF, NEG_INF]
    assert np.isnan(grid["values"][0, 1]) and np.isfinite(grid["values"][1, 1])


def test_potential_refuses_levels_below_the_seed():
    scheme = builtin_scheme("hanoi")
    assert scheme.seed_level == 1
    with pytest.raises(ValueError, match="seed level"):
        potential(scheme, 0.3, 0.2, 0)
    with pytest.raises(ValueError, match="seed level"):
        potential_grid(scheme, (-1, 1, -1, 1), 4, 0)


# Each group's slice line (lam, mu) as a function of the spectral coordinate
# e, and five points of it off the atoms.
SLICE_LINES = {
    "hanoi": (lambda e: (e, 1.0), [-2.7, -1.3, 0.41, 1.7, 3.6]),
    "lamplighter": (lambda e: (e, 0.0), [-4.3, -2.2, 0.37, 1.3, 3.1]),
    "grigorchuk": (lambda e: (-1.0, e), [-3.2, -1.45, 0.3, 1.7, 2.6]),
}


@pytest.mark.parametrize("group", sorted(SLICE_LINES))
def test_potential_is_the_log_potential_of_the_decimated_spectrum(group):
    """The spectral current, checked: on the slice line, u_n is the
    log-potential sum_i (m_i / d^n) log |x_i - e| of the level-n atoms."""
    scheme = builtin_scheme(group)
    line, es = SLICE_LINES[group]
    lam, mu = line(np.array(es))
    for n, level in enumerate(decimated_spectrum(group, DECIMATION_MAX_LEVEL), 1):
        if n < scheme.seed_level:
            continue
        atoms, mults = map(np.asarray, level)
        expected = np.array([np.sum(mults * np.log(np.abs(atoms - e))) for e in es]) / scheme.d ** n
        u = potential(scheme, lam, mu, n)
        assert np.all(np.abs(u - expected) <= 1e-12 * (1.0 + np.abs(expected))), (n, u - expected)
