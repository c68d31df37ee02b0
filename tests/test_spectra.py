"""Eigenvalue measures, densities of states, limit laws."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_renorm.pencils import assemble, builtin_scheme
from spectral_renorm.spectra import (
    DOS_BUDGET,
    Measure1D,
    atoms,
    cdf_distance,
    convergence_report,
    decimated_spectrum,
    dos,
    free_abelian_samples,
    free_group_density,
    grig_limit_measure,
    hanoi_unborn_mass,
    julia_backward,
    kolmogorov_to_cdf,
    repelling_fixed_point,
    slice_matrix,
    slice_point,
    sym_eigenvalues,
    tv_distance,
)

SQRT5 = math.sqrt(5.0)


def test_sym_eigenvalues_examples_and_errors():
    vals = sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])
    vals = sym_eigenvalues(np.eye(16))
    assert np.allclose(vals, 1.0)
    with pytest.raises(ValueError):
        sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@st.composite
def symmetric_matrix(draw):
    """Gaussian, small-integer, diagonal, repeated-block or block-diagonal
    symmetric matrices of size 1..60.  Block-diagonal ones make the
    tridiagonal split, which sends the solver through its deflation."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["gauss", "int", "diag", "repeated", "blockdiag"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "gauss":
        g = rng.standard_normal((n, n))
        return g + g.T
    if kind == "int":
        g = rng.integers(-3, 4, (n, n)).astype(float)
        return g + g.T
    if kind == "diag":
        return np.diag(rng.integers(-4, 5, n).astype(float))
    if kind == "repeated":
        k = draw(st.integers(1, 4))
        b = rng.integers(-2, 3, (k, k)).astype(float)
        return np.kron(np.eye(-(-n // k)), b + b.T)[:n, :n]
    m = np.zeros((n, n))
    cut = draw(st.integers(0, n))
    for lo, hi in ((0, cut), (cut, n)):
        g = rng.integers(-2, 3, (hi - lo, hi - lo)).astype(float)
        m[lo:hi, lo:hi] = g + g.T
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrix())
def test_sym_eigenvalues_are_eighs_bit_for_bit(m):
    assert np.array_equal(sym_eigenvalues(m), np.linalg.eigh(m)[0])


@pytest.mark.parametrize("group_tag,top,grig_slice", [
    ("grigorchuk", 9, -1.0),
    ("grigorchuk", 9, 0.3),
    ("lamplighter", 9, -1.0),
    ("hanoi", 6, -1.0),
])
def test_slice_eigenvalues_are_eighs_bit_for_bit(group_tag, top, grig_slice):
    for n in range(1, top + 1):
        m = slice_matrix(group_tag, n, grig_slice)
        assert np.array_equal(sym_eigenvalues(m), np.linalg.eigh(m)[0])


def test_symmetry_check_reads_every_tile():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((150, 150))
    m = g + g.T
    scale = np.abs(m).max()
    m[140, 3] += 1e-13 * scale  # within tolerance, in the last tile row
    sym_eigenvalues(m)
    m[140, 3] += 1e-11 * scale
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigenvalues(m)
    with pytest.raises(ValueError, match="not square"):
        sym_eigenvalues(np.zeros((3, 4)))


def _wrong_eigenvalue(vals, z, info):
    vals[-1] += 1e-3
    return vals, z, info


def _wrong_vector(cq, work, info):
    return cq[::-1].copy(), work, info


@pytest.mark.parametrize("routine,corrupt", [("dstevd", _wrong_eigenvalue),
                                             ("dormqr", _wrong_vector)],
                         ids=["dstevd", "dormqr"])
def test_residual_check_catches_a_wrong_eigenpair(routine, corrupt, monkeypatch):
    from scipy.linalg import lapack

    real = getattr(lapack, routine)
    m = slice_matrix("grigorchuk", 5)
    sym_eigenvalues(m)
    monkeypatch.setattr(lapack, routine, lambda *args, **kwargs: corrupt(*real(*args, **kwargs)))
    with pytest.raises(ArithmeticError, match="residual"):
        sym_eigenvalues(m)


def test_importing_the_cli_does_not_import_scipy():
    code = ("import sys, spectral_renorm.cli, spectral_renorm.spectra; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_grigorchuk_level2_sliced_matrix_spectrum():
    vals = sym_eigenvalues(slice_matrix("grigorchuk", 2))
    assert np.allclose(vals, sorted([-SQRT5, 1.0, SQRT5, 3.0]), atol=1e-10)


@pytest.mark.parametrize("group_tag,levels", [
    ("grigorchuk", range(1, 5)),
    ("lamplighter", range(1, 5)),
    ("hanoi", range(1, 4)),
])
@pytest.mark.parametrize("grig_slice", [-1.0, 0.3])
def test_slice_matrix_is_the_pencil_at_the_slice_point(group_tag, levels, grig_slice):
    scheme = builtin_scheme(group_tag)
    point = slice_point(group_tag, grig_slice)
    for n in levels:
        exact = np.array(assemble(scheme, n, *point), dtype=float)
        assert np.array_equal(slice_matrix(group_tag, n, grig_slice), exact)


def test_dos_level_one_atoms():
    assert atoms(dos("grigorchuk", 1).measure, 1e-9) == [(0.5, 0.5), (1.0, 0.5)]
    got = atoms(dos("lamplighter", 1).measure, 1e-9)
    assert got == [(0.0, 0.5), (4.0, 0.5)]
    got = atoms(dos("hanoi", 1).measure, 1e-9)
    assert len(got) == 2
    assert abs(got[0][0]) < 1e-12 and abs(got[0][1] - 2 / 3) < 1e-12
    assert abs(got[1][0] - 3.0) < 1e-12 and abs(got[1][1] - 1 / 3) < 1e-12


def test_dos_grigorchuk_level2_exact_atoms():
    m = dos("grigorchuk", 2).measure
    expected = sorted([(1 - SQRT5) / 4, 0.5, (1 + SQRT5) / 4, 1.0])
    assert len(m.points) == 4
    for p, e, w in zip(m.points, expected, m.weights):
        assert abs(p - e) < 1e-10
        assert abs(w - 0.25) < 1e-15


def test_dos_counts_and_mass():
    for tag, d in (("grigorchuk", 2), ("lamplighter", 2), ("hanoi", 3)):
        for n in (1, 2, 3):
            r = dos(tag, n)
            assert abs(r.measure.mass - 1.0) < 1e-12
            size = d ** n
            mult = [round(w * size) for w in r.measure.weights]
            assert sum(mult) == size
            assert r.multiplicities == tuple(mult)


def test_dos_budget_and_slice_flag():
    with pytest.raises(ValueError):
        dos("hanoi", 8)
    with pytest.raises(ValueError):
        dos("nope", 2)
    # the determinant is even in lam: slices at -1 and +1 agree
    a = dos("grigorchuk", 5, grig_slice=-1.0).measure
    b = dos("grigorchuk", 5, grig_slice=1.0).measure
    assert np.allclose(a.points, b.points, atol=1e-9)


def test_eigenvalue_bounds():
    assert all(-4 - 1e-9 <= p <= 4 + 1e-9 for p in dos("lamplighter", 6).measure.points)
    assert all(-3 - 1e-9 <= p <= 3 + 1e-9 for p in dos("hanoi", 5).measure.points)
    assert all(-1 - 1e-9 <= p <= 1.5 for p in dos("grigorchuk", 6).measure.points)


@pytest.mark.parametrize("tag", ["grigorchuk", "lamplighter", "hanoi"])
def test_spectrum_nesting(tag):
    for n in range(1, 6):
        lo = dos(tag, n).measure.points
        hi = np.array(dos(tag, n + 1).measure.points)
        for p in lo:
            assert np.min(np.abs(hi - p)) < 1e-7


def test_atoms_merging():
    m = Measure1D.from_samples([1.0, 1.0 + 1e-12], [0.5, 0.5])
    assert atoms(m, 1e-9) == [(pytest.approx(1.0), pytest.approx(1.0))]
    lamp4 = dos("lamplighter", 4).measure
    top = [w for p, w in zip(lamp4.points, lamp4.weights) if abs(p - 4) < 1e-9]
    assert top and top[0] >= 1 / 16 - 1e-12
    with pytest.raises(ValueError):
        atoms(m, 0.0)


def test_measure_invariants():
    with pytest.raises(ValueError):
        Measure1D(points=(1.0, 1.0), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        Measure1D(points=(0.0, 1.0), weights=(0.5, -0.5))


def test_cdf_distance_examples():
    m = dos("grigorchuk", 3).measure
    assert cdf_distance(m, m, "kolmogorov") == 0.0
    assert cdf_distance(m, m, "wasserstein1") == 0.0
    d0 = Measure1D(points=(0.0,), weights=(1.0,))
    d1 = Measure1D(points=(1.0,), weights=(1.0,))
    assert abs(cdf_distance(d0, d1, "wasserstein1") - 1.0) < 1e-15
    assert cdf_distance(d0, d1, "kolmogorov") == 1.0
    with pytest.raises(ValueError):
        cdf_distance(d0, Measure1D(points=(0.0,), weights=(0.5,)), "kolmogorov")
    with pytest.raises(ValueError):
        cdf_distance(d0, d1, "nope")


def test_grigorchuk_kolmogorov_monotone_improvement():
    lim = grig_limit_measure(-1.0)
    k6 = kolmogorov_to_cdf(dos("grigorchuk", 6).measure, lim.cdf)
    k4 = kolmogorov_to_cdf(dos("grigorchuk", 4).measure, lim.cdf)
    k8 = kolmogorov_to_cdf(dos("grigorchuk", 8).measure, lim.cdf)
    assert k8 < k6 < k4


def test_grig_limit_measure_closed_form():
    lim = grig_limit_measure(-1.0)
    assert lim.support() == [(-0.5, 0.0), (0.5, 1.0)]
    assert lim.cdf(1.0) == 1.0
    assert lim.cdf(-0.5) == 0.0
    assert abs(lim.cdf(0.25) - 0.5) < 1e-15  # gap between the two intervals
    with pytest.raises(ValueError):
        grig_limit_measure(0.0)


def test_grig_limit_cdf_against_quadrature_oracle():
    scipy = pytest.importorskip("scipy.integrate")
    lim = grig_limit_measure(-1.0)

    def density(x):
        # pushforward of the Chebyshev weight under both branches, then the
        # affine transform: differentiate theta*(mu) = (5 - mu^2)/4, mu = 4x-1
        mu = 4.0 * x - 1.0
        amu = abs(mu)
        if not 1.0 < amu < 3.0:
            return 0.0
        theta = (amu * amu - 5.0) / 4.0
        dtheta = amu / 2.0
        cheb = 1.0 / (math.pi * math.sqrt(1.0 - theta * theta))
        return 0.5 * cheb * dtheta * 4.0

    for x in (0.6, 0.75, 0.9, -0.1, -0.3):
        val, _ = scipy.quad(density, -0.51, x, limit=300,
                            points=[-0.5, 0.0, 0.5, 1.0] if x > 0.5 else [-0.5, 0.0])
        assert abs(val - lim.cdf(x)) < 1e-6


def test_grig_limit_upper_branch_median():
    # the median of the upper branch sits at theta = 0, i.e. mu = sqrt(5),
    # transformed to x = (1 + sqrt 5)/4
    lim = grig_limit_measure(-1.0)
    x_med = (1.0 + math.sqrt(5.0)) / 4.0
    assert abs(lim._branch_cdf(4.0 * x_med - 1.0, +1) - 0.5) < 1e-12


def test_grig_limit_sampler_matches_cdf():
    lim = grig_limit_measure(-1.0)
    rng = np.random.default_rng(0)
    samples = lim.sample(rng, 40000)
    emp = Measure1D.from_samples(samples, np.full(len(samples), 1.0 / len(samples)))
    assert kolmogorov_to_cdf(emp, lim.cdf) < 0.02


def test_julia_backward_examples():
    pts, _ = julia_backward((1, -1, -3), 0)
    assert list(pts) == [3.0]
    pts, _ = julia_backward((1, -1, -3), 1)
    assert sorted(pts) == [-2.0, 3.0]
    pts, _ = julia_backward((1, 0, 0), 3, domain="complex")
    assert np.allclose(np.abs(pts), 1.0)
    assert len(pts) == 8
    # the full backward orbit stays inside [-2, 3]
    pts, _ = julia_backward((1, -1, -3), 12)
    assert pts.min() >= -2.0 - 1e-9 and pts.max() <= 3.0 + 1e-9
    assert repelling_fixed_point(1, -1, -3) == 3.0
    with pytest.raises(ValueError):
        julia_backward((1, -1, -3), 20)


def test_julia_random_walk_mode():
    pts, measure = julia_backward((1, -1, -3), 30, mode="random_walk", samples=512, seed=1)
    assert len(pts) == 512
    assert measure.mass == pytest.approx(1.0)


def test_convergence_report_structure():
    rep = convergence_report("grigorchuk", range(4, 8))
    assert rep["target"] == "continuous limit law"
    dists = [r["distance"] for r in rep["rows"]]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    rep = convergence_report("hanoi", range(3, 7))
    assert all("tv_to_next" in r for r in rep["rows"])
    assert rep["target"] == "(1/3)^n W1 drift; (2/3)^n mass rate in tv_to_next"
    with pytest.raises(ValueError):
        convergence_report("grigorchuk", [4, 5])


def test_convergence_report_checks_every_level_before_computing_any(monkeypatch):
    from spectral_renorm import spectra

    monkeypatch.setattr(spectra, "dos", lambda *args: pytest.fail("a level was computed"))
    with pytest.raises(ValueError, match="budget"):
        convergence_report("grigorchuk", range(4, 14))


def test_tv_distance():
    a = Measure1D(points=(0.0, 1.0), weights=(0.5, 0.5))
    b = Measure1D(points=(0.0, 2.0), weights=(0.5, 0.5))
    assert tv_distance(a, b) == pytest.approx(0.5)
    assert tv_distance(a, a) == 0.0


def test_reference_densities():
    xs = np.linspace(-1, 1, 101)
    vals = free_group_density(2, xs)
    assert vals.min() >= 0
    bound = math.sqrt(3) / 2
    assert vals[np.abs(xs) > bound + 0.01].max() == 0.0
    samples = free_abelian_samples(3, 2000, seed=1)
    assert abs(samples.mean()) < 0.05 and np.abs(samples).max() <= 1.0


# ---------------------------------------------------------------------------
# Spectral decimation
# ---------------------------------------------------------------------------


def _clustered(vals, tol=1e-9):
    """Distinct eigenvalues (first of each run closer than ``tol``) and counts."""
    pts, counts = [], []
    for v in vals:
        if pts and v - pts[-1] <= tol:
            counts[-1] += 1
        else:
            pts.append(v)
            counts.append(1)
    return np.array(pts), counts


@pytest.mark.parametrize("group_tag,top", [("hanoi", 7), ("grigorchuk", 11)])
def test_decimated_spectrum_matches_the_eigensolver(group_tag, top):
    for n in range(1, top + 1):
        points, mults = decimated_spectrum(group_tag, n)
        vals, counts = _clustered(sym_eigenvalues(slice_matrix(group_tag, n)))
        assert list(mults) == counts
        assert np.abs(points - vals).max() <= 1e-9


def test_decimated_grigorchuk_level_12_matches_the_stored_spectrum():
    ref = Path(__file__).resolve().parents[1] / "bench" / "reference"
    ref = ref / "spectrum_grigorchuk_n12.txt"
    rows = [line.split() for line in ref.read_text().splitlines() if not line.startswith("#")]
    r = dos("grigorchuk", 12)
    assert r.multiplicities == tuple(int(k) for _, k in rows)
    assert np.abs(np.array(r.measure.points) - [float(v) for v, _ in rows]).max() <= 1e-9


def _hanoi_closed_form(n):
    """{3}, f^-i(0) with (3^(n-i-1) + 3)/2 for i < n, f^-j(-2) with
    (3^(n-j-1) - 1)/2 for j < n - 1, where f(z) = z^2 - z - 3."""
    def preimages(w, depth):
        for _ in range(depth):
            root = np.sqrt(13.0 + 4.0 * w)
            w = np.concatenate([(1.0 - root) / 2.0, (1.0 + root) / 2.0])
        return w

    atoms_ = {3.0: 1}
    for i in range(n):
        atoms_.update(dict.fromkeys(preimages(np.array([0.0]), i), (3 ** (n - i - 1) + 3) // 2))
    for j in range(n - 1):
        atoms_.update(dict.fromkeys(preimages(np.array([-2.0]), j), (3 ** (n - j - 1) - 1) // 2))
    return sorted(atoms_.items())


def _grigorchuk_closed_form(n):
    """{1, 3} and +-sqrt(5 + 4 cos(pi k / 2^(n-1))), k = 1..2^(n-1) - 1, all simple."""
    k = np.arange(1, 2 ** (n - 1))
    mu = np.sqrt(5.0 + 4.0 * np.cos(np.pi * k / 2 ** (n - 1)))
    return [(p, 1) for p in sorted(np.concatenate([[1.0, 3.0], mu, -mu]))]


@pytest.mark.parametrize("group_tag,d,top,closed_form", [
    ("hanoi", 3, 12, _hanoi_closed_form),
    ("grigorchuk", 2, 16, _grigorchuk_closed_form),
])
def test_decimated_spectrum_closed_forms(group_tag, d, top, closed_form):
    for n in range(1, top + 1):
        points, mults = decimated_spectrum(group_tag, n)
        assert np.all(np.diff(points) > 0)
        assert int(mults.sum()) == d ** n
        expected = closed_form(n)
        assert list(mults) == [k for _, k in expected]
        assert np.abs(points - [p for p, _ in expected]).max() <= 1e-9


def test_born_multiplicities_match_the_factor_exponents():
    for group_tag, lo in (("hanoi", 2), ("grigorchuk", 2)):
        scheme = builtin_scheme(group_tag)
        for n in range(lo, 10):
            exponents = sum(m * scheme.d ** (n - p) for _, m, p in scheme.factors)
            points, mults = decimated_spectrum(group_tag, n)
            if group_tag == "hanoi":
                # a_n + b_n - 1: born multiplicity beyond the lifts of 0 and 3
                born = {p: int(k) for p, k in zip(points, mults) if p in (0.0, -2.0)}
                assert born[0.0] + born[-2.0] - 1 == exponents
            else:
                # factors of level n-1: one conic per theta other than +-1, one line pair
                assert (len(decimated_spectrum(group_tag, n - 1)[0]) - 2) // 2 + 1 == exponents


def test_decimated_spectrum_rejects_other_groups_and_levels():
    with pytest.raises(ValueError, match="decimation"):
        decimated_spectrum("lamplighter", 3)
    for n in (0, 21):
        with pytest.raises(ValueError, match="level"):
            decimated_spectrum("hanoi", n)


def test_dos_routes_the_decimated_slices_around_the_eigensolver(monkeypatch):
    from spectral_renorm import spectra

    def refuse(m):
        raise AssertionError("the eigensolver ran on a decimated slice")

    spectra._dos_atoms.cache_clear()
    monkeypatch.setattr(spectra, "sym_eigenvalues", refuse)
    try:
        for n in range(1, DOS_BUDGET["hanoi"] + 1):
            dos("hanoi", n)
        for n in range(1, DOS_BUDGET["grigorchuk"] + 1):
            minus, plus = dos("grigorchuk", n, -1.0), dos("grigorchuk", n, 1.0)
            assert minus.measure == plus.measure
            assert minus.multiplicities == plus.multiplicities
    finally:
        spectra._dos_atoms.cache_clear()


def test_dos_diagonalizes_the_other_slices(monkeypatch):
    from spectral_renorm import spectra

    calls = []
    real = spectra.sym_eigenvalues

    def counted(m):
        calls.append(m.shape[0])
        return real(m)

    spectra._dos_atoms.cache_clear()
    monkeypatch.setattr(spectra, "sym_eigenvalues", counted)
    try:
        dos("lamplighter", 4)
        dos("grigorchuk", 4, grig_slice=0.3)
    finally:
        spectra._dos_atoms.cache_clear()
    assert calls == [16, 16]


def test_hanoi_unborn_mass_is_the_exact_two_thirds_rate():
    rep = convergence_report("hanoi", range(3, 8))
    assert [r["level"] for r in rep["rows"]] == [3, 4, 5, 6]
    for r in rep["rows"]:
        assert Fraction(r["unborn_mass"]) == Fraction(5, 4) * Fraction(2, 3) ** r["level"]
    for n in range(3, 8):
        assert hanoi_unborn_mass(n) == Fraction(5, 4) * Fraction(2, 3) ** n
