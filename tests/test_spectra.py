"""Eigenvalue measures, densities of states, limit laws."""

import math
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import decimated_spectrum_numpy, densify, slice_matrix
from spectral_renorm.cli import BUDGETS, main
from spectral_renorm.pencils import assemble, builtin_scheme
from spectral_renorm.spectra import (
    _CHEBYSHEV,
    _HANOI_FIBER,
    DECIMATION_MAX_LEVEL,
    JULIA_WALKS,
    KOLMOGOROV_BLOCK,
    Measure1D,
    Samples,
    _atoms_of_both,
    _dos_measure,
    _lift,
    _merge_equal,
    _pairwise_sum,
    arcsine_cdf,
    cdf_distance,
    convergence_report,
    decimated_spectrum,
    dos,
    grig_limit_cdf,
    hanoi_unborn_mass,
    julia_backward,
    kolmogorov_to_cdf,
    lamplighter_unborn_mass,
    preimages,
    repelling_fixed_point,
    sample_w1,
    slice_point,
    tv_distance,
)

SQRT5 = math.sqrt(5.0)


def test_importing_the_cli_does_not_import_scipy():
    # every module of the package, not only the command-line front end
    code = ("import importlib, pkgutil, sys, spectral_renorm; "
            "[importlib.import_module(m.name) for m in "
            "pkgutil.walk_packages(spectral_renorm.__path__, 'spectral_renorm.')]; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_grigorchuk_level2_sliced_matrix_spectrum():
    vals = np.linalg.eigh(slice_matrix("grigorchuk", 2))[0]
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
        exact = np.array(densify(assemble(scheme, n, *point)), dtype=float)
        assert np.array_equal(slice_matrix(group_tag, n, grig_slice), exact)


def test_dos_level_one_atoms():
    assert dos("grigorchuk", 1).measure == Measure1D(points=(0.5, 1.0), counts=(1, 1))
    assert dos("lamplighter", 1).measure == Measure1D(points=(0.0, 4.0), counts=(1, 1))
    assert dos("hanoi", 1).measure == Measure1D(points=(0.0, 3.0), counts=(2, 1))
    assert dos("hanoi", 1).measure.weights == (2 / 3, 1 / 3)


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
            m = dos(tag, n).measure
            assert abs(sum(m.weights) - 1.0) < 1e-12
            assert m.total == d ** n
            assert m.weights == tuple(c / d ** n for c in m.counts)


def test_dos_budget_and_slice_flag(tmp_path):
    assert main(["spectrum", "--group", "hanoi", "--level", "8", "--out", str(tmp_path)]) == 2
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


@pytest.fixture(scope="module", params=["grigorchuk", "lamplighter", "hanoi"])
def level_measures(request):
    """A group and its ``dos`` measures at levels 1..DECIMATION_MAX_LEVEL,
    from one pass of ``decimated_spectrum``, and the number of ``_lift``
    calls that pass made."""
    from spectral_renorm import spectra

    tag, lifts = request.param, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_lift", lambda fiber, ws: lifts.append(len(ws)) or _lift(fiber, ws))
        measures = [None] + [_dos_measure(tag, *level)
                             for level in decimated_spectrum(tag, DECIMATION_MAX_LEVEL)]
    return tag, measures, len(lifts)


def test_a_sweep_lifts_each_level_once(level_measures):
    """The sweep to ``DECIMATION_MAX_LEVEL`` is one decimation pass: one
    ``_lift`` per level (lamplighter's atoms are closed forms, with none)."""
    tag, measures, lifts = level_measures
    assert len(measures) == DECIMATION_MAX_LEVEL + 1
    assert lifts == (0 if tag == "lamplighter" else DECIMATION_MAX_LEVEL)


def test_spectrum_nesting(level_measures):
    """Every atom of level n is bitwise an atom of level n + 1: the decimation
    recomputes it by the same float operations, which ``tv_distance``'s
    pairing by value rests on."""
    _, measures, _ = level_measures
    points = [None] + [np.array(m.points) for m in measures[1:]]
    for n in range(1, DECIMATION_MAX_LEVEL):
        lo, hi = points[n], points[n + 1]
        # both strictly increasing: an atom of level n, if anywhere in level
        # n + 1, is at the first point not below it
        at = np.minimum(np.searchsorted(hi, lo), len(hi) - 1)
        assert np.array_equal(hi[at].view(np.int64), lo.view(np.int64)), n


DEFECT_MASS = {"grigorchuk": (2, lambda n: 2 ** n),
               "lamplighter": (2, lambda n: n + 1),
               "hanoi": (3, lambda n: 3 * 2 ** n - 1)}


def _defect_counts(d, measures):
    """sum_x |d c_n(x) - c_(n+1)(x)| for consecutive levels n, over the
    atoms of both paired by value in one merge: 2 TV(mu_n, mu_(n+1)) d^(n+1)
    in integers."""
    return [sum(abs(d * c1 - c2) for _, c1, c2 in _atoms_of_both(here, after))
            for here, after in zip(measures, measures[1:])]


def test_tv_to_the_next_level_is_the_closed_form_defect_mass(level_measures):
    """TV(mu_n, mu_(n+1)) d^(n+1) is 3·2^n - 1 for hanoi, n + 1 for
    lamplighter and 2^n for grigorchuk (on its x-axis): the mass that level
    n + 1 moves, in units of one eigenvalue.  In the integer counts the
    identity is exact at every level."""
    tag, measures, _ = level_measures
    d, closed_form = DEFECT_MASS[tag]
    for n in range(1, DECIMATION_MAX_LEVEL):
        tv = tv_distance(measures[n], measures[n + 1]) * d ** (n + 1)
        assert tv == pytest.approx(closed_form(n), rel=1e-9), n
    assert _defect_counts(d, measures[1:]) == [2 * closed_form(n)
                                               for n in range(1, DECIMATION_MAX_LEVEL)]


def test_the_exact_defect_mass_sees_one_born_multiplicity_off_by_one(monkeypatch):
    """With the born atom 0 of hanoi level 3 counted once too often, the
    integer identity of the defect mass fails."""
    from spectral_renorm import spectra

    born = spectra._hanoi_born
    monkeypatch.setattr(spectra, "_hanoi_born", lambda k: tuple(
        (p, m + (k == 3 and p == 0.0)) for p, m in born(k)))
    d, closed_form = DEFECT_MASS["hanoi"]
    measures = [_dos_measure("hanoi", *level) for level in decimated_spectrum("hanoi", 6)]
    assert measures[2].total == 3 ** 3 + 1
    got = _defect_counts(d, measures)
    assert got[0] == 2 * closed_form(1)  # levels 1 and 2 are untouched
    assert got != [2 * closed_form(n) for n in range(1, 6)]


def test_atoms_merging():
    # equal values merge, and distinct values stay apart however close
    s = Samples.of([1.0, 1.0])
    assert s.points.tolist() == [1.0] and s.cumulative.tolist() == [1.0]
    s = Samples.of([1.0 + 1e-12, 1.0])
    assert s.points.tolist() == [1.0, 1.0 + 1e-12] and s.cumulative.tolist() == [0.5, 1.0]
    lamp4 = dos("lamplighter", 4).measure
    top = [w for p, w in zip(lamp4.points, lamp4.weights) if abs(p - 4) < 1e-9]
    assert top and top[0] >= 1 / 16 - 1e-12


def test_measure_invariants():
    with pytest.raises(ValueError, match="increasing"):
        Measure1D(points=(1.0, 1.0), counts=(1, 1))
    with pytest.raises(ValueError, match="length"):
        Measure1D(points=(0.0, 1.0), counts=(1,))
    with pytest.raises(ValueError, match="at least one atom"):
        Measure1D(points=(), counts=())
    # a count is a positive int: not zero, not negative, not a float, a bool or a numpy int
    for bad in (0, -1, 0.5, 1.0, True, np.int64(1)):
        with pytest.raises(ValueError, match="positive integers"):
            Measure1D(points=(0.0, 1.0), counts=(1, bad))


def test_cdf_distance_examples():
    m = dos("grigorchuk", 3).measure
    assert cdf_distance(m, m) == 0.0
    d0 = Measure1D(points=(0.0,), counts=(1,))
    d1 = Measure1D(points=(1.0,), counts=(3,))
    assert abs(cdf_distance(d0, d1) - 1.0) < 1e-15
    with pytest.raises(TypeError):  # 1-Wasserstein is the only metric: no argument names it
        cdf_distance(d0, d1, "wasserstein1")


def test_pairwise_sum_is_numpys_sum_bit_for_bit():
    """``_pairwise_sum`` adds in numpy's order, so the W1 terms sum to the
    bits ``np.sum`` gave them: every length up to 300 (across the 8-term and
    128-term thresholds) and seeded lengths up to 20,000, with signed zeros,
    subnormals and magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng(20)
    lengths = [*range(301), *rng.integers(301, 20_001, size=30).tolist(), 20_000]
    for length in lengths:
        arr = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 301, size=length)
        special = rng.integers(0, 8, size=length)
        arr[special == 0] = 0.0
        arr[special == 1] = -0.0
        arr[special == 2] = rng.integers(-9, 10, size=(special == 2).sum()) * 5e-324
        got = _pairwise_sum(arr.tolist())
        assert _bits([got]) == _bits([float(np.sum(arr))]), length
        # with one sign, no large term cancels and the order shows in the last bits
        mags = np.abs(arr) * (rng.random(length) < 0.5) + rng.random(length)
        assert _bits([_pairwise_sum(mags.tolist())]) == _bits([float(np.sum(mags))]), length


def _random_measure(rng, points):
    # counts from 1 to about 10^12, whose masses span 12 orders of magnitude
    counts = 1 + (rng.random(len(points)) * 10.0 ** rng.integers(0, 13, size=len(points)))
    return Measure1D(points=tuple(points.tolist()),
                     counts=tuple(counts.astype(np.int64).tolist()))


def _samples_of(m):
    """The ``Samples`` with the atoms of a ``Measure1D``: its running CDF is
    numpy's cumulative sum of the masses c/total."""
    return Samples(points=np.array(m.points),
                   cumulative=np.cumsum(np.asarray(m.counts, dtype=np.int64) / m.total))


def test_cdf_distance_gives_the_same_bits_on_lists_and_on_arrays():
    """``cdf_distance``'s list loop on two ``Measure1D`` and ``sample_w1``'s
    numpy form on the ``Samples`` of the same atoms agree bit for bit on
    seeded measures from 1 to 3000 atoms, with shared atoms and a 0.0 of one
    measure against a -0.0 of the other."""
    rng = np.random.default_rng(41)
    sizes = [*range(1, 12), *rng.integers(12, 3000, size=25).tolist(), 2047, 2048, 3000]
    for size in sizes:
        grid = np.unique(np.append(np.round(rng.standard_normal(2 * size) * 400.0, 1), 0.0))
        shared = (rng.random(len(grid)) < 0.3) | (grid == 0.0)
        first = shared | (rng.random(len(grid)) < 0.5)
        points1, points2 = grid[first], grid[shared | ~first]
        points2[points2 == 0.0] = -0.0
        m1, m2 = _random_measure(rng, points1), _random_measure(rng, points2)
        arrays = sample_w1(_samples_of(m1), _samples_of(m2))
        assert _bits([cdf_distance(m1, m2)]) == _bits([arrays]), size


def _reference_kolmogorov(m, cdf):
    """The per-atom loop that ``kolmogorov_to_cdf`` replaced."""
    total = m.total
    best = acc = 0.0
    for p, c in zip(m.points, m.counts):
        w = c / total
        f = cdf(p)
        best = max(best, abs(acc - f), abs(acc + w - f))
        acc += w
    return best


@pytest.mark.parametrize("size", [1, 2, KOLMOGOROV_BLOCK - 1, KOLMOGOROV_BLOCK,
                                  KOLMOGOROV_BLOCK + 1, 2 * KOLMOGOROV_BLOCK + 1])
def test_kolmogorov_to_cdf_gives_the_same_bits_on_both_kinds(size):
    """``kolmogorov_to_cdf`` reads a ``Measure1D`` and the ``Samples`` of
    the same atoms, on both sides of a block boundary, and gives the bits
    of the per-atom loop it replaced on each."""
    rng = np.random.default_rng(size)
    points = np.unique(rng.uniform(-1.2, 1.2, size=size))
    while len(points) < size:  # a repeated draw: top up with fresh points
        points = np.unique(np.append(points, rng.uniform(-1.2, 1.2, size - len(points))))
    counts = rng.integers(1, 6, size=size)
    m = Measure1D(points=tuple(points.tolist()), counts=tuple(counts.tolist()))
    s = Samples.of(rng.permutation(np.repeat(points, counts)))
    assert len(s.points) == size
    expected = _bits([_reference_kolmogorov(m, arcsine_cdf)])
    assert _bits([kolmogorov_to_cdf(m, arcsine_cdf)]) == expected
    assert _bits([kolmogorov_to_cdf(s, arcsine_cdf)]) == expected


@pytest.mark.parametrize("fiber", [_HANOI_FIBER, _CHEBYSHEV, (0.7, 0.3, -2.5)],
                         ids=["hanoi", "chebyshev", "other"])
def test_the_decimation_step_is_preimages_bit_for_bit(fiber):
    """``_lift``, the inverse-branch step of the decimation, gives the
    values of ``preimages`` at ascending points: the minus branch reversed,
    then the plus branch, in ascending order."""
    a, b, c = fiber
    rng = np.random.default_rng(7)
    low = c - b * b / (4.0 * a)  # the critical value: the real preimages start there
    ws = np.sort(np.concatenate([low + rng.random(2000) * 6.0, [low, 0.0, -0.0, 3.0]]))
    ws = ws[ws >= low]
    plus, minus = preimages(fiber, ws)
    got = _lift(fiber, ws.tolist())
    assert _bits(got) == _bits(np.concatenate([minus[::-1], plus]))
    assert all(x <= y for x, y in zip(got, got[1:]))


@pytest.mark.parametrize("group_tag,grig_slice", [
    pytest.param("hanoi", -1.0, id="hanoi"),
    pytest.param("lamplighter", -1.0, id="lamplighter"),
    *(pytest.param("grigorchuk", lam, id=f"grigorchuk-lam{lam}") for lam in (-1.0, 1.0, 0.37, 0.0)),
])
def test_decimated_spectrum_is_the_array_form_bit_for_bit(group_tag, grig_slice):
    """The lists of ``decimated_spectrum`` hold the points of the array form
    it replaced, bit for bit (so -0.0 is not 0.0), with the same
    multiplicities, at every level."""
    levels = zip(decimated_spectrum(group_tag, DECIMATION_MAX_LEVEL, grig_slice),
                 decimated_spectrum_numpy(group_tag, DECIMATION_MAX_LEVEL, grig_slice))
    for n, ((points, mults), (ref_points, ref_mults)) in enumerate(levels, 1):
        assert np.array_equal(np.asarray(points, dtype=float).view(np.int64),
                              ref_points.view(np.int64)), n
        assert mults == ref_mults.tolist(), n


def test_grigorchuk_kolmogorov_monotone_improvement():
    k6 = kolmogorov_to_cdf(dos("grigorchuk", 6).measure, grig_limit_cdf)
    k4 = kolmogorov_to_cdf(dos("grigorchuk", 4).measure, grig_limit_cdf)
    k8 = kolmogorov_to_cdf(dos("grigorchuk", 8).measure, grig_limit_cdf)
    assert k8 < k6 < k4


def test_grig_limit_measure_closed_form():
    assert grig_limit_cdf(0.0) == grig_limit_cdf(0.5) == 0.5  # no mass between the two intervals
    assert grig_limit_cdf(1.0) == 1.0
    assert grig_limit_cdf(-0.5) == 0.0
    assert abs(grig_limit_cdf(0.25) - 0.5) < 1e-15  # gap between the two intervals


def test_grig_limit_cdf_against_quadrature_oracle():
    scipy = pytest.importorskip("scipy.integrate")

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
        assert abs(val - grig_limit_cdf(x)) < 1e-6


def test_grig_limit_upper_branch_median():
    # the median of the upper branch sits at theta = 0, i.e. mu = sqrt(5),
    # transformed to x = (1 + sqrt 5)/4: the lower branch's half of the mass
    # and half of the upper branch's lie below it
    x_med = (1.0 + math.sqrt(5.0)) / 4.0
    assert abs(grig_limit_cdf(x_med) - 0.75) < 1e-12


def _sample_grig_limit(rng, size):
    """Draws from the limit law: theta Chebyshev-distributed, then a branch
    +-sqrt(g(theta)), g = 5 + 4 theta, with probability 1/2 each, at x = (mu + 1)/4."""
    theta = np.cos(np.pi * rng.random(size))
    g = 4.0 + 1.0 + 4.0 * theta
    sign = np.where(rng.random(size) < 0.5, 1.0, -1.0)
    mu = sign * np.sqrt(np.maximum(g, 0.0))
    return (mu + 1.0) / 4.0


def test_grig_limit_sampler_matches_cdf():
    rng = np.random.default_rng(0)
    samples = _sample_grig_limit(rng, 40000)
    emp = Samples.of(samples)
    assert kolmogorov_to_cdf(emp, grig_limit_cdf) < 0.02


def test_julia_backward_examples(tmp_path):
    pts, _ = julia_backward((1, -1, -3), 0)
    assert list(pts) == [3.0]
    pts, _ = julia_backward((1, -1, -3), 1)
    assert sorted(pts) == [-2.0, 3.0]
    # z^2's backward orbit of 1 stays on the unit circle
    pts = np.array([1.0 + 0j])
    for _ in range(3):
        pts = np.concatenate(preimages((1.0, 0.0, 0.0), pts, "complex"))
    assert np.allclose(np.abs(pts), 1.0)
    assert len(pts) == 8
    # the full backward orbit stays inside [-2, 3]
    pts, _ = julia_backward((1, -1, -3), 12)
    assert pts.min() >= -2.0 - 1e-9 and pts.max() <= 3.0 + 1e-9
    assert repelling_fixed_point(1, -1, -3) == 3.0
    assert main(["julia", "--poly", "1,-1,-3", "--depth", "20", "--out", str(tmp_path)]) == 2


def test_julia_random_walk_mode():
    pts, measure = julia_backward((1, -1, -3), 30, mode="random_walk", seed=1)
    assert len(pts) == JULIA_WALKS
    # the sample measure of the walks: their distinct points and running CDF
    points, counts = np.unique(pts, return_counts=True)
    assert _bits(measure.points) == _bits(points)
    assert _bits(measure.cumulative) == _bits(list(accumulate(counts / JULIA_WALKS)))


def _reference_inverse_both(a, b, c, w):
    disc = b * b - 4.0 * a * (c - w)
    if np.any(disc < 0):
        raise ValueError("complex inverse image in real mode")
    root = np.sqrt(disc)
    plus = (-b + root) / (2.0 * a)
    minus = (-b - root) / (2.0 * a)
    return np.concatenate([plus, minus])


def _reference_inverse_pick(a, b, c, w, signs):
    disc = b * b - 4.0 * a * (c - w)
    if np.any(disc < 0):
        raise ValueError("complex inverse image in real mode")
    return (-b + signs * np.sqrt(disc)) / (2.0 * a)


def _reference_julia(p, depth, mode, seed=0):
    """The separate full-tree and random-walk steps that ``preimages`` replaced."""
    a, b, c = (float(v) for v in p)
    z0 = repelling_fixed_point(a, b, c)
    rng = np.random.default_rng(seed)
    if mode == "full_tree":
        pts = np.array([z0])
        for _ in range(depth):
            pts = _reference_inverse_both(a, b, c, pts)
    else:
        pts = np.full(JULIA_WALKS, z0)
        for _ in range(depth):
            signs = np.where(rng.random(len(pts)) < 0.5, 1.0, -1.0)
            pts = _reference_inverse_pick(a, b, c, pts, signs)
    return pts, _reference_samples(pts)


# (1, 0, -2.5): c < -2, so the Julia set of z^2 + c is a Cantor set on the real line
@pytest.mark.parametrize("poly", [(1, -1, -3), (2, 0, -1), (1, 0, -2.5)],
                         ids=["poly0-real", "poly1-real", "poly2-real"])
@pytest.mark.parametrize("mode,depth", [("full_tree", 12), ("random_walk", 25)])
def test_julia_backward_matches_the_reference_steps_bit_for_bit(poly, mode, depth):
    pts, measure = julia_backward(poly, depth, mode=mode, seed=3)
    ref_pts, ref_measure = _reference_julia(poly, depth, mode, seed=3)
    assert pts.dtype == ref_pts.dtype and pts.tobytes() == ref_pts.tobytes()
    assert _bits(measure.points) == _bits(ref_measure[0])
    assert _bits(measure.cumulative) == _bits(ref_measure[1])


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
    with pytest.raises(ValueError):  # one level below the reference: no line to fit
        convergence_report("hanoi", [4, 4, 5])


@pytest.mark.parametrize("group_tag,levels", [("grigorchuk", range(4, 12)),
                                              ("lamplighter", range(4, 13)),
                                              ("hanoi", range(3, 8))])
def test_the_fit_is_the_exact_least_squares_line_rounded_once(group_tag, levels):
    """The decay rate fits (n, log d_n) by least squares exactly: the normal
    equations solved by Cramer's rule over ``Fraction``, each of slope and
    intercept rounded once, give its bits; ``np.polyfit`` agrees to a few ulps."""
    rep = convergence_report(group_tag, levels)
    xs = [Fraction(r["level"]) for r in rep["rows"]]
    ys = [Fraction(math.log(max(r["distance"], 1e-300))) for r in rep["rows"]]
    sx, sy, sxx = sum(xs), sum(ys), sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = len(xs) * sxx - sx * sx
    slope, intercept = (len(xs) * sxy - sx * sy) / det, (sxx * sy - sx * sxy) / det
    assert rep["fitted_rate_per_level"] == math.exp(float(slope))
    assert rep["log_intercept"] == float(intercept)
    np_slope, np_intercept = np.polyfit([float(x) for x in xs], [float(y) for y in ys], 1)
    assert math.isclose(rep["fitted_rate_per_level"], math.exp(np_slope), rel_tol=1e-14)
    assert abs(rep["log_intercept"] - np_intercept) <= 1e-14 * (1.0 + abs(np_intercept))


@pytest.mark.parametrize("group_tag,levels,step", [("hanoi", range(3, 8), "_lift"),
                                                   ("grigorchuk", [4, 6, 7, 7, 9], "_lift"),
                                                   ("lamplighter", [4, 6, 7, 7, 9],
                                                    "_lamplighter_atoms")])
def test_convergence_report_is_one_decimation_pass(group_tag, levels, step, monkeypatch):
    """The report builds each level once, up to the largest one, whatever
    levels it reads: one ``_lift`` per level, or for lamplighter one set of
    closed-form atoms."""
    from spectral_renorm import spectra

    calls, fn = [], getattr(spectra, step)
    monkeypatch.setattr(spectra, step, lambda *args: calls.append(args) or fn(*args))
    rows = convergence_report(group_tag, levels)["rows"]
    top = max(levels)
    assert len(calls) == top
    expected = sorted(levels) if group_tag == "grigorchuk" else [n for n in levels if n < top]
    assert [r["level"] for r in rows] == expected


def test_convergence_report_checks_every_level_before_computing_any(tmp_path, monkeypatch):
    """The levels of ``dos-compare`` are checked before ``convergence_report``
    computes any."""
    from spectral_renorm import spectra

    monkeypatch.setattr(spectra, "decimated_spectrum",
                        lambda *args: pytest.fail("a level was computed"))
    assert main(["dos-compare", "--group", "grigorchuk", "--levels", "4..13",
                 "--out", str(tmp_path)]) == 2


def test_tv_distance():
    a = Measure1D(points=(0.0, 1.0), counts=(1, 1))
    b = Measure1D(points=(0.0, 2.0), counts=(2, 2))
    assert tv_distance(a, b) == pytest.approx(0.5)
    assert tv_distance(a, a) == 0.0


# Plain loops that merge equal values and pair atoms by value: the references
# of ``_merge_equal``, ``Samples.of`` and ``tv_distance``.


def _reference_from_samples(values, counts):
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals, kind="stable")
    pts, sums = [], []
    for v, k in zip(vals[order], np.asarray(counts)[order]):
        if pts and v == pts[-1]:
            sums[-1] += int(k)
        else:
            pts.append(float(v))
            sums.append(int(k))
    return pts, sums


def _reference_samples(values):
    """(points, running CDF) of the sample measure of ``values``: a value
    seen k times among n adds k/n, summed in order."""
    pts, counts = _reference_from_samples(values, np.ones(len(values), dtype=int))
    return pts, list(accumulate(k / len(values) for k in counts))


def _reference_tv_distance(m1, m2):
    signed = sorted([(p, w) for p, w in zip(m1.points, m1.weights)]
                    + [(p, -w) for p, w in zip(m2.points, m2.weights)])
    total, acc, last = 0.0, 0.0, None
    for p, w in signed:
        if last is not None and p != last:
            total += abs(acc)
            acc = 0.0
        acc += w
        last = p
    total += abs(acc)
    return total / 2.0


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# counts of mixed magnitudes, so the order of a float sum of masses shows in its last bits
mixed_count = st.builds(lambda m, e: m * 10 ** e, st.integers(1, 9999), st.integers(0, 9))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6, unique=True), st.data())
def test_from_samples_merges_equal_values_like_the_reference_loop(distinct, data):
    counts = data.draw(st.lists(st.integers(1, 20), min_size=len(distinct),
                                max_size=len(distinct)))
    counts[0] = data.draw(st.integers(8, 20))
    values = [v for v, c in zip(distinct, counts) for _ in range(c)]
    values = data.draw(st.permutations(values))
    weights = data.draw(st.lists(st.integers(1, 2 ** 40), min_size=len(values),
                                 max_size=len(values)))
    # integer weights: the merge itself, on the values sorted as Samples.of sorts them
    order = np.argsort(values, kind="stable")
    pts, sums = _merge_equal(np.asarray(values)[order], np.asarray(weights)[order])
    ref_pts, ref_sums = _reference_from_samples(values, weights)
    assert _bits(pts) == _bits(ref_pts)
    assert np.asarray(sums).tolist() == ref_sums
    # a value seen k times among N adds k/N to the running CDF
    got = Samples.of(values)
    ref_pts, ref_cumulative = _reference_samples(values)
    assert _bits(got.points) == _bits(ref_pts)
    assert _bits(got.cumulative) == _bits(ref_cumulative)
    for bad in ([], [*values, math.nan], [math.inf, *values], [-math.inf, *values]):
        with pytest.raises(ValueError, match="at least one sample, all finite"):
            Samples.of(bad)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40, unique=True), st.data())
def test_tv_distance_matches_the_reference_loop(pts, data):
    pts = sorted(pts)
    counts = [data.draw(st.lists(mixed_count, min_size=len(pts), max_size=len(pts)))
              for _ in range(2)]
    # each point goes to the first measure, the second, or both: an atom of
    # both is an exact coincidence of the signed union
    sides = data.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=len(pts),
                               max_size=len(pts)))
    atoms = [[(p, c) for p, c, s in zip(pts, counts[side - 1], sides) if s & side]
             for side in (1, 2)]
    measure = lambda m: Measure1D(points=tuple(p for p, _ in m), counts=tuple(c for _, c in m))
    if not all(atoms):  # a side without atoms is no probability measure
        with pytest.raises(ValueError, match="at least one atom"):
            tv_distance(*map(measure, atoms))
        return
    m1, m2 = map(measure, atoms)
    got = tv_distance(m1, m2)
    assert _bits([got]) == _bits([_reference_tv_distance(m1, m2)])


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


@pytest.mark.parametrize("group_tag,top,grig_slice", [
    pytest.param("hanoi", 7, -1.0, id="hanoi-7"),
    pytest.param("grigorchuk", 11, -1.0, id="grigorchuk-11"),
    pytest.param("lamplighter", 11, -1.0, id="lamplighter-11"),
    *(pytest.param("grigorchuk", 10, lam, id=f"grigorchuk-10-lam{lam}")
      for lam in (0.3, 2.5, 0.0, -0.7)),
])
def test_decimated_spectrum_matches_the_eigensolver(group_tag, top, grig_slice):
    for n, (points, mults) in enumerate(decimated_spectrum(group_tag, top, grig_slice), 1):
        vals, counts = _clustered(np.linalg.eigvalsh(slice_matrix(group_tag, n, grig_slice)))
        assert list(mults) == counts
        assert np.abs(points - vals).max() <= 1e-9


def test_decimated_grigorchuk_level_12_matches_the_stored_spectrum():
    ref = Path(__file__).resolve().parents[1] / "bench" / "reference"
    ref = ref / "spectrum_grigorchuk_n12.txt"
    rows = [line.split() for line in ref.read_text().splitlines() if not line.startswith("#")]
    r = dos("grigorchuk", 12)
    assert r.measure.counts == tuple(int(k) for _, k in rows)
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


def _lamplighter_closed_form(n):
    """4 once, and 4 cos(pi p/q), q = 2..n+1, gcd(p, q) = 1, each with the
    nearest integer to 2^n/(2^q - 1) (never a tie: 2^q - 1 is odd)."""
    atoms_ = {4.0: 1}
    for q in range(2, n + 2):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                atoms_[4.0 * math.cos(math.pi * p / q)] = round(2 ** n / (2 ** q - 1))
    return sorted(atoms_.items())


@pytest.mark.parametrize("group_tag,d,top,closed_form", [
    ("hanoi", 3, 12, _hanoi_closed_form),
    ("grigorchuk", 2, 16, _grigorchuk_closed_form),
    ("lamplighter", 2, DECIMATION_MAX_LEVEL, _lamplighter_closed_form),
])
def test_decimated_spectrum_closed_forms(group_tag, d, top, closed_form):
    for n, level in enumerate(decimated_spectrum(group_tag, top), 1):
        points, mults = map(np.asarray, level)
        assert np.all(np.diff(points) > 0)
        assert int(mults.sum()) == d ** n
        expected = closed_form(n)
        assert list(mults) == [k for _, k in expected]
        assert np.abs(points - [p for p, _ in expected]).max() <= 1e-9


def test_lamplighter_rational_atoms_are_exact():
    # 4 cos(pi p/q) is rational only for q <= 3: the atoms 0 and +-2
    levels = decimated_spectrum("lamplighter", DECIMATION_MAX_LEVEL)
    next(levels)  # level 1 is {0, 4}
    for points, _ in levels:
        assert [p for p in points if abs(p) < 1e-9 or abs(abs(p) - 2.0) < 1e-9] == [-2.0, 0.0, 2.0]


def test_born_multiplicities_match_the_factor_exponents():
    for group_tag, lo in (("hanoi", 2), ("grigorchuk", 2)):
        scheme = builtin_scheme(group_tag)
        levels = list(decimated_spectrum(group_tag, 9))
        for n in range(lo, 10):
            exponents = sum(m * scheme.d ** (n - 1 - scheme.seed_level) for _, m in scheme.factors)
            points, mults = levels[n - 1]
            if group_tag == "hanoi":
                # a_n + b_n - 1: born multiplicity beyond the lifts of 0 and 3
                born = {p: int(k) for p, k in zip(points, mults) if p in (0.0, -2.0)}
                assert born[0.0] + born[-2.0] - 1 == exponents
            else:
                # factors of level n-1: one conic per theta other than +-1, one line pair
                assert (len(levels[n - 2][0]) - 2) // 2 + 1 == exponents


def test_decimated_spectrum_rejects_other_groups_and_levels():
    with pytest.raises(ValueError, match="unknown group tag"):
        next(decimated_spectrum("nope", 3))
    with pytest.raises(ValueError, match="finite"):
        next(decimated_spectrum("grigorchuk", 3, math.nan))
    for n in (0, DECIMATION_MAX_LEVEL + 1):
        with pytest.raises(ValueError, match="level"):
            next(decimated_spectrum("hanoi", n))
        with pytest.raises(ValueError, match="level"):
            convergence_report("hanoi", [n, 5, 6, 7])


def test_dos_routes_the_decimated_slices_around_the_eigensolver(monkeypatch):
    # every slice is decimated now, so no slice may call an eigensolver
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for group_tag in ("hanoi", "lamplighter"):
        top = BUDGETS["spectrum"]["--level"][group_tag]
        for n, (_, mults) in enumerate(decimated_spectrum(group_tag, top), 1):
            assert sum(mults) == builtin_scheme(group_tag).d ** n
        assert dos(group_tag, top).measure.total == builtin_scheme(group_tag).d ** top
    top = BUDGETS["spectrum"]["--level"]["grigorchuk"]
    sweeps = (decimated_spectrum("grigorchuk", top, lam) for lam in (-1.0, 1.0, 0.3))
    for n, (minus, plus, other) in enumerate(zip(*sweeps), 1):
        assert _dos_measure("grigorchuk", *minus) == _dos_measure("grigorchuk", *plus)
        assert sum(other[1]) == 2 ** n
    assert dos("grigorchuk", top, -1.0).measure == dos("grigorchuk", top, 1.0).measure


def test_dos_diagonalizes_the_other_slices():
    # the slices that used to go through the eigensolver: dos gives the
    # diagonalization of the slice matrix, on grigorchuk's axis x = (mu + 1)/4
    for group_tag, grig_slice, axis in (("lamplighter", -1.0, lambda v: v),
                                        ("grigorchuk", 0.3, lambda v: (v + 1.0) / 4.0)):
        r = dos(group_tag, 4, grig_slice)
        vals, counts = _clustered(axis(np.linalg.eigvalsh(slice_matrix(group_tag, 4, grig_slice))))
        assert list(r.measure.counts) == counts and sum(counts) == 16
        assert np.abs(np.array(r.measure.points) - vals).max() <= 1e-9
        assert r.measure.weights == tuple(c / 16 for c in counts)


def test_hanoi_unborn_mass_is_the_exact_two_thirds_rate():
    rep = convergence_report("hanoi", range(3, 8))
    assert [r["level"] for r in rep["rows"]] == [3, 4, 5, 6]
    for r in rep["rows"]:
        assert Fraction(r["unborn_mass"]) == Fraction(5, 4) * Fraction(2, 3) ** r["level"]
    for n in range(3, 8):
        assert hanoi_unborn_mass(n) == Fraction(5, 4) * Fraction(2, 3) ** n


def test_lamplighter_unborn_mass_is_the_mass_of_the_missing_atoms():
    assert lamplighter_unborn_mass(1) == Fraction(2, 3)
    for n, (points, _) in enumerate(decimated_spectrum("lamplighter", 13), 1):
        points = np.asarray(points)
        present = Fraction(0)
        for x in points[points != 4.0]:
            # x = 4 cos(pi p/q) with p/q in lowest terms, q <= n + 1
            q = Fraction(math.acos(x / 4.0) / math.pi).limit_denominator(n + 1).denominator
            present += Fraction(1, 2 ** q - 1)
        assert lamplighter_unborn_mass(n) == 1 - present
    rep = convergence_report("lamplighter", range(4, 8))
    assert rep["target"] == "unborn mass 1 - sum_(q=2)^(n+1) phi(q)/(2^q - 1)"
    for r in rep["rows"]:
        assert Fraction(r["unborn_mass"]) == lamplighter_unborn_mass(r["level"])
