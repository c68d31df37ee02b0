"""Model-system equidistribution experiments."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_renorm import experiments
from spectral_renorm.cli import BUDGETS, main
from spectral_renorm.experiments import (
    CANTOR_BASE,
    arccos_law_cdf,
    backward_equidistribution,
    circle_w1_to_uniform,
    skew_cantor_experiment,
    twist_experiment,
    twist_plane_count,
    twist_rho_inverse,
)
from spectral_renorm.spectra import (
    Samples,
    arcsine_cdf,
    julia_backward,
    kolmogorov_to_cdf,
    preimage_levels,
    preimages,
    sample_w1,
)


def twist_rho(eta):
    """Rotation number of the twist fiber map, increasing from 0 to 2 pi on (-4, 4)."""
    return 2.0 * math.pi - 2.0 * np.arccos(np.clip(np.asarray(eta, dtype=float) / 4.0, -1, 1))


def test_rotation_number_monotone_and_surjective():
    # strictly monotone on the elliptic locus, the precondition of the
    # subinterval root bracketing of ``twist_experiment``
    assert np.all(np.diff(twist_rho(np.linspace(-4.0 + 1e-9, 4.0 - 1e-9, 4001))) > 0)
    etas = np.linspace(-3.999, 3.999, 2001)
    rho = twist_rho(etas)
    assert np.all(np.diff(rho) > 0)
    assert rho[0] < 0.05 and rho[-1] > 2 * math.pi - 0.05
    back = twist_rho_inverse(rho)
    assert np.allclose(back, etas, atol=1e-9)


def test_twist_counts_exactly_n():
    for n in [3, 4, 5, 10, 25, 50]:
        assert twist_experiment(n)["count"] == n


def test_twist_law_improves_and_decides_the_support():
    r10 = twist_experiment(10)
    r50 = twist_experiment(50)
    assert r50["w1_arccos_law"] < r10["w1_arccos_law"]
    # the wide law on (-4, 4) wins over the narrow one by a wide margin
    assert r50["w1_arccos_law"] < 0.1 < r50["w1_narrow_law"]


def test_twist_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "twist_experiment", lambda n: pytest.fail("it ran"))
    assert main(["experiment", "--kind", "twist", "--n", "500", "--out", str(tmp_path)]) == 2


def test_twist_plane_coordinates_cross_check():
    # honest plane-line intersections carry one extra winding point
    assert twist_plane_count(10) == 11
    assert twist_plane_count(3) == 4
    # exact Sturm counts of the degree-(n + 1) polynomial: every root is real
    # and in the strip; the float monomial expansion lost roots from n = 42 on
    assert twist_plane_count(42) == 43
    assert twist_plane_count(50) == 51
    assert [twist_plane_count(n) for n in range(1, 201)] == list(range(2, 202))


def test_arccos_law_cdf_endpoints():
    assert arccos_law_cdf(-4.5) == 0.0
    assert arccos_law_cdf(4.5) == 1.0
    assert abs(arccos_law_cdf(0.0) - 0.5) < 1e-15


def test_skew_cantor_fibers_and_decay():
    r = skew_cantor_experiment(3.0, 1)
    assert r["count"] == 2
    assert sorted(p for p, _ in r["line_points"]) == [-2.0, 3.0]
    for depth in (2, 5):
        assert skew_cantor_experiment(3.0, depth)["count"] == 2 ** depth
    d8 = skew_cantor_experiment(3.0, 8)["w1_to_balanced"]
    d10 = skew_cantor_experiment(3.0, 10)["w1_to_balanced"]
    d12 = skew_cantor_experiment(3.0, 12)["w1_to_balanced"]
    assert d12 < d10 < d8


def test_skew_cantor_complex_branch_handling():
    with pytest.raises(ValueError):
        skew_cantor_experiment(-4.0, 2)  # disc < 0 on the first pullback


@pytest.mark.parametrize("eta0,n", [(3.0, 10), (0.37, 9), (2.2, 14), (1.7, 12)])
def test_skew_is_the_cantor_model_read_at_depth_n(eta0, n):
    series = backward_equidistribution("cantor", eta0, n)["series"]
    assert skew_cantor_experiment(eta0, n)["w1_to_balanced"] == series[-1]["distance"]


@pytest.mark.parametrize("eta0", ["1e308", "nan"])
def test_skew_refuses_an_eta0_beyond_the_seed_bound_by_name(eta0, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_renorm.cli", "experiment", "--kind", "skew",
         "--eta0", eta0, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.count("\n") == 1
    assert "--eta0" in json.loads(proc.stderr)["error"]
    assert not (tmp_path / "out").exists()


def test_circle_w1_on_known_configurations():
    # n equally spaced atoms sit distance pi/(2n) from the uniform law (the
    # unavoidable discretization cost of mass 1/n per arc)
    for n in (64, 256):
        uniform = np.arange(n) * 2 * math.pi / n
        assert abs(circle_w1_to_uniform(uniform) - math.pi / (2 * n)) < 1e-6
    # a point mass transports to uniform at cost pi/2
    point = np.zeros(256)
    assert abs(circle_w1_to_uniform(point) - math.pi / 2) < 0.01


def circle_w1_ternary(angles):
    """Reference: ``circle_w1_to_uniform`` as it was, the minimizing shift c
    located by 200 steps of ternary search."""
    two_pi = 2.0 * math.pi
    th = np.sort(np.mod(np.asarray(angles, dtype=float), two_pi))
    n = len(th)
    ts = np.concatenate([[0.0], th, [two_pi]])
    jumps = np.concatenate([[0.0], np.full(n, 1.0 / n), [0.0]])
    counts = np.cumsum(jumps)
    h_left = counts[:-1] - ts[:-1] / two_pi
    h_right = counts[:-1] - ts[1:] / two_pi
    lengths = np.diff(ts)

    def total(c):
        u = h_left - c
        v = h_right - c
        same = u * v >= 0
        vals = np.where(
            same,
            0.5 * (np.abs(u) + np.abs(v)) * lengths,
            0.5 * (u * u + v * v) / np.maximum(np.abs(u) + np.abs(v), 1e-300) * lengths,
        )
        return float(vals.sum())

    lo = float(min(h_left.min(), h_right.min()))
    hi = float(max(h_left.max(), h_right.max()))
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if total(m1) <= total(m2):
            hi = m2
        else:
            lo = m1
    return total(0.5 * (lo + hi))


angle_lists = st.one_of(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=60),
    st.lists(st.sampled_from([0.0, 1.0, math.pi, -math.pi / 3, 6.0]), min_size=1, max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(angle_lists)
def test_circle_w1_median_matches_the_ternary_search(angles):
    expected = circle_w1_ternary(angles)
    assert abs(circle_w1_to_uniform(angles) - expected) <= 1e-12 * expected


def circle_w1_whole_arrays(angles):
    """Reference: ``circle_w1_to_uniform`` as it was before it reused its
    arrays, every intermediate a new full-length array."""
    two_pi = 2.0 * math.pi
    th = np.sort(np.mod(np.asarray(angles, dtype=float), two_pi))
    n = len(th)
    ts = np.concatenate([[0.0], th, [two_pi]])
    jumps = np.concatenate([[0.0], np.full(n, 1.0 / n), [0.0]])
    counts = np.cumsum(jumps)
    h_left = counts[:-1] - ts[:-1] / two_pi
    h_right = counts[:-1] - ts[1:] / two_pi
    lengths = np.diff(ts)

    ends = np.concatenate([h_right, h_left])
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    slope = np.cumsum(np.concatenate([np.ones(n + 1), -np.ones(n + 1)])[order])[:-1]
    mass = np.concatenate([[0.0], np.cumsum(slope * np.diff(ends))])
    half = 0.5 * mass[-1]
    k = int(np.searchsorted(mass, half))
    c = ends[k - 1] + (half - mass[k - 1]) / slope[k - 1]

    u = h_left - c
    v = h_right - c
    vals = np.where(
        u * v >= 0,
        0.5 * (np.abs(u) + np.abs(v)) * lengths,
        0.5 * (u * u + v * v) / np.maximum(np.abs(u) + np.abs(v), 1e-300) * lengths,
    )
    return float(vals.sum())


def _angle_sets():
    """Random angle sets with repeated angles, multiples of 2 pi and
    negative angles, at sizes on both sides of numpy's buffer size."""
    rng = np.random.default_rng(34)
    sets = []
    for size in (1, 2, 7, 1000, np.getbufsize() - 1, np.getbufsize(), 3 * np.getbufsize() + 5):
        angles = rng.uniform(-20.0, 20.0, size)
        angles[: size // 3] = angles[0]
        turns = rng.integers(-3, 4, size // 4)
        angles[size - size // 4:] = 2 * math.pi * turns
        sets.append(rng.permutation(angles))
        sets.append(np.round(angles, 1))
    return sets


def test_circle_w1_equals_the_whole_array_formulation_bit_for_bit():
    levels = list(preimage_levels((1.0, 0.0, 0.0), complex(1.7), 16, "complex"))
    for angles in [np.angle(pts) for pts in levels] + _angle_sets():
        assert circle_w1_to_uniform(angles).hex() == circle_w1_whole_arrays(angles).hex()


def test_the_working_set_of_the_circle_w1_is_about_nine_arrays_per_angle():
    angles = np.angle(list(preimage_levels((1.0, 0.0, 0.0), complex(1.7), 16, "complex"))[-1])
    assert len(angles) == 2 ** 16
    tracemalloc.start()
    try:
        circle_w1_to_uniform(angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-array formulation peaks at about 170 bytes per angle
    # (10.6 MB here); one float64 per angle is 8 bytes
    assert peak <= 80 * len(angles), peak


def test_backward_square_preimages_stay_on_circle():
    r = backward_equidistribution("square", complex(0.6, 0.8), 6)
    assert r["series"][-1]["distance"] < 0.05


def test_backward_square_converges():
    r = backward_equidistribution("square", 1.7, 12)
    dists = [row["distance"] for row in r["series"]]
    assert dists[-1] <= 0.02
    assert all(b <= a + 1e-12 for a, b in zip(dists[3:], dists[4:]))
    with pytest.raises(ValueError):
        backward_equidistribution("square", 0.0, 3)


def test_backward_cheb_converges_to_arcsine():
    r = backward_equidistribution("cheb", 0.3, 14)
    assert r["series"][-1]["distance"] <= 0.02
    with pytest.raises(ValueError):
        backward_equidistribution("cheb", 1.5, 3)


def test_backward_cantor_non_increasing_after_burn_in():
    r = backward_equidistribution("cantor", 3.0, 10)
    dists = [row["distance"] for row in r["series"]]
    assert all(b <= a + 1e-12 for a, b in zip(dists[3:], dists[4:]))
    with pytest.raises(ValueError):
        backward_equidistribution("nope", 1.0, 3)


@pytest.mark.parametrize("model,seed_point", [("square", 1.7), ("cheb", 0.3), ("cantor", 3.0)])
def test_backward_depth_is_capped(model, seed_point, tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "backward_equidistribution",
                        lambda *args: pytest.fail("it ran"))
    kind = f"backward-{model}"
    for depth in (0, BUDGETS["experiment"]["--n"][kind] + 1):
        assert main(["experiment", "--kind", kind, "--seed-point", str(seed_point),
                     "--n", str(depth), "--out", str(tmp_path)]) == 2


# The hand-written preimage loops that ``spectra.preimages`` replaced.


def _reference_skew_points(eta0, n):
    pts = np.array([eta0], dtype=float)
    for _ in range(n):
        disc = 13.0 + 4.0 * pts
        if np.any(disc < 0):
            raise ValueError("complex branch encountered in real mode")
        root = np.sqrt(disc)
        pts = np.concatenate([(1.0 + root) / 2.0, (1.0 - root) / 2.0])
    return pts


def _reference_backward_levels(model, seed_point, n):
    """The preimage set at each depth 1..n, as the old per-model loops built it."""
    if model == "square":
        pts = np.array([complex(seed_point)], dtype=complex)
    else:
        pts = np.array([float(seed_point)])
    levels = []
    for _ in range(n):
        if model == "square":
            root = np.sqrt(pts)
            pts = np.concatenate([root, -root])
        elif model == "cheb":
            root = np.sqrt((pts + 1.0) / 2.0)
            pts = np.concatenate([root, -root])
        else:
            root = np.sqrt(13.0 + 4.0 * pts)
            pts = np.concatenate([(1.0 + root) / 2.0, (1.0 - root) / 2.0])
        levels.append(pts)
    return levels


@pytest.mark.parametrize("eta0,n", [(3.0, 12), (0.37, 9), (2.2, 8)],
                         ids=["3.0-12-real", "0.37-9-real", "2.2-8-real"])
def test_skew_cantor_matches_the_reference_loop_bit_for_bit(eta0, n):
    r = skew_cantor_experiment(eta0, n)
    pts = _reference_skew_points(eta0, n)
    measure = Samples.of(pts)
    assert r["measure"].points.tobytes() == measure.points.tobytes()
    assert r["measure"].cumulative.tobytes() == measure.cumulative.tobytes()
    assert r["line_points"] == [(float(e), float(0.7 + 0.4 * e)) for e in pts[:64]]
    _, reference = julia_backward((1, -1, -3), 12)
    assert r["w1_to_balanced"] == sample_w1(measure, reference)


@pytest.mark.parametrize("model,seed_point,n", [
    ("square", 1.7, 16), ("square", complex(-0.6, 0.8), 10), ("square", -2.0, 10),
    ("cheb", 0.3, 16), ("cheb", -1.0, 8), ("cantor", 1.7, 16), ("cantor", 3.0, 10)])
def test_backward_series_match_the_reference_loops(model, seed_point, n):
    series = backward_equidistribution(model, seed_point, n)["series"]
    levels = _reference_backward_levels(model, seed_point, n)
    if model == "square":
        # the generic step meets the branch cut with other signed zeros, so
        # the preimages come out in another order: compare the sets
        expected = [circle_w1_to_uniform(np.angle(pts)) for pts in levels]
        pts = np.array([complex(seed_point)])
        for level in levels:
            pts = np.concatenate(preimages((1.0, 0.0, 0.0), pts, "complex"))
            assert np.array_equal(np.sort_complex(pts), np.sort_complex(level))
    elif model == "cheb":
        expected = [kolmogorov_to_cdf(Samples.of(pts), arcsine_cdf)
                    for pts in levels]
    else:
        _, reference = julia_backward(CANTOR_BASE, 12)
        expected = [sample_w1(Samples.of(pts), reference)
                    for pts in levels]
    assert [row["distance"] for row in series] == expected
    assert [row["depth"] for row in series] == list(range(1, n + 1))
