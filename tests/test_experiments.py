"""Model-system equidistribution experiments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_renorm.experiments import (
    BACKWARD_DEPTH_MAX,
    ModelSystem,
    arccos_law_cdf,
    backward_equidistribution,
    circle_w1_to_uniform,
    skew_cantor_experiment,
    twist_experiment,
    twist_plane_count,
    twist_rho,
    twist_rho_inverse,
)


def test_model_system_steps():
    sq = ModelSystem("product_square")
    assert sq.step(2.0, 3.0) == (2.0, 9.0)
    tw = ModelSystem("twist")
    assert tw.step(2.0, 1.0) == (2.0, -2.0)
    sk = ModelSystem("skew_cantor")
    eta, z = sk.step(3.0, 1.0)
    assert eta == 3.0 and abs(z - (2.0 * 5.0 / 6.0)) < 1e-12
    with pytest.raises(ValueError):
        ModelSystem("nope").step(0, 1)


def test_rotation_number_monotone_and_surjective():
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


def test_twist_budget():
    with pytest.raises(ValueError):
        twist_experiment(500)


def test_twist_plane_coordinates_cross_check():
    # honest plane-line intersections carry one extra winding point
    assert twist_plane_count(10) == 11
    assert twist_plane_count(3) == 4


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
    with pytest.raises(ValueError):
        skew_cantor_experiment(3.0, 99)
    with pytest.raises(ValueError):
        skew_cantor_experiment(3.0, 3, line=(0.5, 0.0))


def test_skew_cantor_complex_branch_handling():
    with pytest.raises(ValueError):
        skew_cantor_experiment(-4.0, 2)  # disc < 0 on the first pullback
    r = skew_cantor_experiment(-4.0, 2, domain="complex")
    assert r["count"] == 4


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
def test_backward_depth_is_capped(model, seed_point):
    for depth in (0, BACKWARD_DEPTH_MAX + 1):
        with pytest.raises(ValueError, match="depth must be in"):
            backward_equidistribution(model, seed_point, depth)
