"""Equidistribution experiments on the three model systems.

These are the desk-scale companions of the conjugacy module: backward
iteration toward measures of maximal entropy, fiber counting on the elliptic
cylinder of the twist family, and vertical-fiber transport over the Cantor
base dynamics, which is the backward ``cantor`` model read at depth n.

The twist fiber map z -> (eta z - 4)/z has Moebius matrix [[eta, -4], [1, 0]]
of determinant 4, so it is elliptic exactly for |eta| < 4 and its fixed
points are 2 e^(+- i phi) with cos(phi) = eta/4.  Conjugating the real line
onto the unit circle turns the map into multiplication by e^(i rho(eta))
with rho = 2 pi - 2 arccos(eta / 4): the matrix half-angle doubles on the
sphere, so rho sweeps the full circle as eta crosses (-4, 4).  The invariant
transverse law on the eta-axis is therefore d(eta) / (pi sqrt(16 - eta^2)).
The powers of the matrix have the closed form M^n = s_n M - 4 s_(n-1) I with
s_k = 2^(k-1) sin(k phi) / sin(phi), which the plane-coordinates count reads.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from spectral_renorm.spectra import (
    _HANOI_FIBER,
    Measure1D,
    arcsine_cdf,
    cdf_distance,
    julia_backward,
    kolmogorov_to_cdf,
    preimage_levels,
)

# |seed| bound of the square and cantor models and of the skew product's eta0:
# a preimage step computes 4·seed
SEED_POINT_MAX = 1e300
CANTOR_BASE = _HANOI_FIBER  # z^2 - z - 3, the base of the skew product
# depth of the backward orbit of CANTOR_BASE's repelling fixed point that
# stands for its balanced measure
CANTOR_REFERENCE_DEPTH = 12
# twist-model graphs as (intercept, slope): the curve eta -> angle in the
# angular model coordinate, its plane counterpart alpha -> beta, and the
# plane line alpha -> beta that carries the output measure
TWIST_CURVE = (math.pi, 0.45)
TWIST_PLANE_CURVE = (0.6, 0.35)
TWIST_LINE = (0.0, 1.0)
# the line eta -> y, neither vertical nor horizontal, that slices the skew
# product's vertical fibers, as (intercept, slope)
SKEW_LINE = (0.7, 0.4)
# grid points per rotation subinterval of the model count, and per 1/(n + 1)
# of the half circle in the plane count
TWIST_REFINE = 64


# ---------------------------------------------------------------------------
# Twist family on the elliptic cylinder
# ---------------------------------------------------------------------------


def twist_rho_inverse(omega: np.ndarray) -> np.ndarray:
    """eta at rotation number omega, the inverse of 2 pi - 2 arccos(eta / 4)."""
    return -4.0 * np.cos(np.asarray(omega, dtype=float) / 2.0)


def arccos_law_cdf(eta: float) -> float:
    """CDF of d(eta)/(pi sqrt(16 - eta^2)) on (-4, 4)."""
    return arcsine_cdf(eta / 4.0)


def narrow_arc_law_cdf(eta: float) -> float:
    """CDF of the narrower candidate law on (-2, 2) (see the report fields)."""
    return arcsine_cdf(eta / 2.0)


def w1_to_cdf(measure: Measure1D, cdf: Callable[[float], float], lo: float, hi: float,
              grid: int = 20001) -> float:
    """1-Wasserstein distance between an atomic measure and a continuous CDF
    by integrating |F_emp - F| on a fine grid."""
    xs = np.linspace(lo, hi, grid)
    femp = measure.cdf_array(xs)
    f = np.array([cdf(x) for x in xs])
    diff = np.abs(femp - f)
    dx = xs[1] - xs[0]
    return float(np.sum(0.5 * (diff[:-1] + diff[1:]) * dx))


def twist_experiment(n: int) -> dict:
    """Fiber intersection count and law for the twist model at time n.

    ``TWIST_CURVE`` is the affine graph g of the pulled-back curve over the
    elliptic locus in the angular model coordinate.  It takes its angle
    values inside (0, 2 pi) (the canonical representative), so each
    subinterval [2 pi k / n, 2 pi (k+1) / n] of the rotation coordinate
    brackets exactly one solution of g(rho^-1(omega)) - n omega = 0
    (mod 2 pi).  That function is strictly decreasing (rho^-1 has slope at
    most 2, so its slope is at most 2 * 0.45 - n < 0), so the bracketing grid
    finds every crossing, and a finer one would find no other; a subinterval
    without one is skipped, and the count shows it.
    ``TWIST_LINE`` (intercept, slope in plane coordinates) carries the
    output measure; the count and the eta-marginal do not depend on it.

    Returns the count, the empirical measure of the eta values, and the
    1-Wasserstein distances to the two candidate limit laws (the measured
    rotation-number law on (-4, 4) and the narrower arc law on (-2, 2)).
    """
    c0, c1 = TWIST_CURVE

    def lifted(omega: float) -> float:
        return c0 + c1 * float(twist_rho_inverse(omega)) - n * omega

    two_pi = 2.0 * math.pi
    roots = []
    for k in range(n):
        a = two_pi * k / n
        b = two_pi * (k + 1) / n
        root = _circle_root(lifted, a, b, two_pi, TWIST_REFINE)
        if root is not None:
            roots.append(root)
    etas = twist_rho_inverse(np.array(roots))
    measure = Measure1D.from_samples(etas)
    w_wide = w1_to_cdf(measure, arccos_law_cdf, -4.0, 4.0)
    w_narrow = w1_to_cdf(measure, narrow_arc_law_cdf, -4.0, 4.0)
    intercept, slope = TWIST_LINE
    line_points = [(float(e), float(intercept + slope * e)) for e in etas]
    return {
        "n": n,
        "count": len(roots),
        "measure": measure,
        "line_points": line_points,
        "w1_arccos_law": w_wide,
        "w1_narrow_law": w_narrow,
    }


def _circle_root(f: Callable[[float], float], a: float, b: float, period: float,
                 refine: int):
    """One root of f = 0 (mod period) in [a, b) by bracketing a crossing of
    a period multiple and bisecting."""
    xs = np.linspace(a, b, refine + 1)
    vals = np.array([f(x) for x in xs])
    for i in range(refine):
        lo, hi = vals[i], vals[i + 1]
        klo, khi = math.ceil(min(lo, hi) / period), math.floor(max(lo, hi) / period)
        if klo > khi:
            continue
        level = klo * period
        x0, x1 = xs[i], xs[i + 1]
        f0 = f(x0) - level
        for _ in range(80):
            mid = 0.5 * (x0 + x1)
            fm = f(mid) - level
            if f0 * fm <= 0:
                x1 = mid
            else:
                x0, f0 = mid, fm
        return 0.5 * (x0 + x1)
    return None


def twist_plane_count(n: int) -> int:
    """Exact-coordinate cross-check: intersections of the time-n pullback of
    the plane line beta = TWIST_PLANE_CURVE(alpha) with
    beta = TWIST_LINE(alpha) over the elliptic strip.

    With M = [[eta, -4], [1, 0]] and eta = 4 cos(phi), Cayley-Hamilton gives
    M^n = s_n M - 4 s_(n-1) I with s_k = 2^(k-1) sin(k phi) / sin(phi), so
    on phi in (0, pi) the degree-(n + 1) polynomial in eta whose real roots
    are the intersections has the sign of
    sin(n phi)(eta l - 4 - g l) - 2 sin((n-1) phi)(l - g), where l and g are
    the two graphs at eta.  Its sign changes are counted on a grid of
    ``TWIST_REFINE`` points per 1/(n + 1) of the half circle; n + 1 changes
    account for every root.

    For affine plane lines this exceeds the model count by the relative
    winding of the two transported graphs (one extra point generically).
    """
    phi = np.linspace(0.0, math.pi, TWIST_REFINE * (n + 1) + 1)[1:-1]
    eta = 4.0 * np.cos(phi)
    line = TWIST_LINE[0] + TWIST_LINE[1] * eta
    curve = TWIST_PLANE_CURVE[0] + TWIST_PLANE_CURVE[1] * eta
    value = (np.sin(n * phi) * (eta * line - 4.0 - curve * line)
             - 2.0 * np.sin((n - 1) * phi) * (line - curve))
    signs = np.sign(value[value != 0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# Skew product over the Cantor base
# ---------------------------------------------------------------------------


def skew_cantor_experiment(eta0: float = 3.0, n: int = 10) -> dict:
    """Vertical-fiber preimages of {eta0} x C under the skew product over
    z^2 - z - 3, sliced by the line ``SKEW_LINE``.

    The time-n preimage is a union of 2^n vertical fibers over the n-th
    inverse images of eta0: the ``cantor`` model of
    ``backward_equidistribution`` read at depth n.  The slice measure on the
    line is carried by the eta-marginal, compared in 1-Wasserstein distance
    to the balanced measure of the base polynomial.  The inverse images are
    real: a complex inverse branch raises, as it does at eta0 = -4.
    """
    _check_seed_modulus(eta0, "--eta0")
    *_, pts = preimage_levels(CANTOR_BASE, float(eta0), n)
    measure = Measure1D.from_samples(pts)
    intercept, slope = SKEW_LINE
    return {
        "eta0": eta0,
        "depth": n,
        "count": len(pts),
        "measure": measure,
        "line_points": [(float(e), float(intercept + slope * e)) for e in pts[:64]],
        "w1_to_balanced": cdf_distance(measure, _balanced(), "wasserstein1"),
    }


# ---------------------------------------------------------------------------
# Backward equidistribution for the three one-dimensional models
# ---------------------------------------------------------------------------


def circle_w1_to_uniform(angles: np.ndarray) -> float:
    """1-Wasserstein distance on the circle (circumference 2 pi) between the
    empirical measure of ``angles`` and the uniform law.

    With H = F_emp - F_unif, the distance is min_c integral |H - c|, reached
    at the median c of the values of H.  On each segment between atoms H
    falls linearly with slope -1/(2 pi), so its values are a sum of uniform
    laws, one on [h_right, h_left] per segment: their distribution function
    is piecewise linear, its slope rising by one at each h_right and falling
    by one at each h_left.  The integral is evaluated exactly on the
    piecewise-linear parts.
    """
    two_pi = 2.0 * math.pi
    angles = np.asarray(angles, dtype=float)
    n = len(angles)
    # segment endpoints: 0, th_1, ..., th_n (sorted), 2pi; on each segment H is linear
    ts = np.empty(n + 2)
    ts[0], ts[-1] = 0.0, two_pi
    np.mod(angles, two_pi, out=ts[1:-1]).sort()
    # ends = [h_right | h_left]; h_left holds F_emp just after each
    # breakpoint until h_right is taken from it
    ends = np.empty(2 * n + 2)
    h_right, h_left = ends[:n + 1], ends[n + 1:]
    h_left[0] = 0.0
    h_left[1:] = 1.0 / n
    np.cumsum(h_left, out=h_left)
    np.divide(ts[1:], two_pi, out=h_right)
    np.subtract(h_left, h_right, out=h_right)
    np.subtract(h_left, ts[:-1] / two_pi, out=h_left)
    c = _median_of_values(ends)

    # the integral per segment, a block of numpy's buffer size at a time
    vals = np.empty(n + 1)
    step = np.getbufsize()
    for start in range(0, n + 1, step):
        stop = min(start + step, n + 1)
        u = h_left[start:stop] - c
        v = h_right[start:stop] - c
        lengths = np.diff(ts[start:stop + 1])
        vals[start:stop] = np.where(
            u * v >= 0,
            0.5 * (np.abs(u) + np.abs(v)) * lengths,
            0.5 * (u * u + v * v) / np.maximum(np.abs(u) + np.abs(v), 1e-300) * lengths,
        )
    return float(vals.sum())


def _median_of_values(ends: np.ndarray) -> float:
    """The median of the values of H for ``circle_w1_to_uniform``, where
    ``ends`` = [h_right | h_left] holds H's value at the right and left end
    of each segment, the first half the rises of the distribution function
    of H's values and the second half its falls."""
    order = np.argsort(ends, kind="stable")  # on ties the rises come first
    sorted_ends = ends[order]
    slope = np.where(order < len(ends) // 2, 1.0, -1.0)
    del order  # before mass, so that at most four such arrays live at once
    np.cumsum(slope, out=slope)
    # mass[i]: the distribution function at sorted_ends[i]
    mass = np.empty(len(ends))
    mass[0] = 0.0
    np.subtract(sorted_ends[1:], sorted_ends[:-1], out=mass[1:])
    np.multiply(slope[:-1], mass[1:], out=mass[1:])
    np.cumsum(mass[1:], out=mass[1:])
    half = 0.5 * mass[-1]
    k = int(np.searchsorted(mass, half))
    return sorted_ends[k - 1] + (half - mass[k - 1]) / slope[k - 1]


def _check_seed_modulus(start, name: str = "seed point") -> None:
    if not abs(start) <= SEED_POINT_MAX:  # also refuses inf and nan
        raise ValueError(f"{name} must be finite with modulus at most {SEED_POINT_MAX:g}, "
                         f"not {start}")


def _balanced() -> Measure1D:
    """The balanced measure of ``CANTOR_BASE``: its depth-
    ``CANTOR_REFERENCE_DEPTH`` backward orbit of the repelling fixed point."""
    return julia_backward(CANTOR_BASE, CANTOR_REFERENCE_DEPTH)[1]


def backward_equidistribution(model: str, seed_point, n: int) -> dict:
    """Distance series of backward-orbit empirical measures to the limit law.

    - ``square``: preimages of a nonzero seed under z -> z^2; angular
      1-Wasserstein distance to the uniform circle law per depth.
    - ``cheb``: preimages under z -> 2 z^2 - 1; Kolmogorov distance to the
      arcsine law on [-1, 1].
    - ``cantor``: preimages under z -> z^2 - z - 3 from the given real seed;
      1-Wasserstein distance to the balanced measure (``_balanced``).
    """
    if model == "square":
        start = complex(seed_point)
        _check_seed_modulus(start)
        if start == 0:
            raise ValueError("exceptional seed")
        poly, domain, metric = (1.0, 0.0, 0.0), "complex", "circle_w1"
        distance = lambda pts: circle_w1_to_uniform(np.angle(pts))
    elif model == "cheb":
        start = float(seed_point)
        if not -1.0 <= start <= 1.0:
            raise ValueError("seed must lie in [-1, 1]")
        poly, domain, metric = (2.0, 0.0, -1.0), "real", "kolmogorov"
        distance = lambda pts: kolmogorov_to_cdf(Measure1D.from_samples(pts), arcsine_cdf)
    elif model == "cantor":
        start = float(seed_point)
        _check_seed_modulus(start)
        reference = _balanced()
        poly, domain, metric = CANTOR_BASE, "real", "wasserstein1"
        distance = lambda pts: cdf_distance(Measure1D.from_samples(pts), reference,
                                            "wasserstein1")
    else:
        raise ValueError("model must be 'square', 'cheb', or 'cantor'")
    series = [{"depth": depth, "distance": distance(pts), "metric": metric}
              for depth, pts in enumerate(preimage_levels(poly, start, n, domain), 1)]
    return {"model": model, "seed": repr(seed_point), "series": series}
