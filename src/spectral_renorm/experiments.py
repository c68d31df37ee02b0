"""Equidistribution experiments on the three model systems.

These are the desk-scale companions of the conjugacy module: backward
iteration toward measures of maximal entropy, fiber counting on the elliptic
cylinder of the twist family, and vertical-fiber transport over the Cantor
base dynamics.

The twist fiber map z -> (eta z - 4)/z has Moebius matrix [[eta, -4], [1, 0]]
of determinant 4, so it is elliptic exactly for |eta| < 4 and its fixed
points are 2 e^(+- i phi) with cos(phi) = eta/4.  Conjugating the real line
onto the unit circle turns the map into multiplication by e^(i rho(eta))
with rho = 2 pi - 2 arccos(eta / 4): the matrix half-angle doubles on the
sphere, so rho sweeps the full circle as eta crosses (-4, 4).  The invariant
transverse law on the eta-axis is therefore d(eta) / (pi sqrt(16 - eta^2)).
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
    preimages,
)

TWIST_COUNT_MAX = 200
SKEW_DEPTH_MAX = 14
# 2^20 preimages: on 2 cores z -> z^2 takes about 1 s at depth 20, the other two models under 3 s
BACKWARD_DEPTH_MAX = 20
# |seed| bound of the square and cantor models: a preimage step computes 4·seed
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
TWIST_REFINE = 64  # bracketing subdivisions per rotation subinterval, 8x on failure


# ---------------------------------------------------------------------------
# Twist family on the elliptic cylinder
# ---------------------------------------------------------------------------


def twist_rho(eta: np.ndarray) -> np.ndarray:
    """Rotation number of the fiber map, increasing from 0 to 2 pi on (-4, 4)."""
    return 2.0 * math.pi - 2.0 * np.arccos(np.clip(np.asarray(eta, dtype=float) / 4.0, -1, 1))


def twist_rho_inverse(omega: np.ndarray) -> np.ndarray:
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
    (mod 2 pi).  Bracketing failures trigger a refined subdivision.
    ``TWIST_LINE`` (intercept, slope in plane coordinates) carries the
    output measure; the count and the eta-marginal do not depend on it.

    Returns the count, the empirical measure of the eta values, and the
    1-Wasserstein distances to the two candidate limit laws (the measured
    rotation-number law on (-4, 4) and the narrower arc law on (-2, 2)).
    """
    if not 1 <= n <= TWIST_COUNT_MAX:
        raise ValueError(f"n must be in 1..{TWIST_COUNT_MAX}")
    _certify_rotation_number()
    c0, c1 = TWIST_CURVE

    def lifted(omega: float) -> float:
        return c0 + c1 * float(twist_rho_inverse(omega)) - n * omega

    two_pi = 2.0 * math.pi
    roots = []
    for k in range(n):
        a = two_pi * k / n
        b = two_pi * (k + 1) / n
        root = _circle_root(lifted, a, b, two_pi, TWIST_REFINE)
        if root is None:
            root = _circle_root(lifted, a, b, two_pi, TWIST_REFINE * 8)
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
        "plane_line_count": None,
    }


_ROTATION_CERTIFIED = False


def _certify_rotation_number(grid: int = 4001) -> None:
    """One-time grid certificate that the rotation number is strictly
    monotone on the elliptic locus (a precondition of the subinterval root
    bracketing)."""
    global _ROTATION_CERTIFIED
    if _ROTATION_CERTIFIED:
        return
    etas = np.linspace(-4.0 + 1e-9, 4.0 - 1e-9, grid)
    rho = twist_rho(etas)
    if not np.all(np.diff(rho) > 0):
        raise AssertionError("rotation number not strictly monotone on the grid")
    _ROTATION_CERTIFIED = True


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
    beta = TWIST_LINE(alpha), counted as real roots of the Moebius-power
    polynomial in the elliptic strip.

    For affine plane lines this exceeds the model count by the relative
    winding of the two transported graphs (one extra point generically).
    """
    import numpy.polynomial.polynomial as P

    ident = [[np.array([1.0]), np.array([0.0])], [np.array([0.0]), np.array([1.0])]]
    gen = [[np.array([0.0, 1.0]), np.array([-4.0])], [np.array([1.0]), np.array([0.0])]]
    cur = ident
    for _ in range(n):
        cur = [
            [
                P.polyadd(P.polymul(gen[i][0], cur[0][j]), P.polymul(gen[i][1], cur[1][j]))
                for j in range(2)
            ]
            for i in range(2)
        ]
    lpoly = np.array(TWIST_LINE)
    gpoly = np.array(TWIST_PLANE_CURVE)
    h = P.polysub(
        P.polyadd(P.polymul(cur[0][0], lpoly), cur[0][1]),
        P.polymul(gpoly, P.polyadd(P.polymul(cur[1][0], lpoly), cur[1][1])),
    )
    roots = np.roots(h[::-1])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return int(np.count_nonzero((real > -4.0) & (real < 4.0)))


# ---------------------------------------------------------------------------
# Skew product over the Cantor base
# ---------------------------------------------------------------------------


def skew_cantor_experiment(eta0: float = 3.0, n: int = 10, line: tuple = (0.7, 0.4),
                           domain: str = "real") -> dict:
    """Vertical-fiber preimages of {eta0} x C under the skew product over
    z^2 - z - 3, sliced by a line.

    The time-n preimage is a union of 2^n vertical fibers over the n-th
    inverse images of eta0; the slice measure on the line (neither vertical
    nor horizontal) is carried by the eta-marginal, which is compared in
    1-Wasserstein distance to the backward-orbit approximation of the
    balanced measure of the base polynomial.  A complex inverse branch in
    real mode raises; pass ``domain='complex'`` to keep going (the measure
    then lives on the real parts).
    """
    if not 1 <= n <= SKEW_DEPTH_MAX:
        raise ValueError(f"depth must be in 1..{SKEW_DEPTH_MAX}")
    if not math.isfinite(eta0):
        raise ValueError(f"eta0 must be finite, not {eta0}")
    intercept, slope = line
    if slope == 0:
        raise ValueError("line must not be horizontal")
    pts = np.array([eta0], dtype=complex if domain == "complex" else float)
    for _ in range(n):
        pts = np.concatenate(preimages(CANTOR_BASE, pts, domain))
    pts = np.real(pts)
    measure = Measure1D.from_samples(pts)
    _, reference = julia_backward(CANTOR_BASE, CANTOR_REFERENCE_DEPTH)
    w1 = cdf_distance(measure, reference, "wasserstein1")
    return {
        "eta0": eta0,
        "depth": n,
        "count": len(pts),
        "measure": measure,
        "line_points": [(float(e), float(intercept + slope * e)) for e in pts[:64]],
        "w1_to_balanced": w1,
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
    th = np.sort(np.mod(np.asarray(angles, dtype=float), two_pi))
    n = len(th)
    # segment endpoints: 0, th_1, ..., th_n, 2pi; on each segment H is linear
    ts = np.concatenate([[0.0], th, [two_pi]])
    jumps = np.concatenate([[0.0], np.full(n, 1.0 / n), [0.0]])
    counts = np.cumsum(jumps)  # F_emp just after each breakpoint
    h_left = counts[:-1] - ts[:-1] / two_pi
    h_right = counts[:-1] - ts[1:] / two_pi
    lengths = np.diff(ts)

    ends = np.concatenate([h_right, h_left])
    order = np.argsort(ends, kind="stable")  # on ties the rises come first
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


def _check_seed_modulus(start) -> None:
    if not abs(start) <= SEED_POINT_MAX:  # also refuses inf and nan
        raise ValueError(f"seed point must be finite with modulus at most {SEED_POINT_MAX:g}, "
                         f"not {start}")


def backward_equidistribution(model: str, seed_point, n: int) -> dict:
    """Distance series of backward-orbit empirical measures to the limit law.

    - ``square``: preimages of a nonzero seed under z -> z^2; angular
      1-Wasserstein distance to the uniform circle law per depth.
    - ``cheb``: preimages under z -> 2 z^2 - 1; Kolmogorov distance to the
      arcsine law on [-1, 1].
    - ``cantor``: preimages under z -> z^2 - z - 3 from the given real seed;
      1-Wasserstein distance to the depth-``CANTOR_REFERENCE_DEPTH``
      backward orbit of the repelling fixed point.

    The depth ``n`` is at most ``BACKWARD_DEPTH_MAX``.
    """
    if not 1 <= n <= BACKWARD_DEPTH_MAX:
        raise ValueError(f"depth must be in 1..{BACKWARD_DEPTH_MAX}")
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
        _, reference = julia_backward(CANTOR_BASE, CANTOR_REFERENCE_DEPTH)
        poly, domain, metric = CANTOR_BASE, "real", "wasserstein1"
        distance = lambda pts: cdf_distance(Measure1D.from_samples(pts), reference,
                                            "wasserstein1")
    else:
        raise ValueError("model must be 'square', 'cheb', or 'cantor'")
    pts = np.array([start])
    series = []
    for depth in range(1, n + 1):
        pts = np.concatenate(preimages(poly, pts, domain))
        series.append({"depth": depth, "distance": distance(pts), "metric": metric})
    return {"model": model, "seed": repr(seed_point), "series": series}
