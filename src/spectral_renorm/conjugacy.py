"""Exact (semi-)conjugacy identities and the fibers of the invariant eta.

Every identity is stated as the map facts of ``verification`` are.  A
function on P^2 is a pair (A, B) of homogeneous forms of one degree in
(x, y, w), with value A/B at [lam : mu : 1]; a one-variable map is a pair of
binary forms in (a, b), sending a/b to A(a, b)/B(a, b).  Composition is
substitution, ``MultiPoly.subs`` on each form (``maps.compose``): f o F is
f with the components of F substituted, T o (A, B) is T with (A, B)
substituted.  Two pairs are the same function when they are proportional
(``maps.proportional``: A1 B2 = A2 B1, the first pair not (0, 0)), so no
fraction is formed and none needs cancelling.

The fibers of eta = (4 - lam^2 + mu^2)/(4 mu) carry the coordinate z of
``fiber_coordinate``, which needs s = sqrt(eta^2 - 1).  The conic
s^2 = eta^2 - 1 is rational: eta = (t^2 + 1)/(2t), s = (t^2 - 1)/(2t), and
t -> eta + s is an isomorphism of Q(t, z) onto Q(eta, z)[s]/(s^2 - eta^2 + 1)
(eta - s = 1/t), so a fiber identity holds for s exactly when it holds in
Q(t, z).  The point at coordinate z on the fiber over eta(t) is

    iota(t, z) = [-2(t^2 - 1) z : 2t(z^2 - 1) : z^2 - t^2]    (``FIBER_POINT``),

and the fiber identities are proportionalities of polynomial triples in
(t, z).  ``fiber_inverse`` and ``fiber_coordinate`` are the same
parametrization as field formulas in (eta, s, z); the float spot check
evaluates them with one numeric square root s per sample, and the tests
check at rational points that they are iota and its inverse.
"""

from __future__ import annotations

import cmath
import random

from spectral_renorm.ratmaps.maps import builtin_map, compose, proportional
from spectral_renorm.ratmaps.poly import MultiPoly

FIBER_TOL = 1e-9  # largest error of the fiber identities the float spot check accepts

# (x, y, w) on P^2 with lam = x/w, mu = y/w; (a, b) on P^1 with z = a/b;
# (a0, a1, b0, b1) on P^1 x P^1 for the fiber maps of the skew products;
# (t, z) on the fibers of eta
_x, _y, _w = (MultiPoly.variable(3, i) for i in range(3))
_a, _b = (MultiPoly.variable(2, i) for i in range(2))
_a0, _a1, _b0, _b1 = (MultiPoly.variable(4, i) for i in range(4))
_t, _z = (MultiPoly.variable(2, i) for i in range(2))

# eta = (4 - lam^2 + mu^2)/(4 mu), invariant under R_G
GRIG_INVARIANT = (4 * _w * _w - _x * _x + _y * _y, 4 * _y * _w)
# psi = (4 - mu^2 + lam^2)/(4 lam), intertwining R_G with z -> 2z^2 - 1
GRIG_SEMICONJUGATOR = (4 * _w * _w - _y * _y + _x * _x, 4 * _x * _w)
CHEBYSHEV = (2 * _a * _a - _b * _b, _b * _b)  # z -> 2z^2 - 1
SQUARE = (_a * _a, _b * _b)  # z -> z^2
HANOI_BASE = (_a * _a - _a * _b - 3 * _b * _b, _b * _b)  # z -> z^2 - z - 3
# lamplighter: beta -> (alpha beta - 4)/beta over alpha
LAMPLIGHTER_FIBER = (_a0 * _b0 - 4 * _a1 * _b1, _a1 * _b0)
# hanoi: v -> v (z - 1)(z + 2)/(z + 3) over z
HANOI_FIBER = ((_a0 - _a1) * (_a0 + 2 * _a1) * _b0, (_a0 + 3 * _a1) * _a1 * _b1)
FIBER_POINT = (-2 * (_t * _t - 1) * _z, 2 * _t * (_z * _z - 1), _z * _z - _t * _t)


def conjugacy_checks() -> dict:
    """All builtin conjugacy identities, each verified exactly.

    lamplighter: alpha = lam + mu is invariant and beta = lam - mu moves by
    ``LAMPLIGHTER_FIBER``; hanoi: pi1 = (lam^2 - 1 - lam mu - 2 mu^2)/mu
    moves by ``HANOI_BASE`` and pi2 = (1 + lam - 2 mu)(1 + lam + mu)/(2 mu)
    by ``HANOI_FIBER``.
    """
    r_g = builtin_map("R_G").components
    phi, psi = GRIG_INVARIANT, GRIG_SEMICONJUGATOR
    r_l = builtin_map("R_L").components
    alpha, beta = (_x + _y, _w), (_x - _y, _w)
    r_h = builtin_map("R_H").components
    pi1 = (_x * _x - _w * _w - _x * _y - 2 * _y * _y, _y * _w)
    pi2 = ((_w + _x - 2 * _y) * (_w + _x + _y), 2 * _y * _w)
    return {
        "grig_phi_invariant": proportional(compose(phi, r_g), phi),
        "grig_psi_chebyshev": proportional(compose(psi, r_g), compose(CHEBYSHEV, psi)),
        "lamplighter_skew_conjugation": (
            proportional(compose(alpha, r_l), alpha)
            and proportional(compose(beta, r_l), compose(LAMPLIGHTER_FIBER, alpha + beta))),
        "hanoi_skew_conjugation": (
            proportional(compose(pi1, r_h), compose(HANOI_BASE, pi1))
            and proportional(compose(pi2, r_h), compose(HANOI_FIBER, pi1 + pi2))),
    }


def chebyshev_semiconj_check() -> dict:
    """Pin the one-dimensional normalization intertwined by the degree-2
    semi-conjugator: 2z^2 - 1 holds, z^2 does not."""
    psi = GRIG_SEMICONJUGATOR
    lhs = compose(psi, builtin_map("R_G").components)
    report = {
        "2z^2-1": proportional(lhs, compose(CHEBYSHEV, psi)),
        "z^2": proportional(lhs, compose(SQUARE, psi)),
    }
    report["normalization"] = "2z^2-1" if report["2z^2-1"] else "undetermined"
    return report


# ---------------------------------------------------------------------------
# Fibers of eta
# ---------------------------------------------------------------------------


def _fiber_inverse_den(eta, s, z):
    return 1 + z * z + eta * s * (z * z - 1) - eta * eta * (1 + z * z)


def fiber_inverse(eta, s, z) -> tuple:
    """(lam, mu) at z on the fiber of eta, with s^2 = eta^2 - 1, in any field:
    complex floats in the spot check; at eta(t), s(t) it is iota(t, z)."""
    d = _fiber_inverse_den(eta, s, z)
    return (-4) * (eta * eta - 1) * z / d, 2 * s * (z - 1) * (z + 1) / d


def _fiber_coordinate_den(lam, mu, eta, s):
    return (-2) + lam + eta * mu - mu * s


def fiber_coordinate(lam, mu, eta, s):
    """Slope coordinate on the fiber over eta, in any field: the
    Moebius-normalized slope of the line through (lam, mu) and (2, 0)."""
    return (2 - lam - eta * mu - mu * s) / _fiber_coordinate_den(lam, mu, eta, s)


def fiber_checks_symbolic() -> dict:
    """Exact fiber identities, proportionalities of triples in (t, z):

    - the fiber return map is z -> z^2: R_G o iota(t, z) = iota(t, z^2);
    - the semi-conjugator on a fiber is the average of z and 1/z:
      psi o iota = (z^2 + 1)/(2z).
    """
    image = compose(builtin_map("R_G").components, FIBER_POINT)
    psi = compose(GRIG_SEMICONJUGATOR, FIBER_POINT)
    return {
        "fiber_return_is_square": proportional(image, compose(FIBER_POINT, (_t, _z * _z))),
        "psi_is_zhukovsky": proportional(psi, (_z * _z + 1, 2 * _z)),
    }


def fiber_conjugation_check(n_samples: int = 100, seed: int = 5) -> dict:
    """Floating spot check of the fiber identities at random points.

    Uses one consistent numeric square root s = sqrt(eta^2 - 1) per sample;
    the identities hold for either determination as long as it is used
    consistently, so no branch bookkeeping is needed pointwise.
    """
    rng = random.Random(seed)
    components = builtin_map("R_G").components
    psi_num, psi_den = GRIG_SEMICONJUGATOR
    max_err = 0.0
    worst = None
    count = 0
    while count < n_samples:
        eta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(eta - 1) < 0.2 or abs(eta + 1) < 0.2 or abs(z) < 0.2 or abs(abs(z) - 1) < 1e-3:
            continue
        s = cmath.sqrt(eta * eta - 1)
        if abs(_fiber_inverse_den(eta, s, z)) < 1e-9:
            continue
        lam, mu = fiber_inverse(eta, s, z)
        if abs(4 - mu * mu) < 1e-9 or abs(lam) < 1e-12:
            continue
        point = (lam, mu, 1)
        p0, p1, p2 = (c.eval(point) for c in components)
        f1, f2 = p0 / p2, p1 / p2
        if abs(_fiber_coordinate_den(f1, f2, eta, s)) < 1e-12:
            continue
        err1 = abs(fiber_coordinate(f1, f2, eta, s) - z * z)
        err2 = abs(psi_num.eval(point) / psi_den.eval(point) - 0.5 * (z + 1 / z))
        err = max(err1, err2)
        if err > max_err:
            max_err, worst = err, (eta, z)
        count += 1
    report = {"samples": n_samples, "max_error": float(max_err), "tol": FIBER_TOL,
              "passed": bool(max_err <= FIBER_TOL), "worst": repr(worst)}
    report["symbolic"] = fiber_checks_symbolic()
    return report
