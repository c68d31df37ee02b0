"""Renormalized logarithmic potential of a determinant cascade.

For a pencil whose level-n determinant satisfies

    P_n = s_n * prod_i Q_i^(m_i d^(n - p_i)) * P_(n-1) o R,

the normalized potential (1/d^n) log |P_n| telescopes to

    u_n(x) = sum_(j=0)^(n-1-s) sum_i m_i d^(-(j+p_i)) log |Q_i(R^j x)|
             + d^(-n) log |P_seed(R^(n-s) x)|,

where s is the level of the closed-form seed polynomial, so u_n exists for
n >= s only.  One loop (``_telescope``) evaluates this sum over an array of
projective points, renormalizing them to max-norm 1 after every step; the
seed tail is its last weighted log term.  The forms evaluated at one orbit
step share one table of coordinate powers.  ``potential_grid`` runs the
loop on a window's meshgrid.  The first event of an orbit decides its
value: a zero of a factor or of the seed gets -inf, and a dead orbit (one
that reaches an indeterminacy point or the line at infinity) gets NaN, also
where a zero follows its death.  Floats can miss a zero that the orbit
starts on, so each factor's starting value carries the bound
``maps._error_bound`` on its rounding error, and every starting point whose
value is within that bound of 0, and only those, gets the exact
``Fraction`` test of the factors (``_on_factor_zero``): it reads -inf if it
lies on a factor's zero set, whatever its orbit does later.  A point on a
zero set has its value within the bound, so no such point is missed.  The
tests evaluate the same loop at single points with the scalar form
``potential`` of ``tests/exact_reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from spectral_renorm.ratmaps.maps import PowerTable, _error_bound, _grid_eval, builtin_map
from spectral_renorm.ratmaps.poly import MultiPoly

NEG_INF = float("-inf")


def _homogenize(poly2: MultiPoly) -> MultiPoly:
    """Affine 2-variable polynomial -> homogeneous 3-variable form."""
    deg = poly2.total_degree()
    terms = {}
    for (i, j), c in poly2.terms.items():
        terms[(i, j, deg - i - j)] = c
    return MultiPoly(3, terms)


def _telescope(scheme, lam: np.ndarray, mu: np.ndarray, n: int) -> tuple:
    """u_n of a ``pencils.PencilScheme`` at the affine points (lam, mu), flat
    float arrays of one length.  The scheme gives the factors (Q_i as affine
    polynomials in (lam, mu), m_i, p_i), the seed polynomial at its seed
    level, the branching d and the name of the renormalization map.

    Returns (values, neg_inf, dead): values carry -inf at factor or seed
    zeros met while the orbit lives and NaN at orbits that died first, which
    the two disjoint boolean masks flag.
    """
    if n < scheme.seed_level:
        raise ValueError(f"level {n} is below the seed level {scheme.seed_level}")
    pts = np.stack([lam, mu, np.ones(lam.size)], axis=0)
    pts = pts / np.max(np.abs(pts), axis=0, keepdims=True)
    d = scheme.d
    components = builtin_map(scheme.map_name).components
    total = np.zeros(lam.size)
    neg_inf = np.zeros(lam.size, dtype=bool)
    dead = np.zeros(lam.size, dtype=bool)
    hom_factors = [(_homogenize(q), m, p) for q, m, p in scheme.factors]

    def add_log(form: MultiPoly, weight: float) -> None:
        nonlocal total, neg_inf, dead
        vals = _grid_eval(form, powers)
        logs = np.log(np.abs(vals)) - form.total_degree() * np.log(np.abs(pts[2]))
        zero = vals == 0.0
        neg_inf |= zero & ~dead
        dead |= ~np.isfinite(logs) & ~zero
        logs[~np.isfinite(logs)] = 0.0
        total += weight * logs

    with np.errstate(divide="ignore", invalid="ignore"):
        # starting points within their factors' error bounds of a zero set
        powers = PowerTable(pts)
        near_zero = np.zeros(lam.size, dtype=bool)
        for q, _m, _p in hom_factors:
            near_zero |= np.abs(_grid_eval(q, powers)) <= _error_bound(q, powers)
        for j in range(n - scheme.seed_level):
            if j:
                powers = PowerTable(pts)
            for q, mult, offset in hom_factors:
                add_log(q, mult * d ** (-(j + offset)))
            imgs = np.stack([_grid_eval(c, powers) for c in components], axis=0)
            norms = np.max(np.abs(imgs), axis=0)
            zero = (norms == 0.0) | ~np.isfinite(norms)
            dead |= zero
            norms[zero] = 1.0
            pts = imgs / norms
        powers = PowerTable(pts)
        add_log(_homogenize(scheme.seed), d ** (-n))
    # the first event of an orbit decides: a zero met while it lives is -inf
    dead &= ~neg_inf
    for k in np.flatnonzero(near_zero & np.isfinite(lam) & np.isfinite(mu)):
        if _on_factor_zero(scheme, lam[k], mu[k]):
            dead[k] = False
            neg_inf[k] = True
    total[neg_inf] = NEG_INF
    total[dead] = np.nan
    return total, neg_inf, dead


def _on_factor_zero(scheme, lam, mu) -> bool:
    """Whether the rational point (lam, mu) lies exactly on a factor's zero set."""
    point = (Fraction(lam), Fraction(mu))
    return any(q.eval(point) == 0 for q, _m, _p in scheme.factors)


def potential_grid(scheme, window: Sequence[float], resolution: int, n: int) -> dict:
    """Sample u_n of a ``pencils.PencilScheme`` on a real window
    (xmin, xmax, ymin, ymax).

    Returns {"values": (res x res) array with -inf at factor zeros and NaN at
    dead orbits, "neg_inf_mask", "dead_mask": disjoint bool arrays, "window",
    "xs", "ys"}; row i, column j is the point (xs[j], ys[i]).
    """
    xmin, xmax, ymin, ymax = window
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    gx, gy = np.meshgrid(xs, ys)
    values, neg_inf, dead = _telescope(scheme, gx.ravel(), gy.ravel(), n)
    shape = (resolution, resolution)
    return {
        "values": values.reshape(shape),
        "neg_inf_mask": neg_inf.reshape(shape),
        "dead_mask": dead.reshape(shape),
        "window": tuple(window),
        "xs": xs,
        "ys": ys,
    }
