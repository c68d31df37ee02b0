"""Renormalized logarithmic potential of a determinant cascade.

For a pencil whose level-n determinant satisfies

    P_n = s_n * prod_i Q_i^(m_i d^(n - p_i)) * P_(n-1) o R,

the normalized potential (1/d^n) log |P_n| telescopes to

    u_n(x) = sum_(j=0)^(n-1-s) sum_i m_i d^(-(j+p_i)) log |Q_i(R^j x)|
             + d^(-n) log |P_seed(R^(n-s) x)|,

where s is the level of the closed-form seed polynomial.  Orbits are
evaluated in floating point with projective renormalization at every step;
exact zero detection happens on the initial (rational) point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from spectral_renorm.ratmaps.maps import RationalMapP2, builtin_map, float_eval_poly
from spectral_renorm.ratmaps.poly import MultiPoly

NEG_INF = float("-inf")


class OrbitIndeterminate(RuntimeError):
    """The orbit hit an indeterminacy point; carries the step index."""

    def __init__(self, step: int):
        super().__init__(f"orbit hit an indeterminacy point at step {step}")
        self.step = step


@dataclass(frozen=True)
class RecursionPotential:
    """Evaluation data for the cascade potential.

    ``factors`` are (Q_i as affine 2-variable polynomial, m_i, p_i);
    ``seed`` the closed-form determinant at level ``seed_level``; ``d`` the
    branching of the cascade; ``map`` the renormalization map.
    """

    map: RationalMapP2
    factors: tuple
    seed: MultiPoly
    d: int
    seed_level: int = 0

    @classmethod
    def from_scheme(cls, scheme) -> "RecursionPotential":
        return cls(
            map=builtin_map(scheme.map_name),
            factors=tuple(scheme.factors),
            seed=scheme.seed,
            d=scheme.d,
            seed_level=scheme.seed_level,
        )


def _homogenize(poly2: MultiPoly) -> MultiPoly:
    """Affine 2-variable polynomial -> homogeneous 3-variable form."""
    deg = poly2.total_degree()
    terms = {}
    for (i, j), c in poly2.terms.items():
        terms[(i, j, deg - i - j)] = c
    return MultiPoly(3, terms)


def _log_abs_affine(form: MultiPoly, point: np.ndarray) -> float:
    """log |q(x/w, y/w)| from a homogeneous form at a normalized projective
    point; -inf at zeros, +inf on the line at infinity."""
    val = float_eval_poly(form, point)
    w = point[2]
    deg = form.total_degree()
    if val == 0.0:
        return NEG_INF
    if w == 0.0:
        return float("inf")
    return math.log(abs(val)) - deg * math.log(abs(w))


def potential(spec: RecursionPotential, lam, mu, n: int) -> float:
    """Value of u_n at an affine point; -inf when the orbit meets a factor
    zero, raising ``OrbitIndeterminate`` when it dies at an indeterminacy.
    """
    exact_point = None
    try:
        exact_point = (Fraction(lam), Fraction(mu))
    except (TypeError, ValueError):
        pass
    if exact_point is not None:
        for q, _m, _p in spec.factors:
            if q.eval(exact_point) == 0:
                return NEG_INF
    if not spec.factors and spec.seed.is_constant():
        c = abs(spec.seed.constant_value())
        return NEG_INF if c == 0 else spec.d ** (-n) * math.log(float(c))
    hom_factors = [(_homogenize(q), m, p) for q, m, p in spec.factors]
    hom_seed = _homogenize(spec.seed)
    point = np.array([float(lam), float(mu), 1.0])
    point = point / np.max(np.abs(point))
    d = spec.d
    total = 0.0
    steps = n - spec.seed_level
    for j in range(steps):
        for q, mult, offset in hom_factors:
            contrib = _log_abs_affine(q, point)
            if contrib == NEG_INF:
                return NEG_INF
            if not math.isfinite(contrib):
                return float("nan")
            total += mult * d ** (-(j + offset)) * contrib
        point = _step(spec.map, point, j)
    tail = _log_abs_affine(hom_seed, point)
    if tail == NEG_INF:
        return NEG_INF
    if not math.isfinite(tail):
        return float("nan")
    return total + d ** (-n) * tail


def _step(map_: RationalMapP2, point: np.ndarray, step_index: int) -> np.ndarray:
    vals = np.array([float_eval_poly(c, point) for c in map_.components])
    m = np.max(np.abs(vals))
    if m == 0.0 or not np.isfinite(m):
        raise OrbitIndeterminate(step_index)
    return vals / m


def potential_grid(spec: RecursionPotential, window: Sequence[float], resolution: int,
                   n: int) -> dict:
    """Sample u_n on a real window (xmin, xmax, ymin, ymax).

    Returns {"values": (res x res) array with NaN at dead orbits,
    "neg_inf_mask": bool array, "window": window}.  Vectorized over the grid
    with per-step projective renormalization.
    """
    if resolution < 2 or resolution > 2048:
        raise ValueError("resolution out of range (2..2048)")
    xmin, xmax, ymin, ymax = window
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    if not spec.factors and spec.seed.is_constant():
        c = abs(float(spec.seed.constant_value()))
        fill = NEG_INF if c == 0.0 else spec.d ** (-n) * math.log(c)
        values = np.full((resolution, resolution), fill)
        mask = np.full((resolution, resolution), c == 0.0, dtype=bool)
        return {"values": values, "neg_inf_mask": mask,
                "dead_mask": np.zeros_like(mask), "window": tuple(window),
                "xs": xs, "ys": ys}
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel(), np.ones(gx.size)], axis=0)
    pts = pts / np.max(np.abs(pts), axis=0, keepdims=True)
    d = spec.d
    total = np.zeros(gx.size)
    neg_inf = np.zeros(gx.size, dtype=bool)
    dead = np.zeros(gx.size, dtype=bool)
    hom_factors = [(_homogenize(q), m, p) for q, m, p in spec.factors]
    hom_seed = _homogenize(spec.seed)
    steps = n - spec.seed_level
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(steps):
            for q, mult, offset in hom_factors:
                vals = _grid_eval(q, pts)
                logs = np.log(np.abs(vals)) - q.total_degree() * np.log(np.abs(pts[2]))
                neg_inf |= vals == 0.0
                bad = ~np.isfinite(logs) & ~(vals == 0.0)
                dead |= bad
                logs[~np.isfinite(logs)] = 0.0
                total += mult * d ** (-(j + offset)) * logs
            imgs = np.stack([_grid_eval(c, pts) for c in spec.map.components], axis=0)
            norms = np.max(np.abs(imgs), axis=0)
            zero = (norms == 0.0) | ~np.isfinite(norms)
            dead |= zero
            norms[zero] = 1.0
            pts = imgs / norms
        vals = _grid_eval(hom_seed, pts)
        logs = np.log(np.abs(vals)) - hom_seed.total_degree() * np.log(np.abs(pts[2]))
        neg_inf |= vals == 0.0
        dead |= ~np.isfinite(logs) & ~(vals == 0.0)
        logs[~np.isfinite(logs)] = 0.0
        total += d ** (-n) * logs
    values = total.reshape(resolution, resolution)
    neg_mask = neg_inf.reshape(resolution, resolution)
    dead_mask = dead.reshape(resolution, resolution)
    values = values.copy()
    values[neg_mask] = NEG_INF
    values[dead_mask] = np.nan
    return {
        "values": values,
        "neg_inf_mask": neg_mask,
        "dead_mask": dead_mask,
        "window": tuple(window),
        "xs": xs,
        "ys": ys,
    }


def _grid_eval(poly: MultiPoly, pts: np.ndarray) -> np.ndarray:
    total = np.zeros(pts.shape[1])
    for expo, coeff in poly.terms.items():
        term = np.full(pts.shape[1], float(coeff))
        for i, e in enumerate(expo):
            if e:
                term = term * pts[i] ** e
        total += term
    return total
