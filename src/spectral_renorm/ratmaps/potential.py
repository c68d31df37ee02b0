"""Renormalized logarithmic potential of a determinant cascade.

For a pencil whose level-n determinant satisfies

    P_n = s_n * prod_i Q_i^(m_i d^(n-1-s)) * P_(n-1) o R,   n > s,

where s is the level of the closed-form seed polynomial, the normalized
potential (1/d^n) log |P_n| telescopes to

    u_n(x) = sum_(j=0)^(n-1-s) sum_i m_i d^(-(j+1+s)) log |Q_i(R^j x)|
             + d^(-n) log |P_seed(R^(n-s) x)|,

so u_n exists for n >= s only.  One loop (``_telescope``) evaluates this
sum over an array of projective points, renormalizing them to max-norm 1
after every step; the seed tail is its last weighted log term.  The forms
evaluated at one orbit step share one table of coordinate powers and one
log of the last coordinate.
``potential_grid`` runs the loop on a window's cells in blocks of
``GRID_BLOCK`` consecutive cells in row-major order, each block's points
made from the window's axes and its results written into arrays allocated
once, so the memory beyond the results does not grow with the grid.  Each
cell goes through the same IEEE operations whatever block holds it, so the
values do not depend on the block size.  The first event of an orbit decides its
value: a zero of a factor or of the seed gets -inf, and a dead orbit (one
that reaches an indeterminacy point or the line at infinity) gets NaN, also
where a zero follows its death.  Floats can miss a zero that the orbit
starts on, so each factor's starting value carries the bound
``_error_bound`` on its rounding error, and every starting point whose
value is within that bound of 0, and only those, gets the exact
``Fraction`` test of the factors (``_on_factor_zero``): it reads -inf if it
lies on a factor's zero set, whatever its orbit does later.  A point on a
zero set has its value within the bound, so no such point is missed.  The
tests evaluate the same loop at single points with the scalar form
``potential`` of ``tests/exact_reference.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, nextafter
from typing import Sequence

import numpy as np

from spectral_renorm.ratmaps.maps import builtin_map
from spectral_renorm.ratmaps.poly import MultiPoly

NEG_INF = float("-inf")

# cells per block of ``potential_grid``: at 512^2 on 2 cores, 2^14 and 2^15 were
# the fastest of 2^10..2^16 and the whole grid, and 2^14 has half the working set
GRID_BLOCK = 16_384


class PowerTable(dict):
    """The powers x_i^e of one set of points, keyed by ``(i, e)`` for
    e >= 1 and computed on first use by the product chain
    x_i^e = x_i^(e-1) * x_i, the earlier power taken from the same table and
    x_i^1 being the row ``pts[i]`` itself: e - 1 rounded IEEE products, the
    same on every platform, and no ``pow``.  ``pts`` holds one coordinate
    per row (a scalar per row for one point).  Polynomials evaluated at the
    same points share one table, so each power is computed once however many
    terms and polynomials use it; points that move need a new table."""

    def __init__(self, pts):
        super().__init__()
        self.pts = pts

    def __missing__(self, key):
        i, e = key
        power = self[key] = self.pts[i] if e == 1 else self[i, e - 1] * self.pts[i]
        return power


def _grid_eval(poly: MultiPoly, powers: PowerTable):
    """Float value of ``poly`` at the points of a ``PowerTable``, summing
    terms in dict order from 0; each term is its coefficient, rounded to a
    float, times the table's powers, multiplied in variable order.  Only
    IEEE products and sums in this fixed order, so a pure-Python float loop
    in the same order gives the same bits."""
    shape = np.shape(powers.pts[0])
    total = np.zeros(shape)
    for expo, coeff in poly.terms.items():
        term = float(coeff)
        for i, e in enumerate(expo):
            if e:
                term *= powers[i, e]
        total += term
    return total


_U = Fraction(1, 2 ** 53)  # unit roundoff of IEEE double


def _gamma(k: int) -> Fraction:
    return k * _U / (1 - k * _U)


def _round_up(x: Fraction) -> float:
    return nextafter(float(x), inf)


def _error_bound(poly: MultiPoly, powers: PowerTable):
    """Bound on |``_grid_eval(poly, powers)`` - poly(p / m)| at each point,
    where ``powers.pts`` is fl(p / m): an exact point p divided by
    m = max_i |p_i| and rounded, as ``potential._telescope`` normalizes.

    With D the total degree of ``poly``, T its number of terms c_t x^(e_t)
    and u = 2^-53, each computed term is c_t (p / m)^(e_t) (1 + theta) with
    |theta| <= gamma_j = j u / (1 - j u) (Higham 2002, lemma 3.1), where j
    counts the roundings it went through: 1 for the coefficient's conversion
    to float, D for the normalization (each coordinate's quotient enters
    the monomial once per degree), sum(e_i - 1) over its variables for the
    power chain and one product per variable for the term, so 2D + 1 in
    all; the recursive sum from 0 adds at most T - 1 more.  Hence

        |value - poly(p / m)| <= gamma_k sum_t |c_t (p / m)^(e_t)|,
        k = 2D + T.

    The sum on the right is not known; it is computed as S, the same
    evaluation of sum_t |c_t| |x^(e_t)| on ``np.abs`` of the table's
    powers (rounding is symmetric in sign, so these are the moduli of the
    computed terms, each within a factor 1 - gamma_(2D+1) of the exact one, and
    their sum within 1 - gamma_(T-1)).  The bound is

        g * S + f,  g = gamma_k / ((1 - gamma_(2D+1)) (1 - gamma_(T-1)) (1 - u)^2),

    with g rounded up, where (1 - u)^2 covers the product g * S and the sum
    with f.  f covers gradual underflow, which the model above leaves out:
    each of the at most T (2D + 2) products, quotients and sums adds at most
    2^-1075 absolutely, later multiplied by at most max(1, max |c_t|) (1 + u)
    since every |x_i| <= 1, so f = (T (2D + 2) + 1) max(1, max |c_t|) 2^-1073
    rounded up keeps a factor 2 to spare and also covers the rounding of
    g * S below the normal range.  A point whose exact value is 0 has
    |value| within the bound.
    """
    deg, terms = poly.total_degree(), len(poly.terms)
    k = 2 * deg + terms
    g = _gamma(k) / ((1 - _gamma(2 * deg + 1)) * (1 - _gamma(terms - 1)) * (1 - _U) ** 2)
    cmax = max([Fraction(1)] + [abs(c) for c in poly.terms.values()])
    f = (terms * (2 * deg + 2) + 1) * cmax * Fraction(1, 2 ** 1073) / (1 - _U)
    moduli = PowerTable(np.abs(powers.pts))
    moduli.update((key, np.abs(power)) for key, power in powers.items())
    size = _grid_eval(MultiPoly(poly.arity, {e: abs(c) for e, c in poly.terms.items()}), moduli)
    return _round_up(g) * size + _round_up(f)


def _homogenize(poly2: MultiPoly) -> MultiPoly:
    """Affine 2-variable polynomial -> homogeneous 3-variable form."""
    deg = poly2.total_degree()
    terms = {}
    for (i, j), c in poly2.terms.items():
        terms[(i, j, deg - i - j)] = c
    return MultiPoly(3, terms)


def _forms(scheme) -> tuple:
    """The homogeneous forms of a scheme's telescoping loop: the components
    of its renormalization map, its factors with their multiplicities and
    its seed polynomial."""
    return (builtin_map(scheme.map_name).components,
            [(_homogenize(q), m) for q, m in scheme.factors],
            _homogenize(scheme.seed))


def _telescope(scheme, forms: tuple, lam: np.ndarray, mu: np.ndarray, n: int) -> tuple:
    """u_n of a ``pencils.PencilScheme`` at the affine points (lam, mu), flat
    float arrays of one length, with ``forms`` = ``_forms(scheme)``.  The
    scheme gives the factors (Q_i as affine polynomials in (lam, mu), m_i),
    the seed polynomial at its seed level, the branching d and the name of
    the renormalization map.

    Returns (values, neg_inf, dead): values carry -inf at factor or seed
    zeros met while the orbit lives and NaN at orbits that died first, which
    the two disjoint boolean masks flag.
    """
    if n < scheme.seed_level:
        raise ValueError(f"level {n} is below the seed level {scheme.seed_level}")
    components, hom_factors, hom_seed = forms
    pts = np.stack([lam, mu, np.ones(lam.size)], axis=0)
    pts = pts / np.max(np.abs(pts), axis=0, keepdims=True)
    d = scheme.d
    total = np.zeros(lam.size)
    neg_inf = np.zeros(lam.size, dtype=bool)
    dead = np.zeros(lam.size, dtype=bool)

    def add_log(form: MultiPoly, weight: float, log_w: np.ndarray) -> None:
        """Add ``weight`` log |form(p) / w^deg| at the points p of
        ``powers``, w being their last coordinate and ``log_w`` log |w|."""
        nonlocal total, neg_inf, dead
        vals = _grid_eval(form, powers)
        logs = np.log(np.abs(vals)) - form.total_degree() * log_w
        zero = vals == 0.0
        neg_inf |= zero & ~dead
        dead |= ~np.isfinite(logs) & ~zero
        logs[~np.isfinite(logs)] = 0.0
        total += weight * logs

    with np.errstate(divide="ignore", invalid="ignore"):
        # starting points within their factors' error bounds of a zero set
        powers = PowerTable(pts)
        near_zero = np.zeros(lam.size, dtype=bool)
        for q, _m in hom_factors:
            near_zero |= np.abs(_grid_eval(q, powers)) <= _error_bound(q, powers)
        for j in range(n - scheme.seed_level):
            if j:
                powers = PowerTable(pts)
            log_w = np.log(np.abs(pts[2]))
            for q, mult in hom_factors:
                add_log(q, mult * d ** (-(j + 1 + scheme.seed_level)), log_w)
            imgs = np.stack([_grid_eval(c, powers) for c in components], axis=0)
            norms = np.max(np.abs(imgs), axis=0)
            zero = (norms == 0.0) | ~np.isfinite(norms)
            dead |= zero
            norms[zero] = 1.0
            pts = imgs / norms
        powers = PowerTable(pts)
        add_log(hom_seed, d ** (-n), np.log(np.abs(pts[2])))
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
    return any(q.eval(point) == 0 for q, _m in scheme.factors)


def potential_grid(scheme, window: Sequence[float], resolution: int, n: int) -> dict:
    """Sample u_n of a ``pencils.PencilScheme`` on a real window
    (xmin, xmax, ymin, ymax).

    Returns {"values": (res x res) array with -inf at factor zeros and NaN at
    dead orbits, "neg_inf_mask", "dead_mask": disjoint bool arrays, "window",
    "xs", "ys"}; row i, column j is the point (xs[j], ys[i]).  The loop runs
    on ``GRID_BLOCK`` cells at a time, in row-major order.
    """
    xmin, xmax, ymin, ymax = window
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    cells = resolution * resolution
    values = np.empty(cells)
    neg_inf = np.empty(cells, dtype=bool)
    dead = np.empty(cells, dtype=bool)
    forms = _forms(scheme)
    for start in range(0, cells, GRID_BLOCK):
        stop = min(start + GRID_BLOCK, cells)
        rows, cols = np.divmod(np.arange(start, stop), resolution)
        values[start:stop], neg_inf[start:stop], dead[start:stop] = _telescope(
            scheme, forms, xs[cols], ys[rows], n)
    shape = (resolution, resolution)
    return {
        "values": values.reshape(shape),
        "neg_inf_mask": neg_inf.reshape(shape),
        "dead_mask": dead.reshape(shape),
        "window": tuple(window),
        "xs": xs,
        "ys": ys,
    }
