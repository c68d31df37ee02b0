"""Degree growth of iterated rational maps along generic lines.

Iterating a plane map and cancelling common factors of its components is
expensive; restricting to a line first is equivalent for generic lines and
keeps everything univariate.  The iteration maintains a triple of binary
forms, cancels their gcd after every step, and records the degrees.  The
dynamical degree is then classified from the degree sequence.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Sequence

from spectral_renorm.ratmaps.maps import RationalMapP2
from spectral_renorm.ratmaps.poly import BinaryForm, binary_form_divexact, binary_forms_gcd

MAX_ITERATES = 10


def compose_along_line(map_: RationalMapP2, line: Sequence, iterations: int) -> list:
    """Degrees of the iterates restricted to a parametrized line.

    ``line`` is three (a, b) integer pairs giving the parametrization
    ``(s, t) -> (a0 s + b0 t, a1 s + b1 t, a2 s + b2 t)``.  After each
    composition the gcd of the three binary forms is cancelled, so the k-th
    reported degree is deg(F^k) for a generic line.
    """
    return [max(f.degree for f in forms if not f.is_zero())
            for forms in iterate_line_forms(map_, line, iterations)]


def _joint_primitive(forms: list) -> list:
    """Divide the triple by the gcd of all its integer coefficients; the
    components must keep their relative scale (they are one projective
    parametrization)."""
    g = gcd(*(c for f in forms for c in f.coeffs))
    if g > 1:
        forms = [BinaryForm([c // g for c in f.coeffs], f.degree) for f in forms]
    return forms


def _reduced_step(map_: RationalMapP2, forms: list) -> list:
    forms = [c.subs(forms) for c in map_.components]
    if all(f.is_zero() for f in forms):
        raise ValueError("line collapsed into the indeterminacy locus")
    g = binary_forms_gcd([f for f in forms if not f.is_zero()])
    if g.degree > 0:
        forms = [f if f.is_zero() else binary_form_divexact(f, g) for f in forms]
    return _joint_primitive(forms)


def iterate_line_forms(map_: RationalMapP2, line: Sequence, iterations: int) -> list:
    """The reduced form triples of the iterates along a line (see
    ``compose_along_line``)."""
    forms = [BinaryForm([int(a), int(b)]) for a, b in line]
    if all(f.is_zero() for f in forms):
        raise ValueError("degenerate line")
    out = []
    for _ in range(iterations):
        forms = _reduced_step(map_, forms)
        out.append(tuple(forms))
    return out


def dynamical_degree(map_: RationalMapP2, iterations: int = 8, trials: int = 3,
                     seed: int = 2) -> dict:
    """Estimate the first dynamical degree from degree growth.

    Degrees are measured along ``trials`` random lines and aggregated by
    maximum (degenerate lines only lose degree).  The growth class is
    ``bounded``, ``linear``, or ``exponential`` with a base estimated from
    the last degree ratio.
    """
    if iterations > MAX_ITERATES:
        raise ValueError(f"iteration budget is {MAX_ITERATES}")
    rng = random.Random(seed)
    best: list = [0] * iterations
    used = 0
    attempts = 0
    while used < trials and attempts < 20 * trials:
        attempts += 1
        line = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        try:
            degs = compose_along_line(map_, line, iterations)
        except ValueError:
            continue
        best = [max(a, b) for a, b in zip(best, degs)]
        used += 1
    if used == 0:
        raise RuntimeError("no usable line found")
    return classify_growth(best)


def classify_growth(degrees: Sequence[int]) -> dict:
    """Growth classification of a degree sequence."""
    result = {"degrees": list(degrees)}
    if len(degrees) < 3:
        result.update(growth="inconclusive", estimate=None)
        return result
    if degrees[-1] == degrees[-2] == degrees[-3]:
        result.update(growth="bounded", estimate=1.0)
        return result
    ratio = degrees[-1] / degrees[-2]
    prev_ratio = degrees[-2] / degrees[-3]
    diffs = [b - a for a, b in zip(degrees, degrees[1:])]
    if diffs[-1] == diffs[-2] and ratio < 1.5 and degrees[-1] > degrees[-2]:
        result.update(growth="linear", estimate=1.0)
        return result
    if ratio > 1.05:
        result.update(growth="exponential", estimate=ratio, previous_ratio=prev_ratio)
        return result
    result.update(growth="inconclusive", estimate=ratio)
    return result
