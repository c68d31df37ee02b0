"""Degree growth of iterated rational maps along random lines.

Iterating a plane map and cancelling common factors of its components is
expensive; restricting to a line first keeps everything univariate.  The
iteration keeps a triple of binary forms over F_p, cancels their gcd after
every step, and records the degrees, for each of the two largest primes
below 2^31.

A degree mod p is a lower bound of the degree over the integers on the same
line: the reduced integer triple, read mod p, is a polynomial multiple of the
reduced triple mod p.  That degree is in turn a lower bound of deg F^k, with
equality on generic lines.  Lines with six random coefficients in
[-2^31, 2^31) are generic but for a vanishing fraction, so the maximum over
lines and primes is a lower bound of deg F^k that equals it but with
negligible probability.  The tests check the degrees mod p against the exact integer
iteration (``tests/exact_reference.py``) line by line.  The dynamical degree
is then classified from the degree sequence.  One iteration certifies that a
map's components are coprime (``verification.components_coprime``): a common
factor would lower the first degree on every line.
"""

from __future__ import annotations

import random
from typing import Sequence

from spectral_renorm.ratmaps import modp
from spectral_renorm.ratmaps.maps import RationalMapP2, compose

LINE_PRIMES = 2  # the iteration runs mod each of the LINE_PRIMES largest primes below 2^31
LINE_COEFF_BITS = 31  # line coefficients are drawn from [-2^31, 2^31)


def degrees_mod_p(map_: RationalMapP2, line: Sequence, iterations: int, p: int) -> list:
    """Degrees of the iterates restricted to a parametrized line, over F_p.

    ``line`` is three (a, b) integer pairs giving the parametrization
    ``(s, t) -> (a0 s + b0 t, a1 s + b1 t, a2 s + b2 t)``.  After each
    composition the gcd of the three binary forms is cancelled.  Raises
    ``ValueError`` when the line is zero mod p or the forms all vanish.
    """
    forms = [modp.FormModP([a % p, b % p], 1, p) for a, b in line]
    if all(f.is_zero() for f in forms):
        raise ValueError("degenerate line")
    out = []
    for _ in range(iterations):
        forms = compose(map_.components, forms)
        if all(f.is_zero() for f in forms):
            raise ValueError("line collapsed into the indeterminacy locus")
        forms = modp.cancel_common_factor(forms)
        out.append(max(f.degree for f in forms))
    return out


def compose_along_line(map_: RationalMapP2, line: Sequence, iterations: int) -> list:
    """Degrees of the iterates restricted to a line: the elementwise maximum
    of ``degrees_mod_p`` over the ``LINE_PRIMES`` primes.  Raises
    ``ValueError`` when any prime does."""
    runs = [degrees_mod_p(map_, line, iterations, p) for p in modp.primes(LINE_PRIMES)]
    return [max(degs) for degs in zip(*runs)]


def dynamical_degree(map_: RationalMapP2, iterations: int = 8, trials: int = 3,
                     seed: int = 2) -> dict:
    """Estimate the first dynamical degree from degree growth.

    Degrees are measured along ``trials`` random lines with coefficients in
    [-2^31, 2^31) and aggregated by maximum over lines and primes (special
    lines and primes only lose degree).  The growth class is ``bounded``,
    ``linear``, or ``exponential`` with a base estimated from the last
    degree ratio; ``primes`` lists the primes of the iteration.
    """
    rng = random.Random(seed)
    bound = 2 ** LINE_COEFF_BITS
    best: list = [0] * iterations
    used = 0
    attempts = 0
    while used < trials and attempts < 20 * trials:
        attempts += 1
        line = [(rng.randrange(-bound, bound), rng.randrange(-bound, bound)) for _ in range(3)]
        try:
            degs = compose_along_line(map_, line, iterations)
        except ValueError:
            continue
        best = [max(a, b) for a, b in zip(best, degs)]
        used += 1
    if used == 0:
        raise RuntimeError("no usable line found")
    result = classify_growth(best)
    result["primes"] = list(modp.primes(LINE_PRIMES))
    return result


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
