"""Matrix pencils on tree levels and their exact determinant recursions.

A pencil is an operator family ``M(lam, mu) = sum_w (a_w + b_w lam + c_w mu) w``
over words w in the generators of a self-similar group.  Instantiated at
level n it becomes a d^n x d^n rational matrix, held as the nonzeros of each
row: a few per row, one per term at most.  ``PENCILS`` holds the three
builtin pencils, one row each.

The determinant of the level-n matrix satisfies a renormalization recursion

    det M_n(lam, mu) = s_n * prod_i Q_i(lam, mu)^(m_i d^(n-1-seed_level))
                           * det M_(n-1)(R(lam, mu)),   n > seed_level,

with a rational renormalization map R and a sign s_n that we normalize
explicitly (determinants are taken literally, with no sign convention hidden
in the polynomials).  It starts from the closed-form seed det M_seed_level.
``verify_recursion`` checks the identity exactly at random rational points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from spectral_renorm.exact import det_exact
from spectral_renorm.groups import IDENTITY, GroupSpec, build_group, level_action
from spectral_renorm.ratmaps.maps import builtin_map, compose
from spectral_renorm.ratmaps.poly import MultiPoly

__all__ = [
    "PENCILS",
    "PencilScheme",
    "builtin_scheme",
    "pencil_terms",
    "assemble",
    "det_exact",
    "verify_recursion",
]


@dataclass(frozen=True)
class PencilScheme:
    """Pencil data plus its renormalization recursion.

    ``terms`` maps each generator word to the coefficients (a, b, c) of its
    term ``(a + b*lam + c*mu) * word``.  ``factors`` is a tuple of pairs
    (Q_i, m_i); ``seed`` is the closed-form determinant at ``seed_level``;
    ``sign`` gives s_n.
    """

    name: str
    group: GroupSpec
    terms: dict
    map_name: str
    factors: tuple
    seed: MultiPoly
    seed_level: int
    sign: Callable[[int], int] = lambda n: 1

    @property
    def d(self) -> int:
        return self.group.d


def _p2(terms) -> MultiPoly:
    """Helper: polynomial in (lam, mu) from {(i, j): coeff}."""
    return MultiPoly(2, terms)


#: builtin pencils: name -> generators added to the group's alphabet, and the
#: ``PencilScheme`` fields but name and group
PENCILS = {
    # M = -lam*a + b + c + d - 1 - mu, branching 2
    # det M_n = s_n (4 - mu^2)^(2^(n-2)) det M_(n-1)(R_G),  n >= 2,
    # so the seed is the level-1 determinant (2 - lam - mu)(2 + lam - mu);
    # the sign, established by the exact-determinant suite, is -1 at n = 2 only
    "grigorchuk": ({}, dict(
        terms={"b": (1, 0, 0), "c": (1, 0, 0), "d": (1, 0, 0), "": (-1, 0, -1),
               "a": (0, -1, 0)},
        map_name="R_G",
        factors=((_p2({(0, 0): 4, (0, 2): -1}), 1),),
        seed=_p2({(0, 0): 2, (1, 0): -1, (0, 1): -1})
        * _p2({(0, 0): 2, (1, 0): 1, (0, 1): -1}),
        seed_level=1,
        sign=lambda n: -1 if n == 2 else 1,
    )),
    # M = a + a^-1 + b + b^-1 - lam - mu*sigma with sigma = b^-1 a,
    # det M_n = (mu - lam)^(2^(n-1)) det M_(n-1)(R_L),  n >= 1
    "lamplighter": ({}, dict(
        terms={"a": (1, 0, 0), "a'": (1, 0, 0), "b": (1, 0, 0), "b'": (1, 0, 0),
               "": (0, -1, 0), "b'a": (0, 0, -1)},
        map_name="R_L",
        factors=((_p2({(0, 1): 1, (1, 0): -1}), 1),),
        seed=_p2({(0, 0): 4, (1, 0): -1, (0, 1): -1}),
        seed_level=0,
    )),
    # M = a + b + c - lam + (mu - 1)(s + ss), branching 3, where s cycles the
    # first letter, so s + ss is all off-diagonal ones on the first letter;
    # det M_n = (lam^2-(1+mu)^2)^(3^(n-2)) (lam^2-1+mu-mu^2)^(2*3^(n-2))
    #           * det M_(n-1)(R_H),  n >= 2
    "hanoi": ({"s": ((1, 2, 0), (IDENTITY,) * 3)}, dict(
        terms={"a": (1, 0, 0), "b": (1, 0, 0), "c": (1, 0, 0), "": (0, -1, 0),
               "s": (-1, 0, 1), "ss": (-1, 0, 1)},
        map_name="R_H",
        factors=((_p2({(2, 0): 1, (0, 0): -1, (0, 1): -2, (0, 2): -1}), 1),
                 (_p2({(2, 0): 1, (0, 0): -1, (0, 1): 1, (0, 2): -1}), 2)),
        seed=_p2({(1, 0): -1, (0, 0): 1, (0, 1): 2})
        * _p2({(1, 0): -1, (0, 0): 1, (0, 1): -1}) ** 2,
        seed_level=1,
    )),
}


def builtin_scheme(name: str) -> PencilScheme:
    """The builtin pencil ``name`` of ``PENCILS``, on a fresh group spec."""
    if name not in PENCILS:
        raise ValueError(f"unknown pencil '{name}'")
    added, fields = PENCILS[name]
    base = build_group(name)
    group = GroupSpec(d=base.d, generators={**base.generators, **added})
    return PencilScheme(name=name, group=group, **fields)


def pencil_terms(scheme: PencilScheme, n: int) -> list:
    """The level-n pencil as ``(a, b, c, rows)`` terms, one per word of
    ``scheme.terms``, in its order.

    Each term stands for the matrix ``(a + b*lam + c*mu) * P`` with
    ``P[rows[v], v] = 1``, the level-n permutation of its word.  Every
    instantiation (exact, symbolic, float) sums these terms.
    """
    return [(a, b, c, level_action(scheme.group, word, n))
            for word, (a, b, c) in scheme.terms.items()]


def assemble(scheme: PencilScheme, n: int, lam, mu) -> list:
    """The pencil at level n and point (lam, mu), as one ``{column: entry}``
    dict of nonzeros per row, summed from ``pencil_terms``.

    Rational and float points give exact ``Fraction`` entries; ``MultiPoly``
    variables give entries in Q[lam, mu] (small levels only).  Entries that
    cancel are left out.  These rows are ``det_exact``'s one input format:
    it reads them as they are, with no copy or conversion of an entry.
    """
    terms = pencil_terms(scheme, n)
    lam, mu = (x if isinstance(x, MultiPoly) else Fraction(x) for x in (lam, mu))
    matrix = [{} for _ in range(scheme.d ** n)]
    for a, b, c, rows in terms:
        coeff = a + b * lam + c * mu
        if not coeff:
            continue
        for v, w in enumerate(rows):
            row = matrix[w]
            entry = row[v] + coeff if v in row else coeff
            if entry:
                row[v] = entry
            else:
                del row[v]
    return matrix


def _sample_rational(rng: random.Random, bound: int = 100) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def verify_recursion(scheme: PencilScheme, n: int, samples: int = 20, seed: int = 0) -> dict:
    """Check the determinant recursion exactly at random rational points.

    Points are drawn with numerators and denominators bounded by 100 and
    rejected if they hit a factor zero or a pole of the renormalization map.
    Returns a JSON-able report; ``report["failures"]`` is empty on success.
    """
    if n <= scheme.seed_level:
        raise ValueError(f"recursion for '{scheme.name}' starts at level {scheme.seed_level + 1}")
    rng = random.Random(seed)
    components = builtin_map(scheme.map_name).components
    exponent = scheme.d ** (n - 1 - scheme.seed_level)
    report = {"group": scheme.name, "level": n, "samples": samples, "failures": []}
    checked = []
    for _ in range(samples):
        for _attempt in range(400):
            lam = _sample_rational(rng)
            mu = _sample_rational(rng)
            values = [q.eval((lam, mu)) for q, _m in scheme.factors]
            if 0 in values:
                continue
            x, y, w = compose(components, (lam, mu, 1))
            if w:
                break
        else:
            raise RuntimeError("sample rejection budget exhausted")
        lhs = det_exact(assemble(scheme, n, lam, mu))
        rhs = Fraction(scheme.sign(n))
        for value, (_q, mult) in zip(values, scheme.factors):
            rhs *= value ** (mult * exponent)
        rhs *= det_exact(assemble(scheme, n - 1, x / w, y / w))
        checked.append((lam, mu))
        if lhs != rhs:
            report["failures"].append(
                {"lambda": str(lam), "mu": str(mu), "lhs": str(lhs), "rhs": str(rhs)}
            )
    report["points"] = [(str(l), str(m)) for l, m in checked]
    return report
