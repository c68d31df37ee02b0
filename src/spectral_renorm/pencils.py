"""Matrix pencils on tree levels and their exact determinant recursions.

A pencil is an operator family ``M(lam, mu) = C0 + lam*Clam + mu*Cmu`` whose
coefficients are formal combinations of group-algebra words (plus, for the
three-letter tower group, a coupling operator acting on the first letter
only).  Instantiated at level n it becomes a d^n x d^n rational matrix, held
as the nonzeros of each row: a few per row, one per term at most.

The determinant of the level-n matrix satisfies a renormalization recursion

    det M_n(lam, mu) = s_n * prod_i Q_i(lam, mu)^(m_i d^(n-p_i))
                           * det M_(n-1)(R(lam, mu)),

with a rational renormalization map R and a sign s_n that we normalize
explicitly (determinants are taken literally, with no sign convention hidden
in the polynomials).  ``verify_recursion`` checks the identity exactly at
random rational points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from spectral_renorm.exact import det_exact
from spectral_renorm.groups import GroupSpec, build_group, level_action
from spectral_renorm.ratmaps.maps import builtin_map
from spectral_renorm.ratmaps.poly import MultiPoly

__all__ = [
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

    ``c0``/``clam``/``cmu`` map generator words to rational coefficients.
    ``coupling_*`` are the coefficients of the first-letter coupling operator
    (the all-off-diagonal-ones matrix acting on the first letter), used by the
    three-peg tower pencil only.  ``factors`` is a list of
    (Q_i, multiplier m_i, offset p_i); ``seed`` is the closed-form determinant
    at ``seed_level``; ``min_level`` is the smallest n for which the recursion
    step n -> n-1 is valid; ``sign`` gives s_n.
    """

    name: str
    group: GroupSpec
    c0: dict
    clam: dict
    cmu: dict
    coupling_c0: Fraction = Fraction(0)
    coupling_cmu: Fraction = Fraction(0)
    map_name: str = ""
    factors: tuple = ()
    seed: MultiPoly | None = None
    seed_level: int = 0
    min_level: int = 1
    sign: Callable[[int], int] = lambda n: 1

    @property
    def d(self) -> int:
        return self.group.d

    def has_coupling(self) -> bool:
        return self.coupling_c0 != 0 or self.coupling_cmu != 0


def _p2(terms) -> MultiPoly:
    """Helper: polynomial in (lam, mu) from {(i, j): coeff}."""
    return MultiPoly(2, {e: Fraction(c) for e, c in terms.items()})


def builtin_scheme(name: str) -> PencilScheme:
    """The three builtin pencils with their recursion data."""
    if name == "grigorchuk":
        # M = -lam*a + b + c + d - 1 - mu, branching 2
        # det M_n = s_n (4 - mu^2)^(2^(n-2)) det M_(n-1)(R_G),  n >= 2,
        # so the seed is the level-1 determinant (2 - lam - mu)(2 + lam - mu)
        return PencilScheme(
            name=name,
            group=build_group("grigorchuk"),
            c0={"b": Fraction(1), "c": Fraction(1), "d": Fraction(1), "": Fraction(-1)},
            clam={"a": Fraction(-1)},
            cmu={"": Fraction(-1)},
            map_name="R_G",
            factors=((_p2({(0, 0): 4, (0, 2): -1}), 1, 2),),
            seed=_p2({(0, 0): 2, (1, 0): -1, (0, 1): -1})
            * _p2({(0, 0): 2, (1, 0): 1, (0, 1): -1}),
            seed_level=1,
            min_level=2,
            sign=_grigorchuk_sign,
        )
    if name == "lamplighter":
        # M = a + a^-1 + b + b^-1 - lam - mu*sigma with sigma = b^-1 a,
        # det M_n = (mu - lam)^(2^(n-1)) det M_(n-1)(R_L),  n >= 1
        return PencilScheme(
            name=name,
            group=build_group("lamplighter"),
            c0={"a": Fraction(1), "a'": Fraction(1), "b": Fraction(1), "b'": Fraction(1)},
            clam={"": Fraction(-1)},
            cmu={"b'a": Fraction(-1)},
            map_name="R_L",
            factors=((_p2({(0, 1): 1, (1, 0): -1}), 1, 1),),
            seed=_p2({(0, 0): 4, (1, 0): -1, (0, 1): -1}),
            seed_level=0,
            min_level=1,
        )
    if name == "hanoi":
        # M = a + b + c - lam + (mu - 1) A, branching 3, two factors:
        # det M_n = (lam^2-(1+mu)^2)^(3^(n-2)) (lam^2-1+mu-mu^2)^(2*3^(n-2))
        #           * det M_(n-1)(R_H),  n >= 2
        return PencilScheme(
            name=name,
            group=build_group("hanoi"),
            c0={"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)},
            clam={"": Fraction(-1)},
            cmu={},
            coupling_c0=Fraction(-1),
            coupling_cmu=Fraction(1),
            map_name="R_H",
            factors=(
                (_p2({(2, 0): 1, (0, 0): -1, (0, 1): -2, (0, 2): -1}), 1, 2),
                (_p2({(2, 0): 1, (0, 0): -1, (0, 1): 1, (0, 2): -1}), 2, 2),
            ),
            seed=_p2({(1, 0): -1, (0, 0): 1, (0, 1): 2})
            * _p2({(1, 0): -1, (0, 0): 1, (0, 1): -1}) ** 2,
            seed_level=1,
            min_level=2,
        )
    raise ValueError(f"unknown pencil '{name}'")


def _grigorchuk_sign(n: int) -> int:
    # sign of det M_n relative to the factored recursion; established by the
    # exact-determinant suite (see tests): -1 at n = 2, +1 afterwards.
    return -1 if n == 2 else 1


def pencil_terms(scheme: PencilScheme, n: int) -> list:
    """The level-n pencil as ``(a, b, c, rows)`` terms.

    Each term stands for the matrix ``(a + b*lam + c*mu) * P`` with
    ``P[rows[v], v] = 1``.  The generator words of ``c0``/``clam``/``cmu``
    come first, merged per word; then come the d - 1 cyclic shifts of the
    first letter, whose sum is the coupling operator.  Every instantiation
    (exact, symbolic, float) sums these terms.
    """
    if n < 0:
        raise ValueError("level must be non-negative")
    if scheme.has_coupling() and n < 1:
        raise ValueError("the coupled pencil needs at least one letter (n >= 1)")
    coeffs: dict = {}
    for k, words in enumerate((scheme.c0, scheme.clam, scheme.cmu)):
        for word, c in words.items():
            coeffs.setdefault(word, [Fraction(0)] * 3)[k] += c
    terms = [(a, b, c, level_action(scheme.group, word, n))
             for word, (a, b, c) in coeffs.items() if a or b or c]
    if scheme.has_coupling():
        size = scheme.d ** n
        block = size // scheme.d
        for shift in range(1, scheme.d):
            rows = tuple((v + shift * block) % size for v in range(size))
            terms.append((scheme.coupling_c0, Fraction(0), scheme.coupling_cmu, rows))
    return terms


def assemble(scheme: PencilScheme, n: int, lam, mu) -> list:
    """The pencil at level n and point (lam, mu), as one ``{column: entry}``
    dict of nonzeros per row, summed from ``pencil_terms``.

    Rational and float points give exact ``Fraction`` entries; ``MultiPoly``
    variables give entries in Q[lam, mu] (small levels only).  Entries that
    cancel are left out.  ``det_exact`` eliminates these rows as they are.
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
    if n < scheme.min_level:
        raise ValueError(f"recursion for '{scheme.name}' starts at level {scheme.min_level}")
    rng = random.Random(seed)
    rmap = builtin_map(scheme.map_name)
    d = scheme.d
    report = {"group": scheme.name, "level": n, "samples": samples, "failures": []}
    checked = []
    for _ in range(samples):
        for _attempt in range(400):
            lam = _sample_rational(rng)
            mu = _sample_rational(rng)
            if any(q.eval((lam, mu)) == 0 for q, _m, _p in scheme.factors):
                continue
            image = rmap.eval_exact_affine(lam, mu)
            if image is None:
                continue
            break
        else:
            raise RuntimeError("sample rejection budget exhausted")
        lhs = det_exact(assemble(scheme, n, lam, mu))
        rhs = Fraction(scheme.sign(n))
        for q, mult, offset in scheme.factors:
            rhs *= q.eval((lam, mu)) ** (mult * d ** (n - offset))
        rhs *= det_exact(assemble(scheme, n - 1, image[0], image[1]))
        checked.append((lam, mu))
        if lhs != rhs:
            report["failures"].append(
                {"lambda": str(lam), "mu": str(mu), "lhs": str(lhs), "rhs": str(rhs)}
            )
    report["points"] = [(str(l), str(m)) for l, m in checked]
    return report
