"""Intersection calculus on blow-ups of the projective plane.

A surface is the plane blown up at k points, with divisor classes written in
either the standard basis (H, E_1..E_k), pairing diag(1, -1, ..., -1), or
the working basis (Lt, E_1..E_k) where Lt = H - sum of the E_i over points
incident to the line at infinity.  Pushforward matrices of the lifted maps
act on column vectors; pullback is always derived through the intersection
form as F^* = I^-1 F_*^T I, and the invariant-fibration detector looks for
integer classes c with F^* c = d c, c.c = 0, c.K < 0 that pair
non-negatively with a supplied effective set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from spectral_renorm.exact import (
    charpoly,
    det_exact,
    identity,
    integer_roots,
    mat_inverse,
    mat_mul,
    poly_deflate,
    rational_kernel,
)

BUILTIN_POINTS = {
    "grigorchuk4": (
        [(-1, 1, 0), (1, 1, 0), (0, -2, 1), (0, 2, 1)],
        [True, True, False, False],
    ),
    "lamplighter2": ([(-1, 1, 0), (1, 1, 0)], [True, True]),
    "hanoi4": (
        [(-1, 1, 0), (2, 1, 0), (-1, 0, 1), (1, 0, 1)],
        [True, True, False, False],
    ),
}


@dataclass(frozen=True)
class BlowupSurface:
    """Plane blow-up with a fixed class basis and intersection form."""

    name: str
    k: int
    incidences: tuple  # True for base points on the line at infinity
    basis: str  # "adapted" (Lt, E_i) or "standard" (H, E_i)
    intersection: tuple  # (k+1) x (k+1) integer matrix, rows as tuples
    canonical: tuple  # class of the canonical divisor in the active basis

    @property
    def dim(self) -> int:
        return self.k + 1

    def pairing(self, c1: Sequence[int], c2: Sequence[int]) -> int:
        i_c2 = _apply(self.intersection, c2)
        return sum(int(c1[j]) * i_c2[j] for j in range(self.dim))

    def signature(self) -> tuple:
        """(positive, negative) eigenvalue counts of the intersection form,
        exactly: its characteristic polynomial has only real roots, so
        Descartes' rule of signs counts the positive ones, and on p(-x) the
        negative ones."""
        cp = charpoly([[Fraction(v) for v in row] for row in self.intersection])
        return (_sign_changes(cp), _sign_changes([c * (-1) ** i for i, c in enumerate(cp)]))

    def det(self) -> int:
        return int(det_exact(self.intersection))


def _apply(m: Sequence[Sequence[int]], v: Sequence[int]) -> list:
    """The matrix ``m`` applied to the column vector ``v``."""
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _sign_changes(coeffs: Sequence[Fraction]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def surface(name: str, points: Sequence | None = None,
            incidences: Sequence[bool] | None = None, basis: str = "adapted") -> BlowupSurface:
    """A builtin blow-up surface, or a custom one from incidence flags."""
    if name in BUILTIN_POINTS:
        _, inc = BUILTIN_POINTS[name]
    elif name == "custom":
        if incidences is None:
            raise ValueError("custom surfaces need incidence flags")
        inc = list(incidences)
    else:
        raise ValueError(f"unknown surface '{name}'")
    k = len(inc)
    if basis == "standard":
        inter = [[0] * (k + 1) for _ in range(k + 1)]
        inter[0][0] = 1
        for i in range(1, k + 1):
            inter[i][i] = -1
        canonical = tuple([-3] + [1] * k)
    elif basis == "adapted":
        inter = _adapted_intersection(inc)
        canonical = tuple([-3] + [(-2 if on_line else 1) for on_line in inc])
    else:
        raise ValueError("basis must be 'adapted' or 'standard'")
    return BlowupSurface(
        name=name,
        k=k,
        incidences=tuple(bool(b) for b in inc),
        basis=basis,
        intersection=tuple(tuple(row) for row in inter),
        canonical=canonical,
    )


def action_from_json(data) -> "MapAction":
    """Surface and pushforward from a JSON-style dict:
    {"k": 2, "incidences": [true, true], "F_star": [[...], ...], "d_top": 1}.
    Data of another shape raises ``ValueError`` naming the key.
    """
    if not isinstance(data, dict):
        raise ValueError("surface JSON must be an object")
    for key in ("incidences", "F_star"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"surface JSON needs {key!r} as a list")
    if not all(isinstance(row, list) and all(isinstance(v, int) for v in row)
               for row in data["F_star"]):
        raise ValueError("surface JSON needs 'F_star' as a list of integer lists")
    for key in ("k", "d_top"):
        if not isinstance(data.get(key, 1), int):
            raise ValueError(f"surface JSON needs {key!r} as an integer")
    inc = data["incidences"]
    if "k" in data and data["k"] != len(inc):
        raise ValueError("k does not match the incidence list")
    x = surface("custom", incidences=inc, basis=data.get("basis", "adapted"))
    return map_action(x, data["F_star"], data.get("d_top", 1))


def _adapted_intersection(inc: Sequence[bool]) -> list:
    # Lt = H - sum over incident E_i; E_i unchanged.  Pairs as
    # Lt.Lt = 1 - (#incident), Lt.E_i = 1 if incident else 0, E_i.E_i = -1.
    k = len(inc)
    m = [[0] * (k + 1) for _ in range(k + 1)]
    m[0][0] = 1 - sum(1 for b in inc if b)
    for i, b in enumerate(inc, start=1):
        m[0][i] = m[i][0] = 1 if b else 0
        m[i][i] = -1
    return m


@dataclass(frozen=True)
class MapAction:
    """Pushforward/pullback pair on the class lattice of a surface."""

    surface: BlowupSurface
    push: tuple  # F_* as row tuples
    pull: tuple  # F^* = I^-1 F_*^T I
    topological_degree: int
    spectral_radius: Fraction
    jordan_block: bool
    charpoly: tuple  # ascending coefficients of det(x I - F^*)


def map_action(x: BlowupSurface, f_star: Sequence[Sequence[int]],
               d_top: int = 1) -> MapAction:
    """Derive the pullback action and its spectral data from a pushforward."""
    n = x.dim
    push = [[int(v) for v in row] for row in f_star]
    if len(push) != n or any(len(r) != n for r in push):
        raise ValueError("pushforward matrix has the wrong size")
    i_frac = [[Fraction(v) for v in row] for row in x.intersection]
    push_t = [[Fraction(push[j][i]) for j in range(n)] for i in range(n)]
    pull_frac = mat_mul(mat_inverse(i_frac), mat_mul(push_t, i_frac))
    pull = []
    for row in pull_frac:
        out_row = []
        for v in row:
            if v.denominator != 1:
                raise ArithmeticError("pullback is not integral; intersection form mismatch")
            out_row.append(int(v))
        pull.append(out_row)
    cp = charpoly([[Fraction(v) for v in row] for row in pull])
    rho, jordan = _spectral_data(pull, cp)
    return MapAction(
        surface=x,
        push=tuple(tuple(r) for r in push),
        pull=tuple(tuple(r) for r in pull),
        topological_degree=d_top,
        spectral_radius=rho,
        jordan_block=jordan,
        charpoly=tuple(cp),
    )


def _spectral_data(pull: list, cp: list) -> tuple:
    # deflate the exact integer roots first; numeric root-finding on the
    # remainder avoids the ill-conditioning of multiple roots
    int_roots = integer_roots(cp)
    den = lcm(*(c.denominator for c in cp))
    rest = [int(c * den) for c in cp]
    for r in int_roots:
        rest = poly_deflate(rest, r)
    numeric_max = 0.0
    if len(rest) > 1:
        roots = np.roots([float(c) for c in reversed(rest)])
        numeric_max = float(np.abs(roots).max()) if len(roots) else 0.0
    int_max = max((abs(r) for r in int_roots), default=0)
    if int_max >= numeric_max - 1e-7:
        rho = Fraction(int_max)
    else:
        rho = Fraction(numeric_max).limit_denominator(10 ** 6)
    jordan = False
    candidates = [r for r in int_roots if abs(r) == rho] or int_roots
    for lam in set(candidates):
        alg = int_roots.count(lam)
        shifted = [[Fraction(v) - (Fraction(lam) if i == j else 0)
                    for j, v in enumerate(row)] for i, row in enumerate(pull)]
        geo = len(rational_kernel(shifted))
        if alg > geo:
            jordan = True
    return rho, jordan


def invariant_classes(action: MapAction, d: int, effective: Sequence | None = None) -> dict:
    """Integer classes with F^* c = d c passing the fibration conditions.

    Conditions per candidate (both signs of each kernel vector): c.c = 0,
    c.K < 0, and c.e >= 0 against every supplied effective class (defaults
    to the exceptional divisors).  Nefness is only certified against the
    supplied set, and the report says so.
    """
    x = action.surface
    n = x.dim
    if effective is None:
        effective = identity(n)[1:]
    shifted = [[Fraction(action.pull[i][j]) - (Fraction(d) if i == j else 0)
                for j in range(n)] for i in range(n)]
    kernel = rational_kernel(shifted)
    candidates = []
    details = []
    for vec in kernel:
        for sign in (1, -1):
            c = [sign * v for v in vec]
            self_int = x.pairing(c, c)
            against_k = x.pairing(c, x.canonical)
            eff_ok = all(x.pairing(c, e) >= 0 for e in effective)
            detail = {
                "class": list(c),
                "self_intersection": self_int,
                "canonical_pairing": against_k,
                "effective_ok": eff_ok,
            }
            details.append(detail)
            if self_int == 0 and against_k < 0 and eff_ok:
                candidates.append(tuple(c))
    return {
        "eigenvalue": d,
        "kernel_rank": len(kernel),
        "candidates": [list(c) for c in candidates],
        "details": details,
        "nefness_caveat": "checked against the supplied effective set only",
    }


# ---------------------------------------------------------------------------
# Printed matrices and their verification
# ---------------------------------------------------------------------------

PUSHFORWARD = {
    "grigorchuk4": [
        [1, 1, 1, 1, 1],
        [0, 1, 1, 0, 1],
        [0, 1, 1, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ],
    # the E1 column is Lt + E1 + E2 (the divisor maps onto the full line
    # {mu = 0}), which is what makes the adjoint reproduce the pullback
    "lamplighter2": [
        [0, 1, 1],
        [0, 1, 0],
        [0, 1, 1],
    ],
    "hanoi4": [
        [1, 2, 1, 1, 2],
        [0, 2, 1, 1, 1],
        [0, 1, 1, 0, 1],
        [0, 0, 0, 1, 0],
        [0, -1, 0, 0, 0],
    ],
}

PULLBACK_PRINTED = {
    "grigorchuk4": [
        [1, 1, 1, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 1, 1, 0, 0],
        [0, -1, 0, 1, 0],
        [0, 0, -1, 0, 1],
    ],
    "lamplighter2": [
        [1, 1, 0],
        [0, 1, 0],
        [1, 0, 0],
    ],
    "hanoi4": [
        [1, 1, 2, 0, 1],
        [0, 1, 1, 0, 0],
        [0, 1, 2, 0, 1],
        [0, 0, -1, 1, 0],
        [0, -1, -1, 0, 0],
    ],
}

INTERSECTION_PRINTED = {
    "grigorchuk4": [
        [-1, 1, 1, 0, 0],
        [1, -1, 0, 0, 0],
        [1, 0, -1, 0, 0],
        [0, 0, 0, -1, 0],
        [0, 0, 0, 0, -1],
    ],
    "lamplighter2": [
        [-1, 1, 1],
        [1, -1, 0],
        [1, 0, -1],
    ],
    "hanoi4": [
        [-1, 1, 1, 0, 0],
        [1, -1, 0, 0, 0],
        [1, 0, -1, 0, 0],
        [0, 0, 0, -1, 0],
        [0, 0, 0, 0, -1],
    ],
}

INVOLUTION_PUSH = {
    "grigorchuk4": [
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 1],
        [1, 0, 0, 1, 0],
        [-1, 0, 1, 0, 0],
        [-1, 1, 0, 0, 0],
    ],
}

SECOND_MAP_PUSH = {
    "grigorchuk4": [
        [1, 1, 1, 1, 1],
        [1, 1, 1, 1, 2],
        [1, 1, 1, 2, 1],
        [-1, 0, 0, 0, -1],
        [-1, 0, 0, -1, 0],
    ],
}

SECOND_MAP_PULL_PRINTED = {
    "grigorchuk4": [
        [3, 0, 0, 1, 1],
        [2, 0, 0, 1, 1],
        [2, 0, 0, 1, 1],
        [-2, 0, 1, 0, -1],
        [-2, 1, 0, -1, 0],
    ],
}

EXPECTED_RHO = {"grigorchuk4": 2, "lamplighter2": 1, "hanoi4": 2}
EXPECTED_JORDAN = {"grigorchuk4": False, "lamplighter2": True, "hanoi4": False}
TOP_DEGREE = {"grigorchuk4": 2, "lamplighter2": 1, "hanoi4": 2}


def _adjoint_ok(x: BlowupSurface, action: MapAction, trials: int = 100, seed: int = 3) -> bool:
    """(F_* a).b == a.(F^* b) on basis pairs and random integer pairs."""
    import random

    rng = random.Random(seed)
    n = x.dim
    pairs = [(a, b) for a in identity(n) for b in identity(n)]
    pairs += [([rng.randint(-9, 9) for _ in range(n)], [rng.randint(-9, 9) for _ in range(n)])
              for _ in range(trials)]
    for a, b in pairs:
        lhs = x.pairing(_apply(action.push, a), b)
        rhs = x.pairing(a, _apply(action.pull, b))
        if lhs != rhs:
            return False
    return True


def verify_printed_matrices(name: str) -> dict:
    """Cross-check the printed matrices of a builtin surface.

    Verifies the printed intersection form, the adjoint derivation of every
    printed pullback, the projection formula on random class pairs, the
    invariant-class eigen-relations, spectral radii, Jordan-block flags, and
    (for the four-generator surface) the factorization of the second map
    through the involution.
    """
    if name not in PUSHFORWARD:
        raise ValueError(f"unknown surface '{name}'")
    x = surface(name)
    report: dict = {"surface": name}
    report["intersection_matches_printed"] = (
        [list(r) for r in x.intersection] == INTERSECTION_PRINTED[name])
    report["signature"] = x.signature()
    report["signature_ok"] = x.signature() == (1, x.k)
    report["unimodular"] = abs(x.det()) == 1

    action = map_action(x, PUSHFORWARD[name], TOP_DEGREE[name])
    report["pullback_matches_printed"] = (
        [list(r) for r in action.pull] == PULLBACK_PRINTED[name])
    report["adjointness_ok"] = _adjoint_ok(x, action)
    report["spectral_radius"] = str(action.spectral_radius)
    report["spectral_radius_ok"] = action.spectral_radius == EXPECTED_RHO[name]
    report["jordan_block"] = action.jordan_block
    report["jordan_block_ok"] = action.jordan_block == EXPECTED_JORDAN[name]

    if name in ("grigorchuk4", "hanoi4"):
        d_cls = [2, 1, 1, -1, -1]
        report["invariant_relation_ok"] = _apply(action.pull, d_cls) == [2 * v for v in d_cls]
        found = invariant_classes(action, 2)
        report["kernel_recovers_class"] = found["candidates"] == [d_cls]
    else:
        d1 = [1, 0, 1]
        d2 = [1, 1, 0]
        rel1 = _apply(action.pull, d1) == d1
        rel2 = _apply(action.pull, d2) == [a + b for a, b in zip(d1, d2)]
        report["invariant_relation_ok"] = rel1 and rel2
        found = invariant_classes(action, 1)
        report["kernel_recovers_class"] = found["candidates"] == [d1]

    if name == "grigorchuk4":
        h = INVOLUTION_PUSH[name]
        g = SECOND_MAP_PUSH[name]
        report["second_map_factors"] = mat_mul(h, PUSHFORWARD[name]) == g
        h_action = map_action(x, h, 1)
        report["involution_squares_to_identity"] = mat_mul(h, h) == identity(x.dim)
        g_action = map_action(x, g, 2)
        report["second_map_pull_matches_printed"] = (
            [list(r) for r in g_action.pull] == SECOND_MAP_PULL_PRINTED[name])
        d_cls = [2, 1, 1, -1, -1]
        report["second_map_invariant_ok"] = (
            _apply(g_action.pull, d_cls) == [2 * v for v in d_cls])
        report["involution_adjoint_ok"] = _adjoint_ok(x, h_action)

    # jordan_block is a datum (hanoi4 has none); every other boolean is a check
    report["all_ok"] = all(v for k, v in report.items()
                           if isinstance(v, bool) and k != "jordan_block")
    return report
