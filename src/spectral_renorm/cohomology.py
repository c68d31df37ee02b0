"""Intersection calculus on blow-ups of the projective plane.

A surface is the plane blown up at k points, with divisor classes written in
either the standard basis (H, E_1..E_k), pairing diag(1, -1, ..., -1), or
the working basis (Lt, E_1..E_k) where Lt = H - sum of the E_i over points
incident to the line at infinity.  Pushforward matrices of the lifted maps
act on column vectors; pullback is always derived through the intersection
form as F^* = I^-1 F_*^T I, and the invariant-fibration detector looks for
integer classes c with F^* c = d c, c.c = 0, c.K < 0 that pair
non-negatively with the exceptional divisors.  ``SURFACES`` holds the three
builtin surfaces, one row each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

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
from spectral_renorm.ratmaps.maps import builtin_map


@dataclass(frozen=True)
class BlowupSurface:
    """Plane blow-up with a fixed class basis and intersection form."""

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
        return int(det_exact([{j: v for j, v in enumerate(row) if v}
                              for row in self.intersection]))


def _apply(m: Sequence[Sequence[int]], v: Sequence[int]) -> list:
    """The matrix ``m`` applied to the column vector ``v``."""
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _sign_changes(coeffs: Sequence[Fraction]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def surface(incidences: Sequence[bool], basis: str = "adapted") -> BlowupSurface:
    """The plane blown up at points whose incidences with the line at
    infinity are ``incidences``."""
    inc = tuple(bool(b) for b in incidences)
    if basis not in ("adapted", "standard"):
        raise ValueError("basis must be 'adapted' or 'standard'")
    # the standard basis is the adapted one with no point on the line: Lt = H
    on_line = inc if basis == "adapted" else (False,) * len(inc)
    return BlowupSurface(
        k=len(inc),
        incidences=inc,
        basis=basis,
        intersection=tuple(tuple(row) for row in _adapted_intersection(on_line)),
        canonical=tuple([-3] + [(-2 if b else 1) for b in on_line]),
    )


def action_from_json(data, max_points: int, max_row_sum: int) -> "MapAction":
    """Surface and pushforward from a JSON-style dict:
    {"k": 2, "incidences": [true, true], "F_star": [[...], ...], "d_top": 1,
    "basis": "adapted"}; all but "incidences" and "F_star" are optional, and
    "d_top" is checked but not used.  Data of another shape raises
    ``ValueError`` naming the key, and so does, before any exact work, a
    surface of more than ``max_points`` points or whose F_* has a
    ``_root_bound`` above ``max_row_sum``.
    """
    if not isinstance(data, dict):
        raise ValueError("surface JSON must be an object")
    for key in ("incidences", "F_star"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"surface JSON needs {key!r} as a list")
    if not all(isinstance(b, bool) for b in data["incidences"]):
        raise ValueError("surface JSON needs 'incidences' as a list of booleans")
    # type(), not isinstance(): bool is an int subclass, and true is no count
    if not all(isinstance(row, list) and all(type(v) is int for v in row)
               for row in data["F_star"]):
        raise ValueError("surface JSON needs 'F_star' as a list of integer lists")
    for key in ("k", "d_top"):
        if type(data.get(key, 1)) is not int:
            raise ValueError(f"surface JSON needs {key!r} as an integer")
    inc = data["incidences"]
    if "k" in data and data["k"] != len(inc):
        raise ValueError("k does not match the incidence list")
    if len(inc) > max_points:
        raise ValueError(f"{len(inc)} 'incidences' are above the budget of {max_points} points")
    bound = _root_bound(data["F_star"])
    if bound > max_row_sum:
        raise ValueError(f"the largest absolute row sum of 'F_star', {bound}, is above "
                         f"the budget {max_row_sum}")
    return map_action(surface(inc, data.get("basis", "adapted")), data["F_star"])


def _root_bound(push: Sequence[Sequence[int]]) -> int:
    """The largest absolute row sum of F_*.  No eigenvalue of F_* exceeds it
    in modulus, nor one of F^* = I^-1 F_*^T I, which has the same ones."""
    return max((sum(abs(v) for v in row) for row in push), default=0)


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
    spectral_radius: Fraction
    jordan_block: bool


def map_action(x: BlowupSurface, f_star: Sequence[Sequence[int]]) -> MapAction:
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
    rho, jordan = _spectral_data(pull, cp, _root_bound(push))
    return MapAction(
        surface=x,
        push=tuple(tuple(r) for r in push),
        pull=tuple(tuple(r) for r in pull),
        spectral_radius=rho,
        jordan_block=jordan,
    )


def _spectral_data(pull: list, cp: list, bound: int) -> tuple:
    # deflate the exact integer roots, none above ``bound``, first; numeric
    # root-finding on the remainder avoids the ill-conditioning of multiple roots
    int_roots = integer_roots(cp, bound)
    den = lcm(*(c.denominator for c in cp))
    rest = [int(c * den) for c in cp]
    for r in int_roots:
        rest = poly_deflate(rest, r)
    numeric_max = 0.0
    if len(rest) > 1:
        # only custom surfaces get here: the builtin surfaces' characteristic
        # polynomials split into integer roots, so they never load numpy
        import numpy as np

        roots = np.roots([float(c) for c in reversed(rest)])
        numeric_max = float(np.abs(roots).max()) if len(roots) else 0.0
    int_max = max((abs(r) for r in int_roots), default=0)
    if int_max >= numeric_max - 1e-7:
        rho = Fraction(int_max)
    else:
        rho = Fraction(numeric_max).limit_denominator(10 ** 6)
    jordan = False
    for lam in {r for r in int_roots if abs(r) == rho}:
        alg = int_roots.count(lam)
        shifted = [[Fraction(v) - (Fraction(lam) if i == j else 0)
                    for j, v in enumerate(row)] for i, row in enumerate(pull)]
        geo = len(rational_kernel(shifted))
        if alg > geo:
            jordan = True
    return rho, jordan


def invariant_classes(action: MapAction, d: int) -> dict:
    """Integer classes with F^* c = d c passing the fibration conditions.

    Conditions per candidate (both signs of each kernel vector): c.c = 0,
    c.K < 0, and c.E_i >= 0 against every exceptional divisor.  Nefness is
    only certified against that set, and the report says so.
    """
    x = action.surface
    n = x.dim
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
# The builtin surfaces and the verification of their printed matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinSurface:
    """One builtin surface: its blown-up points and the printed data of its
    renormalization map.  Classes are in the adapted basis (Lt, E_1..E_k)."""

    points: list  # blown-up points [u:v:w]; w == 0 is on the line at infinity
    map: str  # the builtin map (``ratmaps.maps.builtin_map``), which pins its degree d
    push: list  # printed F_*
    fiber: list  # fiber class c, with F^* c = d c
    rho: int  # spectral radius of F^*
    jordan: bool  # whether F^* has a Jordan block on the spectral radius
    pull: list  # printed F^*
    intersection: list  # printed intersection form
    relations: list = ()  # further (class, F^* class) pairs
    involution: list | None = None  # printed H_*, for the second map G = H F
    second_push: list | None = None  # printed G_*
    second_pull: list | None = None  # printed G^*

    def action(self) -> MapAction:
        return map_action(surface([w == 0 for _, _, w in self.points]), self.push)


SURFACES = {
    "grigorchuk4": BuiltinSurface(
        points=[(-1, 1, 0), (1, 1, 0), (0, -2, 1), (0, 2, 1)],
        map="R_G",
        push=[[1, 1, 1, 1, 1],
              [0, 1, 1, 0, 1],
              [0, 1, 1, 1, 0],
              [0, 0, 0, 1, 0],
              [0, 0, 0, 0, 1]],
        fiber=[2, 1, 1, -1, -1], rho=2, jordan=False,
        pull=[[1, 1, 1, 0, 0],
              [0, 1, 1, 0, 0],
              [0, 1, 1, 0, 0],
              [0, -1, 0, 1, 0],
              [0, 0, -1, 0, 1]],
        intersection=[[-1, 1, 1, 0, 0],
                      [1, -1, 0, 0, 0],
                      [1, 0, -1, 0, 0],
                      [0, 0, 0, -1, 0],
                      [0, 0, 0, 0, -1]],
        involution=[[1, 0, 0, 0, 0],
                    [1, 0, 0, 0, 1],
                    [1, 0, 0, 1, 0],
                    [-1, 0, 1, 0, 0],
                    [-1, 1, 0, 0, 0]],
        second_push=[[1, 1, 1, 1, 1],
                     [1, 1, 1, 1, 2],
                     [1, 1, 1, 2, 1],
                     [-1, 0, 0, 0, -1],
                     [-1, 0, 0, -1, 0]],
        second_pull=[[3, 0, 0, 1, 1],
                     [2, 0, 0, 1, 1],
                     [2, 0, 0, 1, 1],
                     [-2, 0, 1, 0, -1],
                     [-2, 1, 0, -1, 0]],
    ),
    "lamplighter2": BuiltinSurface(
        points=[(-1, 1, 0), (1, 1, 0)],
        map="R_L",
        # the E1 column is Lt + E1 + E2 (the divisor maps onto the full line
        # {mu = 0}), which is what makes the adjoint reproduce the pullback
        push=[[0, 1, 1],
              [0, 1, 0],
              [0, 1, 1]],
        fiber=[1, 0, 1], rho=1, jordan=True,
        relations=[([1, 1, 0], [2, 1, 1])],  # d2 -> d1 + d2, with d1 the fiber
        pull=[[1, 1, 0],
              [0, 1, 0],
              [1, 0, 0]],
        intersection=[[-1, 1, 1],
                      [1, -1, 0],
                      [1, 0, -1]],
    ),
    "hanoi4": BuiltinSurface(
        points=[(-1, 1, 0), (2, 1, 0), (-1, 0, 1), (1, 0, 1)],
        map="R_H",
        push=[[1, 2, 1, 1, 2],
              [0, 2, 1, 1, 1],
              [0, 1, 1, 0, 1],
              [0, 0, 0, 1, 0],
              [0, -1, 0, 0, 0]],
        fiber=[2, 1, 1, -1, -1], rho=2, jordan=False,
        pull=[[1, 1, 2, 0, 1],
              [0, 1, 1, 0, 0],
              [0, 1, 2, 0, 1],
              [0, 0, -1, 1, 0],
              [0, -1, -1, 0, 0]],
        intersection=[[-1, 1, 1, 0, 0],
                      [1, -1, 0, 0, 0],
                      [1, 0, -1, 0, 0],
                      [0, 0, 0, -1, 0],
                      [0, 0, 0, 0, -1]],
    ),
}


def _adjoint_ok(action: MapAction) -> bool:
    """(F_* a).b == a.(F^* b) on the basis pairs, which decide it for every
    pair: both sides are bilinear in (a, b)."""
    x = action.surface
    basis = identity(x.dim)
    return all(x.pairing(_apply(action.push, a), b) == x.pairing(a, _apply(action.pull, b))
               for a in basis for b in basis)


def verify_printed_matrices(name: str) -> dict:
    """Cross-check the printed matrices of a builtin surface.

    Verifies the printed intersection form, the adjoint derivation of every
    printed pullback, the projection formula on the basis pairs, the
    invariant-class eigen-relations, spectral radii, Jordan-block flags, and
    (where the row has one) the factorization of the second map through the
    involution.
    """
    if name not in SURFACES:
        raise ValueError(f"unknown surface '{name}'")
    row = SURFACES[name]
    action = row.action()
    x = action.surface
    report: dict = {"surface": name}
    report["intersection_matches_printed"] = [list(r) for r in x.intersection] == row.intersection
    report["signature"] = x.signature()
    report["signature_ok"] = x.signature() == (1, x.k)
    report["unimodular"] = abs(x.det()) == 1

    report["pullback_matches_printed"] = [list(r) for r in action.pull] == row.pull
    report["adjointness_ok"] = _adjoint_ok(action)
    report["spectral_radius"] = str(action.spectral_radius)
    report["spectral_radius_ok"] = action.spectral_radius == row.rho
    report["jordan_block"] = action.jordan_block
    report["jordan_block_ok"] = action.jordan_block == row.jordan

    d, c = builtin_map(row.map).topological_degree, row.fiber
    report["invariant_relation_ok"] = (
        _apply(action.pull, c) == [d * v for v in c]
        and all(_apply(action.pull, cls) == image for cls, image in row.relations))
    report["kernel_recovers_class"] = invariant_classes(action, d)["candidates"] == [c]

    if row.involution is not None:
        h, g = row.involution, row.second_push
        report["second_map_factors"] = mat_mul(h, row.push) == g
        report["involution_squares_to_identity"] = mat_mul(h, h) == identity(x.dim)
        g_action = map_action(x, g)
        report["second_map_pull_matches_printed"] = (
            [list(r) for r in g_action.pull] == row.second_pull)
        report["second_map_invariant_ok"] = _apply(g_action.pull, c) == [d * v for v in c]
        report["involution_adjoint_ok"] = _adjoint_ok(map_action(x, h))

    # jordan_block is a datum (hanoi4 has none); every other boolean is a check
    report["all_ok"] = all(v for k, v in report.items()
                           if isinstance(v, bool) and k != "jordan_block")
    return report
