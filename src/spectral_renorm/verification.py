"""Verification data for the builtin maps: contracted curves, fixed curves,
indeterminacy points.

Each entry pins a geometric fact about one builtin map to an exact check:
a parametrized curve collapsing to a point, a pointwise-fixed line, an
orbit of collapse points, or the full indeterminacy list.  The blow-up
chart facts live in ``ratmaps.charts``.
"""

from __future__ import annotations

from fractions import Fraction

from spectral_renorm.ratmaps.maps import builtin_map, proportional, univar, verify_indeterminacy

# name -> (map, curve parametrization coefficients, expected point)
# parametrizations are ascending coefficient lists in the curve parameter
CONTRACTED = [
    # two-letter four-generator renormalization
    ("R_G", "mu=+2w -> [1:1:0]", [[0, 1], [2], [1]], (1, 1, 0)),
    ("R_G", "mu=-2w -> [-1:1:0]", [[0, 1], [-2], [1]], (-1, 1, 0)),
    ("R_G", "conic lam^2-mu^2+4w^2 -> [-2:0:1]",
     [[0, 4], [2, 0, 2], [1, 0, -1]], (-2, 0, 1)),
    ("R_G", "line at infinity -> [0:1:0]", [[0, 1], [1], [0]], (0, 1, 0)),
    # the involution-composed second map; the collapse targets come out
    # crosswise (mu = +2w lands on [0:-2:1]), forced by the factorization
    # through the involution, which exchanges the two vertices
    ("G_G", "mu=+2w -> [0:-2:1]", [[0, 1], [2], [1]], (0, -2, 1)),
    ("G_G", "mu=-2w -> [0:2:1]", [[0, 1], [-2], [1]], (0, 2, 1)),
    ("G_G", "conic lam^2-mu^2+4w^2 -> [-2:0:1]",
     [[0, 4], [2, 0, 2], [1, 0, -1]], (-2, 0, 1)),
    ("G_G", "line at infinity -> [0:1:0]", [[0, 1], [1], [0]], (0, 1, 0)),
    # lamplighter renormalization
    ("R_L", "lam=mu -> [-1:1:0]", [[0, 1], [0, 1], [1]], (-1, 1, 0)),
    ("R_L", "line at infinity -> [1:0:0]", [[0, 1], [1], [0]], (1, 0, 0)),
    # three-peg tower renormalization
    ("R_H", "x+y-z=0 -> [1:0:1]", [[0, 1], [1], [1, 1]], (1, 0, 1)),
    ("R_H", "-x+y+z=0 -> [-1:1:0]", [[1, 1], [0, 1], [1]], (-1, 1, 0)),
    ("R_H", "conic x^2-y^2+yz-z^2 -> [2:1:0]",
     [[1, 1, 1], [1, 2], [1, 0, -1]], (2, 1, 0)),
    ("R_H", "line at infinity -> [1:0:0]", [[0, 1], [1], [0]], (1, 0, 0)),
]

FIXED_CURVES = [
    ("R_G", "lam=0 fixed pointwise", [[0], [0, 1], [1]]),
    ("R_H", "y=0 fixed pointwise", [[0, 1], [0], [1]]),
]

# curve mapped INTO a curve: (map, parametrization, target equation index)
# targets: the curve's image satisfies the named coordinate equation
CURVE_TO_CURVE = [
    ("G_G", "lam=0 -> line at infinity", [[0], [0, 1], [1]], 2),
]

# orbits of collapse points: point -> image -> ... (projective triples)
POINT_ORBITS = [
    ("R_G", [(-2, 0, 1), (2, 0, 1), (2, 0, 1)]),   # collapse target reaches a fixed point
    ("G_G", [(-2, 0, 1), (2, 0, 1), (2, 0, 1)]),
    ("R_L", [(1, 0, 0), (1, 0, 0)]),               # fixed point at the horizontal pole
    ("R_H", [(1, 0, 0), (1, 0, 0)]),
    ("R_G", [(0, 1, 0), (0, 1, 0)]),               # vertical pole fixed
    ("G_G", [(0, 1, 0), (0, 1, 0)]),
]

INDETERMINACY = {
    "R_G": [(0, 2, 1), (0, -2, 1), (1, 0, 0), (1, 1, 0), (-1, 1, 0)],
    "G_G": [(0, 2, 1), (0, -2, 1), (1, 0, 0), (1, 1, 0), (-1, 1, 0)],
    "R_L": [(1, 1, 0), (-1, 1, 0)],
    "R_H": [(1, 0, 1), (-1, 0, 1), (-1, 1, 0), (1, 1, 0), (2, 1, 0)],
}


def _curve_image(map_name: str, coeffs) -> tuple:
    """The map composed with the curve given by ascending coefficient lists,
    and the curve."""
    curve = [univar(c) for c in coeffs]
    return [c.subs(curve) for c in builtin_map(map_name).components], curve


def contracted_curve_report() -> list:
    """Exact verification of every listed contracted curve, fixed curve,
    curve-to-curve image and point orbit."""
    rows = []
    for map_name, label, coeffs, expected in CONTRACTED:
        image, _ = _curve_image(map_name, coeffs)
        rows.append({"map": map_name, "curve": label, "ok": proportional(image, expected)})
        if not any(image):
            rows[-1]["error"] = "curve lies in the indeterminacy closure"
    for map_name, label, coeffs in FIXED_CURVES:
        image, curve = _curve_image(map_name, coeffs)
        rows.append({"map": map_name, "curve": label, "ok": proportional(image, curve)})
    for map_name, label, coeffs, target_coord in CURVE_TO_CURVE:
        image, _ = _curve_image(map_name, coeffs)
        nonconst = any(c.total_degree() > 0 for c in image)
        ok = image[target_coord].is_zero() and nonconst
        rows.append({"map": map_name, "curve": label, "ok": bool(ok)})
    for map_name, orbit in POINT_ORBITS:
        m = builtin_map(map_name)
        ok = all(proportional(m.eval_exact(tuple(Fraction(v) for v in src)), dst)
                 for src, dst in zip(orbit, orbit[1:]))
        rows.append({"map": map_name, "curve": f"orbit {orbit[0]}", "ok": ok})
    return rows


def indeterminacy_report() -> list:
    """Exact confirmation of the indeterminacy lists plus coprimality."""
    rows = []
    for map_name, candidates in INDETERMINACY.items():
        m = builtin_map(map_name)
        rep = verify_indeterminacy(m, candidates)
        rows.append({
            "map": map_name,
            "expected": len(candidates),
            "confirmed": len(rep["confirmed"]),
            "rejected": rep["rejected"],
            "components_coprime": rep["components_coprime"],
            "ok": bool(len(rep["confirmed"]) == len(candidates)
                       and not rep["rejected"] and rep["components_coprime"]),
        })
    return rows
