"""Verification data for the builtin maps: contracted curves, fixed curves,
indeterminacy points.

Each entry pins a geometric fact about one builtin map to an exact check:
a parametrized curve collapsing to a point, a pointwise-fixed line, an
orbit of collapse points, or the full indeterminacy list.  The maps'
components are certified coprime over F_p (``components_coprime``).  The
blow-up chart facts live in ``ratmaps.charts``.
"""

from __future__ import annotations

from fractions import Fraction

from spectral_renorm.ratmaps.degrees import dynamical_degree
from spectral_renorm.ratmaps.maps import RationalMapP2, builtin_map, proportional, univar

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

COPRIME_SEED = 17  # the lines of the coprimality certificate, whatever --seed says

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


def components_coprime(map_: RationalMapP2) -> bool:
    """True when the components share no curve, certified by the first
    iterate along ``dynamical_degree``'s lines keeping the map's degree.

    A common factor h of degree k >= 1 divides the three forms restricted to
    any line, mod any prime, so the degree left after ``cancel_common_factor``
    is at most ``degree - k``; where h vanishes on the line mod p the forms
    all vanish and the line is not counted.  A special line or prime can
    only withhold the certificate, never grant it.  The lines are those of
    the fixed seed ``COPRIME_SEED``.
    """
    return dynamical_degree(map_, iterations=1, seed=COPRIME_SEED)["degrees"] == [map_.degree]


def indeterminacy_report() -> list:
    """Exact confirmation of the indeterminacy lists plus coprimality."""
    rows = []
    for map_name, candidates in INDETERMINACY.items():
        m = builtin_map(map_name)
        rejected = [tuple(point) for point in candidates
                    if any(c.eval([Fraction(v) for v in point]) for c in m.components)]
        coprime = components_coprime(m)
        rows.append({
            "map": map_name,
            "expected": len(candidates),
            "confirmed": len(candidates) - len(rejected),
            "rejected": rejected,
            "components_coprime": coprime,
            "ok": not rejected and coprime,
        })
    return rows
