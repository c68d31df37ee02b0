"""Verification data for the builtin maps: contracted curves, fixed curves,
exceptional divisors, return maps and indeterminacy points.

Every fact of ``FACTS`` is one exact operation: forms on P^2 composed with a
source (``image``) and compared with a target (``_holds``).  The forms are
the map's components, or, for a return map on an exceptional divisor, rows
of integer combinations of them, e.g. (p1 + 2 p2, p0).  A source is a point,
a curve in t, or a blow-up chart in (e, l) with the exceptional divisor at
e = 0.  A target is a point, curve or pair up to proportionality
(``maps.proportional``), a list (an orbit: the source goes to its first
point, each point to the next), or a form (an equation the image satisfies
without being a point).  Curves in a target are written in t, which stands
for the source's parameter (l on a chart).

``fact_report`` checks every row and gives the ``contracted`` rows and the
``charts`` dict of ``maps-verify``.  The maps' components are certified
coprime over F_p (``components_coprime``), and the indeterminacy lists are
checked by composing with each point (``indeterminacy_report``).
"""

from __future__ import annotations

from spectral_renorm.ratmaps.degrees import dynamical_degree
from spectral_renorm.ratmaps.maps import RationalMapP2, builtin_map, compose, proportional
from spectral_renorm.ratmaps.poly import MultiPoly

_t = MultiPoly.variable(1, 0)  # a curve's parameter
_e, _l = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)  # a chart's, E at e = 0
_x, _y, _w = (MultiPoly.variable(3, i) for i in range(3))  # an equation's

# (section, map, label, source, target[, combination rows])
FACTS = [
    # curves contracted to points; for G_G the targets of mu = +-2w come out
    # crosswise, forced by its factorization through the involution
    ("contracted", "R_G", "mu=+2w -> [1:1:0]", (_t, 2, 1), (1, 1, 0)),
    ("contracted", "R_G", "mu=-2w -> [-1:1:0]", (_t, -2, 1), (-1, 1, 0)),
    ("contracted", "R_G", "conic lam^2-mu^2+4w^2 -> [-2:0:1]",
     (4 * _t, 2 + 2 * _t * _t, 1 - _t * _t), (-2, 0, 1)),
    ("contracted", "R_G", "line at infinity -> [0:1:0]", (_t, 1, 0), (0, 1, 0)),
    ("contracted", "G_G", "mu=+2w -> [0:-2:1]", (_t, 2, 1), (0, -2, 1)),
    ("contracted", "G_G", "mu=-2w -> [0:2:1]", (_t, -2, 1), (0, 2, 1)),
    ("contracted", "G_G", "conic lam^2-mu^2+4w^2 -> [-2:0:1]",
     (4 * _t, 2 + 2 * _t * _t, 1 - _t * _t), (-2, 0, 1)),
    ("contracted", "G_G", "line at infinity -> [0:1:0]", (_t, 1, 0), (0, 1, 0)),
    ("contracted", "R_L", "lam=mu -> [-1:1:0]", (_t, _t, 1), (-1, 1, 0)),
    ("contracted", "R_L", "line at infinity -> [1:0:0]", (_t, 1, 0), (1, 0, 0)),
    ("contracted", "R_H", "x+y-z=0 -> [1:0:1]", (_t, 1, 1 + _t), (1, 0, 1)),
    ("contracted", "R_H", "-x+y+z=0 -> [-1:1:0]", (1 + _t, _t, 1), (-1, 1, 0)),
    ("contracted", "R_H", "conic x^2-y^2+yz-z^2 -> [2:1:0]",
     (1 + _t + _t * _t, 1 + 2 * _t, 1 - _t * _t), (2, 1, 0)),
    ("contracted", "R_H", "line at infinity -> [1:0:0]", (_t, 1, 0), (1, 0, 0)),
    # curves fixed pointwise, and a curve mapped into a curve
    ("contracted", "R_G", "lam=0 fixed pointwise", (0, _t, 1), (0, _t, 1)),
    ("contracted", "R_H", "y=0 fixed pointwise", (_t, 0, 1), (_t, 0, 1)),
    ("contracted", "G_G", "lam=0 -> line at infinity", (0, _t, 1), _w),
    # orbits of collapse targets: to a fixed point, and the poles fixed
    ("contracted", "R_G", "orbit (-2, 0, 1)", (-2, 0, 1), [(2, 0, 1), (2, 0, 1)]),
    ("contracted", "G_G", "orbit (-2, 0, 1)", (-2, 0, 1), [(2, 0, 1), (2, 0, 1)]),
    ("contracted", "R_L", "orbit (1, 0, 0)", (1, 0, 0), [(1, 0, 0)]),
    ("contracted", "R_H", "orbit (1, 0, 0)", (1, 0, 0), [(1, 0, 0)]),
    ("contracted", "R_G", "orbit (0, 1, 0)", (0, 1, 0), [(0, 1, 0)]),
    ("contracted", "G_G", "orbit (0, 1, 0)", (0, 1, 0), [(0, 1, 0)]),
    # R_G: the horizontal pole [1:0:0] goes to the line at infinity; E3 over
    # [0:-2:1] and E4 over [0:2:1] are fixed with return maps l -> 2l^2 - 1
    # and l -> 1 - 2l^2, their indeterminacy points (second-order charts) go
    # to lines; E1 over [-1:1:0] and E2 over [1:1:0] land on {lam = -2w}
    ("charts", "R_G", "grig_pole_to_infinity", (1, _e, _l * _e), (2 * _t, 1, 0)),
    ("charts", "R_G", "grig_E3_fixed_point", (_e, -2 + _l * _e, 1), (0, -2, 1)),
    ("charts", "R_G", "grig_E3_chebyshev_return", (_e, -2 + _l * _e, 1), (2 * _t * _t - 1, 1),
     [(0, 1, 2), (1, 0, 0)]),
    ("charts", "R_G", "grig_E3_indeterminacy_line", (_e, -2 + _l * _e * _e, 1), _x + _y + 2 * _w),
    ("charts", "R_G", "grig_E4_fixed_point", (_e, 2 + _l * _e, 1), (0, 2, 1)),
    ("charts", "R_G", "grig_E4_return", (_e, 2 + _l * _e, 1), (1 - 2 * _t * _t, 1),
     [(0, 1, -2), (1, 0, 0)]),
    ("charts", "R_G", "grig_E4_indeterminacy_line", (_e, 2 + _l * _e * _e, 1), _x - _y + 2 * _w),
    ("charts", "R_G", "grig_E1_to_line", (-1 + _e, 1, _l * _e), _x + 2 * _w),
    ("charts", "R_G", "grig_E2_to_line", (1 + _e, 1, _l * _e), _x + 2 * _w),
    # R_L: E1 over [-1:1:0] maps onto {mu = 0} in both charts; E2 over
    # [1:1:0] is contracted to [1:0:0] and its indeterminacy point goes to
    # the line at infinity
    ("charts", "R_L", "lamp_E1_to_mu0_chart_a", (-1 + _e, 1, _l * _e), _y),
    ("charts", "R_L", "lamp_E1_to_mu0_chart_b", (_l * _e - 1, 1, _e), _y),
    ("charts", "R_L", "lamp_E2_collapsed", (1 + _l * _e, 1, _e), (1, 0, 0)),
    ("charts", "R_L", "lamp_E2_ind_to_infinity", (1 + _l * _e * _e, 1, _e), _w),
    # R_H: E1 over [-1:1:0] goes to a conic, E2 over [2:1:0] to {z = y}; E3
    # over [-1:0:1] is fixed with return map l -> -2l^2/(4 - 2l - 4l^2), its
    # indeterminacy point l = 2 goes to the line through [2:1:0] and
    # [-1:0:1]; E4 over [1:0:1] is fixed with return map l -> l^2/(2 - 3l),
    # its indeterminacy points l = 1 and l = -2 go to lines; the curve
    # C1 = {x + y - z = 0} lands on E4 at l = 1/5 (its deformation off C1);
    # the indeterminacy point [1:1:0] goes to the line at infinity
    ("charts", "R_H", "hanoi_E1_to_conic", (-1 + _e, 1, _l * _e),
     (6 - 3 * _t - _t * _t, _t - _t * _t, 4 * _t - 2 * _t * _t)),
    ("charts", "R_H", "hanoi_E2_to_line", (2 + _e, 1, _l * _e), _y - _w),
    ("charts", "R_H", "hanoi_E3_fixed_point", (-1 + _e, _l * _e, 1), (-1, 0, 1)),
    ("charts", "R_H", "hanoi_E3_return", (-1 + _e, _l * _e, 1),
     (-2 * _t * _t, 4 - 2 * _t - 4 * _t * _t), [(0, 1, 0), (1, 0, 1)]),
    ("charts", "R_H", "hanoi_E3_ind_line", (-1 + _e, (2 + _l * _e) * _e, 1),
     (2 * _t - 22, -8, 6 - 2 * _t)),
    ("charts", "R_H", "hanoi_E4_fixed_point", (1 + _e, _l * _e, 1), (1, 0, 1)),
    ("charts", "R_H", "hanoi_E4_return", (1 + _e, _l * _e, 1), (_t * _t, 2 - 3 * _t),
     [(0, 1, 0), (1, 0, -1)]),
    ("charts", "R_H", "hanoi_E4_ind_line_1", (1 + _e, (1 + _l * _e) * _e, 1),
     (-2 - 3 * _t, 2, -3 * _t)),
    ("charts", "R_H", "hanoi_E4_ind_line_2", (1 + _e, (_l * _e - 2) * _e, 1),
     (3 * _t - 17, -4, 3 * _t - 9)),
    ("charts", "R_H", "hanoi_C1_lands_on_E4", (_t, 1 - _t, 1), (1, 0, 1)),
    ("charts", "R_H", "hanoi_C1_slope_one_fifth", (_l, 1 - _l + _e, 1), (1, 5),
     [(0, 1, 0), (1, 0, -1)]),
    ("charts", "R_H", "hanoi_inf_ind_to_infinity", (1 + _e, 1, _l * _e), _w),
]

COPRIME_SEED = 17  # the lines of the coprimality certificate, whatever --seed says

INDETERMINACY = {
    "R_G": [(0, 2, 1), (0, -2, 1), (1, 0, 0), (1, 1, 0), (-1, 1, 0)],
    "G_G": [(0, 2, 1), (0, -2, 1), (1, 0, 0), (1, 1, 0), (-1, 1, 0)],
    "R_L": [(1, 1, 0), (-1, 1, 0)],
    "R_H": [(1, 0, 1), (-1, 0, 1), (-1, 1, 0), (1, 1, 0), (2, 1, 0)],
}


def image(forms, source) -> tuple:
    """``forms`` composed with ``source``: a point (scalars), a curve in t or
    a chart in (e, l), whose int entries stand for constants.  On a chart
    the common power of e is cancelled and e set to 0, which leaves the image
    of the exceptional divisor as a curve in l (constant when it is
    contracted)."""
    arity = max((v.arity for v in source if isinstance(v, MultiPoly)), default=0)
    if arity:
        source = [v if isinstance(v, MultiPoly) else MultiPoly.constant(arity, v) for v in source]
    values = compose(forms, source)
    if arity < 2:
        return values
    k = min((min(ex[0] for ex in v.terms) for v in values if v), default=0)
    return tuple(MultiPoly(1, {ex[1:]: c for ex, c in v.terms.items() if ex[0] == k})
                 for v in values)


def _holds(value: tuple, target) -> bool:
    if isinstance(target, MultiPoly):  # an equation, met by a curve that is not a point
        # a point c(t) v has its top coefficients proportional to v
        top = max(v.total_degree() for v in value)
        point = [v.terms.get((top,), 0) for v in value]
        return (any(point) and compose((target,), value)[0].is_zero()
                and not proportional(value, point))
    return proportional(value, target)


def fact_report() -> dict:
    """Check every row of ``FACTS`` exactly: the ``contracted`` rows, one
    per fact, and the ``charts`` dict of label -> bool.  A source that every
    form vanishes on gives an ``error`` row."""
    report = {"contracted": [], "charts": {}}
    components = {name: builtin_map(name).components for name in {row[1] for row in FACTS}}
    for section, name, label, source, target, *combination in FACTS:
        forms = components[name]
        if combination:
            forms = [sum(c * p for c, p in zip(row, forms)) for row in combination[0]]
        steps = zip([source, *target], target) if isinstance(target, list) else [(source, target)]
        images = [(image(forms, point), goal) for point, goal in steps]
        ok = all(_holds(value, goal) for value, goal in images)
        if section == "charts":
            report["charts"][label] = ok
            continue
        report["contracted"].append({"map": name, "curve": label, "ok": ok})
        if not all(any(value) for value, _ in images):
            report["contracted"][-1]["error"] = "curve lies in the indeterminacy closure"
    return report


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
        rejected = [point for point in candidates if any(compose(m.components, point))]
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
