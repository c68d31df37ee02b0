"""Blow-up intersection calculus and the invariant-fibration detector."""

import random
from dataclasses import replace

import numpy as np
import pytest

from exact_reference import bareiss_det_int
from spectral_renorm.cli import SURFACE_JSON_BUDGET
from spectral_renorm.cohomology import (
    SURFACES,
    _adjoint_ok,
    action_from_json,
    invariant_classes,
    map_action,
    surface,
    verify_printed_matrices,
)


def builtin(name):
    """The surface of a builtin row, blown up at its points."""
    return SURFACES[name].action().surface


def test_intersection_forms_match_printed():
    for name, row in SURFACES.items():
        x = builtin(name)
        assert [list(r) for r in x.intersection] == row.intersection
        assert x.signature() == (1, x.k)
        assert abs(x.det()) == 1
        assert x.det() == bareiss_det_int([list(r) for r in x.intersection])


def test_signature_is_the_inertia_of_the_form():
    # indefinite and singular forms too, against the float eigenvalue signs
    x = builtin("hanoi4")
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        g = rng.integers(-2, 3, (n, n))
        g = g + g.T
        if trial % 3 == 0:
            g[0, :] = g[:, 0] = 0
        y = replace(x, intersection=tuple(tuple(int(v) for v in row) for row in g))
        vals = np.linalg.eigvalsh(g.astype(float))
        assert y.signature() == (int((vals > 1e-9).sum()), int((vals < -1e-9).sum()))


def test_basic_intersection_numbers():
    g = builtin("grigorchuk4")
    e1 = [0, 1, 0, 0, 0]
    assert g.pairing(e1, e1) == -1
    lt = [1, 0, 0, 0, 0]
    assert g.pairing(lt, lt) == -1
    std = surface(g.incidences, basis="standard")
    h = [1, 0, 0, 0, 0]
    assert std.pairing(h, h) == 1


def test_canonical_class_and_basis_change():
    g = builtin("grigorchuk4")
    assert list(g.canonical) == [-3, -2, -2, 1, 1]
    # Lt = H - E_1 - E_2, so a Lt + sum b_i E_i = a H + sum (b_i - a [E_i on the line]) E_i
    a, *b = g.canonical
    standard = [a] + [bi - (a if inc else 0) for bi, inc in zip(b, g.incidences)]
    assert standard == [-3, 1, 1, 1, 1]
    assert standard == list(surface(g.incidences, basis="standard").canonical)
    l = builtin("lamplighter2")
    assert list(l.canonical) == [-3, -2, -2]
    d1 = [1, 0, 1]
    assert l.pairing(d1, l.canonical) == -2


def test_pullbacks_match_printed_and_adjointness():
    rng = random.Random(8)
    for row in SURFACES.values():
        action = row.action()
        x = action.surface
        assert [list(r) for r in action.pull] == row.pull
        n = x.dim
        for _ in range(100):
            a = [rng.randint(-9, 9) for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            push_a = [sum(action.push[i][j] * a[j] for j in range(n)) for i in range(n)]
            pull_b = [sum(action.pull[i][j] * b[j] for j in range(n)) for i in range(n)]
            assert x.pairing(push_a, b) == x.pairing(a, pull_b)


def test_spectral_radii_and_jordan_flags():
    for row in SURFACES.values():
        action = row.action()
        assert action.spectral_radius == row.rho
        assert action.jordan_block == row.jordan


def test_jordan_block_counts_only_eigenvalues_of_modulus_rho():
    # the pullback is J_2(1) + the companion matrix of x^2 - 3x + 1: its one
    # Jordan block sits at 1, below the simple rho = (3 + sqrt 5)/2
    action = action_from_json({"incidences": [False, False, False], "basis": "standard",
                               "F_star": [[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 1],
                                          [0, 0, -1, 3]]}, **SURFACE_JSON_BUDGET)
    assert action.pull == ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 3))
    assert float(action.spectral_radius) == pytest.approx((3 + 5 ** 0.5) / 2)
    assert not action.jordan_block


def test_the_adjointness_check_fails_on_any_one_wrong_pullback_entry():
    """The basis pairs decide (F_* a).b == a.(F^* b): a change of +-1 to any
    single entry of a builtin pullback breaks it on one of them."""
    for name, row in SURFACES.items():
        action = row.action()
        assert _adjoint_ok(action)
        n = action.surface.dim
        for i, j, delta in ((i, j, delta) for i in range(n) for j in range(n) for delta in (1, -1)):
            pull = [list(r) for r in action.pull]
            pull[i][j] += delta
            wrong = replace(action, pull=tuple(tuple(r) for r in pull))
            assert not _adjoint_ok(wrong), (name, i, j, delta)


def test_identity_pushforward_is_trivial():
    x = builtin("lamplighter2")
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    action = map_action(x, ident)
    assert action.pull == tuple(tuple(r) for r in ident)
    assert action.spectral_radius == 1
    assert not action.jordan_block


def test_invariant_classes_recovered_from_kernel():
    expectations = {
        "grigorchuk4": (2, [2, 1, 1, -1, -1]),
        "hanoi4": (2, [2, 1, 1, -1, -1]),
        "lamplighter2": (1, [1, 0, 1]),
    }
    for name, (d, cls) in expectations.items():
        action = SURFACES[name].action()
        x = action.surface
        found = invariant_classes(action, d)
        assert found["candidates"] == [cls]
        assert x.pairing(cls, cls) == 0
        assert x.pairing(cls, x.canonical) < 0


def test_lamplighter_jordan_relation():
    action = SURFACES["lamplighter2"].action()
    d1 = [1, 0, 1]
    d2 = [1, 1, 0]
    apply = lambda m, v: [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]
    assert apply(action.pull, d1) == d1
    assert apply(action.pull, d2) == [a + b for a, b in zip(d1, d2)]


def test_verify_printed_matrices_all_surfaces():
    for name in ("grigorchuk4", "lamplighter2", "hanoi4"):
        report = verify_printed_matrices(name)
        assert report["all_ok"], report
    grig = verify_printed_matrices("grigorchuk4")
    assert grig["second_map_factors"]
    assert grig["involution_squares_to_identity"]
    assert grig["second_map_pull_matches_printed"]
    with pytest.raises(ValueError):
        verify_printed_matrices("nope")


def test_all_ok_fails_on_one_wrong_printed_entry(monkeypatch):
    def false_keys(report):
        return {k for k, v in report.items() if v is False}

    before = false_keys(verify_printed_matrices("hanoi4"))
    assert before == {"jordan_block"}  # a datum: hanoi4 has no Jordan block
    wrong = [row[:] for row in SURFACES["hanoi4"].pull]
    wrong[2][3] += 1
    monkeypatch.setitem(SURFACES, "hanoi4", replace(SURFACES["hanoi4"], pull=wrong))
    after = false_keys(verify_printed_matrices("hanoi4"))
    assert after - before == {"pullback_matches_printed", "all_ok"}


# each pinned column of a SURFACES row and the report key that checks it
PINNED = {
    "pull": "pullback_matches_printed",
    "intersection": "intersection_matches_printed",
    "rho": "spectral_radius_ok",
    "jordan": "jordan_block_ok",
    "fiber": "kernel_recovers_class",
    "relations": "invariant_relation_ok",
    "involution": "involution_squares_to_identity",
    "second_push": "second_map_factors",
    "second_pull": "second_map_pull_matches_printed",
}


def _shift_last(value):
    """``value`` with its last entry changed: a flag negated, an integer plus 1."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return [*value[:-1], _shift_last(value[-1])]


@pytest.mark.parametrize("name, columns", [("grigorchuk4", 8), ("lamplighter2", 6),
                                           ("hanoi4", 5)])
def test_every_pinned_column_fails_when_shifted(name, columns, monkeypatch):
    row = SURFACES[name]
    assert verify_printed_matrices(name)["all_ok"]
    shifted = []
    for column, key in PINNED.items():
        value = getattr(row, column)
        if value is None or value == ():
            continue
        monkeypatch.setitem(SURFACES, name, replace(row, **{column: _shift_last(value)}))
        report = verify_printed_matrices(name)
        assert report[key] is False and report["all_ok"] is False, column
        shifted.append(column)
    assert len(shifted) == columns


def test_custom_surface_from_incidences():
    x = surface([True, False])
    assert x.k == 2
    assert x.intersection[0][0] == 0  # Lt^2 = 1 - 1
    assert x.signature() == (1, 2)
    with pytest.raises(ValueError):
        surface([True, False], basis="nope")


def test_nonintegral_pullback_rejected():
    x = builtin("lamplighter2")
    with pytest.raises(ValueError):
        map_action(x, [[1, 0], [0, 1]])
