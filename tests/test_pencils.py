"""Pencil assembly, exact determinants, Schur complements, recursions."""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest

from exact_reference import (
    bareiss_det_int,
    densify,
    det_symbolic,
    fraction_pivots,
    nonzero_rows,
    schur_complement,
)
from spectral_renorm.cli import BUDGETS, main
from spectral_renorm.exact import _pivots
from spectral_renorm.groups import build_group
from spectral_renorm.pencils import (
    PENCILS,
    assemble,
    builtin_scheme,
    det_exact,
    pencil_terms,
    verify_recursion,
)
from spectral_renorm.ratmaps.maps import builtin_map, compose
from spectral_renorm.ratmaps.poly import MultiPoly


def _p(terms):
    return MultiPoly(2, {e: Fraction(c) for e, c in terms.items()})


LAM = MultiPoly.variable(2, 0)
MU = MultiPoly.variable(2, 1)


def _affine_image(map_name, lam, mu):
    """R(lam, mu) of a builtin map, at a point off its poles."""
    x, y, w = compose(builtin_map(map_name).components, (lam, mu, 1))
    return x / w, y / w


def test_grigorchuk_level_zero_and_one():
    s = builtin_scheme("grigorchuk")
    m0 = assemble(s, 0, Fraction(0), Fraction(0))
    assert m0 == [{0: Fraction(2)}]
    sym = assemble(s, 1, LAM, MU)
    two_minus_mu = 2 - MU
    assert sym[0][0] == two_minus_mu and sym[1][1] == two_minus_mu
    assert sym[0][1] == -LAM and sym[1][0] == -LAM


def test_symbolic_determinants_match_closed_forms():
    # level-1 determinant of the four-generator pencil: (2-mu)^2 - lam^2
    s = builtin_scheme("grigorchuk")
    d1 = det_symbolic(densify(assemble(s, 1, LAM, MU)))
    assert d1 == (2 - MU - LAM) * (2 - MU + LAM)
    # the recursion starts at level 2, so the seed is the level-1 determinant
    assert d1 == s.seed
    d0 = det_symbolic(densify(assemble(s, 0, LAM, MU)))
    assert d0 == 2 - LAM - MU
    # three-letter tower at level 1: -(lam-1-2mu)(lam-1+mu)^2
    h = builtin_scheme("hanoi")
    d1 = det_symbolic(densify(assemble(h, 1, LAM, MU)))
    expected = -1 * (LAM - 1 - 2 * MU) * (LAM - 1 + MU) ** 2
    assert d1 == expected
    assert d1 == h.seed
    # lamplighter level 0 and the symbolic level-2 expansion
    l = builtin_scheme("lamplighter")
    assert det_symbolic(densify(assemble(l, 0, LAM, MU))) == l.seed
    d2 = det_symbolic(densify(assemble(l, 2, LAM, MU)))
    assert d2 == (MU - LAM) * (LAM * LAM - MU * MU - 4) * (4 - LAM - MU)


def test_hanoi_level_one_is_coupled_all_ones():
    h = builtin_scheme("hanoi")
    lam, mu = Fraction(2, 3), Fraction(1, 5)
    m = densify(assemble(h, 1, lam, mu))
    for i in range(3):
        for j in range(3):
            assert m[i][j] == (1 - lam if i == j else mu)
    # level 0 is the 1 x 1 matrix its words give: a + b + c - lam + 2 (mu - 1)
    assert densify(assemble(h, 0, lam, mu)) == [[1 - lam + 2 * mu]]


def test_pencil_terms_merge_words_then_shift_the_first_letter():
    g = builtin_scheme("grigorchuk")
    terms = pencil_terms(g, 2)
    # the row's words in its order: b, c, d, the identity, then a
    assert [t[:3] for t in terms] == [(1, 0, 0)] * 3 + [(-1, 0, -1), (0, -1, 0)]
    assert terms[3][3] == (0, 1, 2, 3)
    h = builtin_scheme("hanoi")
    terms = pencil_terms(h, 2)
    assert len(terms) == 6
    shifts = terms[-2:]
    assert list(h.terms)[-2:] == ["s", "ss"]
    assert all(t[:3] == (-1, 0, 1) for t in shifts)
    # the two shifts sum to the all-off-diagonal-ones first-letter coupling
    entries = sorted((rows[v], v) for *_, rows in shifts for v in range(9))
    assert entries == sorted((3 * i + w, 3 * j + w) for i in range(3) for j in range(3)
                             if i != j for w in range(3))
    assert [t[3] for t in pencil_terms(h, 0)] == [(0,)] * 6
    with pytest.raises(ValueError):
        pencil_terms(g, -1)


def test_the_hanoi_shift_joins_the_pencil_alphabet_only():
    assert sorted(build_group("hanoi").generators) == ["a", "b", "c"]
    h = builtin_scheme("hanoi")
    assert sorted(h.group.generators) == ["a", "b", "c", "s"]
    assert h.group.generators["s"] == ((1, 2, 0), ("1", "1", "1"))
    # each call builds its own group spec, so the permutation memo goes with it
    assert builtin_scheme("hanoi").group is not h.group


@pytest.mark.parametrize("name", ["grigorchuk", "lamplighter", "hanoi"])
def test_symbolic_instantiation_matches_exact_at_random_points(name):
    s = builtin_scheme(name)
    rng = random.Random(17)
    for n in range(3):
        sym = densify(assemble(s, n, LAM, MU))
        for _ in range(3):
            lam = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            mu = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            evaluated = [[entry.eval((lam, mu)) for entry in row] for row in sym]
            assert evaluated == densify(assemble(s, n, lam, mu))


@pytest.mark.parametrize("name", ["grigorchuk", "lamplighter", "hanoi"])
def test_assembled_matrices_are_symmetric(name):
    s = builtin_scheme(name)
    rng = random.Random(4)
    for n in range(s.seed_level, s.seed_level + 3):
        lam = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        mu = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        m = densify(assemble(s, n, lam, mu))
        assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(len(m)))


def test_det_exact_examples():
    assert det_exact([{0: Fraction(2 - 1), 1: Fraction(-1)},
                      {0: Fraction(-1), 1: Fraction(2 - 1)}]) == 0
    assert det_exact([{i: Fraction(1)} for i in range(8)]) == 1


@pytest.mark.parametrize("name", ["grigorchuk", "lamplighter", "hanoi"])
def test_the_rows_of_nonzeros_give_the_pivots_of_the_dense_matrix(name):
    # levels 2 up to the schur-verify level cap, where the benchmark runs
    s = builtin_scheme(name)
    rng = random.Random(23)
    for level in range(2, BUDGETS["schur-verify"]["--level"][name] + 1):
        lam = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        mu = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        rows = assemble(s, level, lam, mu)
        assert all(all(row.values()) for row in rows)  # nonzeros only
        dense = densify(rows)
        pivots = _pivots(rows)
        assert pivots is not None and len(pivots) == len(rows)
        assert pivots == fraction_pivots(dense)


def dense_det(matrix):
    """``det_exact`` of a dense matrix."""
    return det_exact(nonzero_rows(matrix))


def bareiss_det(matrix):
    """Dense oracle: rows rescaled to integers, then fraction-free Bareiss."""
    scale = 1
    int_rows = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        int_rows.append([int(x * den) for x in row])
    return Fraction(bareiss_det_int(int_rows), scale)


@pytest.mark.parametrize("name,level", [("hanoi", 4), ("lamplighter", 6), ("grigorchuk", 6)])
def test_det_exact_matches_bareiss_on_pencils(name, level):
    s = builtin_scheme(name)
    rng = random.Random(11)
    for _ in range(3):
        lam = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        mu = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        rows = assemble(s, level, lam, mu)
        m = densify(rows)
        assert det_exact(rows) == bareiss_det(m)
        assert _pivots(rows) == fraction_pivots(m)
    # the pivot order is a function of the matrix alone, and the rows are
    # read as they are: the elimination changes none of them
    first = _pivots(rows)
    assert first is not None and len(first) == len(m)
    assert nonzero_rows(m) == rows
    assert _pivots([dict(row) for row in rows]) == first


@pytest.mark.parametrize("name,level,lam,mu", [
    ("lamplighter", 6, Fraction(7, 3), Fraction(7, 3)),  # mu - lam = 0
    ("hanoi", 4, Fraction(5, 2), Fraction(3, 2)),  # lam^2 - (1 + mu)^2 = 0
], ids=["lamplighter", "hanoi"])
def test_the_elimination_empties_a_column_on_a_factor_zero(name, level, lam, mu):
    rows = assemble(builtin_scheme(name), level, lam, mu)
    assert _pivots(rows) is None
    assert fraction_pivots(densify(rows)) is None
    assert det_exact(rows) == 0


def test_a_determinant_makes_no_fraction_per_row_update(monkeypatch):
    # lamplighter 6 takes about 640 row updates; the elimination may make two
    # Fractions per pivot (its value and the product), and none per entry
    rows = assemble(builtin_scheme("lamplighter"), 6, Fraction(-37, 11), Fraction(52, 17))
    expected = det_exact(rows)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):  # Python 3.12 on: arithmetic bypasses __new__
        from_coprime = Fraction._from_coprime_ints

        def counting_from_coprime(cls, numerator, denominator):
            made.append(cls)
            return from_coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_coprime))
    det = det_exact(rows)
    monkeypatch.undo()
    assert det == expected
    assert len(made) <= 2 * len(rows)


def test_schur_complement_identity_and_examples():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    s1 = schur_complement(m, 1, which=1)
    assert s1 == [[Fraction(3, 2)]]
    assert dense_det(m) == Fraction(2) * dense_det(s1)
    # block diagonal: S1 = A
    m = [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(7)]]
    assert schur_complement(m, 1, 1) == [[Fraction(5)]]
    with pytest.raises(ValueError):
        schur_complement([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], 1, 1)


def test_schur_determinant_identity_on_random_matrices():
    rng = random.Random(9)
    done = 0
    while done < 50:
        n = rng.randint(2, 6)
        split = rng.randint(1, n - 1)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        d_block = [row[split:] for row in m[split:]]
        if dense_det(d_block) == 0:
            continue
        s1 = schur_complement(m, split, which=1)
        assert dense_det(m) == dense_det(d_block) * dense_det(s1)
        done += 1


def test_schur_second_complement():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    s2 = schur_complement(m, 1, which=2)
    assert s2 == [[Fraction(3, 2)]]
    assert dense_det(m) == Fraction(2) * dense_det(s2)


def test_grigorchuk_schur_step_reproduces_renormalized_pencil():
    # first Schur complement of the level-2 pencil against the level-1 pencil
    # at the image point: determinants match through the block identity
    s = builtin_scheme("grigorchuk")
    lam, mu = Fraction(1, 3), Fraction(1, 7)
    m2 = densify(assemble(s, 2, lam, mu))
    d_block = [row[2:] for row in m2[2:]]
    s1 = schur_complement(m2, 2, which=1)
    assert dense_det(m2) == dense_det(d_block) * dense_det(s1)
    image = _affine_image("R_G", lam, mu)
    m1_image = assemble(s, 1, image[0], image[1])
    # det S1 equals det M_1(R(lam,mu)) up to the scalar from the recursion
    lhs = dense_det(s1)
    rhs = det_exact(m1_image)
    factor = dense_det(m2) / (dense_det(d_block) * rhs)
    assert lhs == factor * rhs


@pytest.mark.parametrize("name,levels", [
    ("grigorchuk", (2, 3)),
    ("lamplighter", (1, 2, 3)),
    ("hanoi", (2, 3)),
])
def test_verify_recursion_small_levels(name, levels):
    s = builtin_scheme(name)
    for n in levels:
        report = verify_recursion(s, n, samples=4, seed=11)
        assert report["failures"] == []
        assert len(report["points"]) == 4


@pytest.mark.parametrize("name,level", [("hanoi", 6), ("lamplighter", 8), ("grigorchuk", 8)])
def test_verify_recursion_one_level_above_the_cap(name, level):
    # one level above cli.BUDGETS["schur-verify"]["--level"] (5/7/7)
    report = verify_recursion(builtin_scheme(name), level, samples=1, seed=7)
    assert report["failures"] == []
    assert len(report["points"]) == 1


@pytest.mark.parametrize("name", sorted(PENCILS))
def test_verify_recursion_starts_above_the_seed_level(name):
    s = builtin_scheme(name)
    with pytest.raises(ValueError, match=f"starts at level {s.seed_level + 1}$"):
        verify_recursion(s, s.seed_level, samples=1)


@pytest.mark.parametrize("level", [2, 3])
def test_hanoi_without_its_second_shift_fails_the_recursion(level):
    h = builtin_scheme("hanoi")
    mutant = dataclasses.replace(h, terms={w: t for w, t in h.terms.items() if w != "ss"})
    assert verify_recursion(h, level, samples=2, seed=5)["failures"] == []
    assert len(verify_recursion(mutant, level, samples=2, seed=5)["failures"]) == 2


def test_verify_recursion_refuses_levels_above_the_cap(tmp_path, monkeypatch):
    assert BUDGETS["schur-verify"]["--level"] == {"grigorchuk": 7, "lamplighter": 7, "hanoi": 5}

    def no_work(*args):
        raise AssertionError("assembly started above the level cap")

    monkeypatch.setattr("spectral_renorm.pencils.assemble", no_work)
    assert main(["schur-verify", "--group", "hanoi", "--level", "6", "--samples", "1",
                 "--out", str(tmp_path)]) == 2


def test_recursion_identity_at_pinned_points():
    # two-letter four-generator cascade at (1/3, 1/5), level 3
    s = builtin_scheme("grigorchuk")
    lam, mu = Fraction(1, 3), Fraction(1, 5)
    image = _affine_image("R_G", lam, mu)
    lhs = det_exact(assemble(s, 3, lam, mu))
    q = s.factors[0][0].eval((lam, mu))
    rhs = s.sign(3) * q ** 2 * det_exact(assemble(s, 2, image[0], image[1]))
    assert lhs == rhs

    # three-letter tower at (2/7, 1/3), level 3: exponents 3^(n-2), 2*3^(n-2)
    h = builtin_scheme("hanoi")
    lam, mu = Fraction(2, 7), Fraction(1, 3)
    image = _affine_image("R_H", lam, mu)
    q1 = h.factors[0][0].eval((lam, mu))
    q2 = h.factors[1][0].eval((lam, mu))
    lhs = det_exact(assemble(h, 3, lam, mu))
    rhs = q1 ** 3 * q2 ** 6 * det_exact(assemble(h, 2, image[0], image[1]))
    assert lhs == rhs
