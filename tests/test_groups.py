"""Wreath recursions and level actions.

The hand oracle recomputes actions directly on letter strings via
g(i w) = sigma(i) . g_i(w), independent of the packed integer indexing used
by the implementation.
"""

import gc
import weakref

import pytest

from spectral_renorm.groups import (
    IDENTITY,
    GroupError,
    GroupSpec,
    build_group,
    level_action,
)
from spectral_renorm.pencils import builtin_scheme, pencil_terms


def oracle_action(group, gen_name, word_vertex):
    """Recursive single-generator action on a letter tuple."""
    if not word_vertex:
        return ()
    if gen_name == IDENTITY:
        return tuple(word_vertex)
    root, sections = group.generators[gen_name]
    head, tail = word_vertex[0], word_vertex[1:]
    return (root[head],) + oracle_action(group, sections[head], tail)


def vertex_to_index(word_vertex, d):
    idx = 0
    for w in word_vertex:
        idx = idx * d + w
    return idx


def all_vertices(d, n):
    if n == 0:
        yield ()
        return
    for rest in all_vertices(d, n - 1):
        for i in range(d):
            yield (i,) + rest


def oracle_perm(group, gen_name, n):
    out = [0] * group.d ** n
    for v in all_vertices(group.d, n):
        out[vertex_to_index(v, group.d)] = vertex_to_index(
            oracle_action(group, gen_name, v), group.d)
    return tuple(out)


@pytest.mark.parametrize("name,n", [("grigorchuk", 4), ("lamplighter", 5), ("hanoi", 3)])
def test_level_actions_match_string_oracle(name, n):
    g = build_group(name)
    for gen in g.generators:
        for level in range(n + 1):
            assert level_action(g, gen, level) == oracle_perm(g, gen, level)


def test_spec_examples():
    g = build_group("grigorchuk")
    assert level_action(g, "a", 2) == (2, 3, 0, 1)
    assert level_action(g, "b", 1) == (0, 1)
    assert level_action(g, "b", 2) == (1, 0, 2, 3)
    assert level_action(g, "d", 2) == (0, 1, 2, 3)
    h = build_group("hanoi")
    assert level_action(h, "a", 1) == (1, 0, 2)
    l = build_group("lamplighter")
    assert level_action(l, "b", 1) == (0, 1)


def test_builtin_presentations():
    g = build_group("grigorchuk")
    assert g.d == 2 and set(g.generators) == {"a", "b", "c", "d"}
    assert g.generators["a"] == ((1, 0), (IDENTITY, IDENTITY))
    assert g.generators["b"] == ((0, 1), ("a", "c"))
    h = build_group("hanoi")
    assert h.d == 3 and len(h.generators) == 3
    assert h.generators["a"] == ((1, 0, 2), (IDENTITY, IDENTITY, "a"))


def test_custom_group_trivial_action():
    g = GroupSpec(d=2, generators={"a": ((0, 1), ("a", "a"))})
    for n in range(4):
        assert level_action(g, "a", n) == tuple(range(2 ** n))


def test_custom_group_validation_errors():
    with pytest.raises(GroupError):
        GroupSpec(d=2, generators={"a": ((0, 0), (IDENTITY, IDENTITY))})  # not a bijection
    with pytest.raises(GroupError):
        GroupSpec(d=2, generators={"a": ((1, 0), ("z", IDENTITY))})  # unresolved section
    with pytest.raises(GroupError):
        level_action(build_group("grigorchuk"), "x", 2)  # unknown generator


def test_klein_four_group_of_bcd():
    g = build_group("grigorchuk")
    for n in range(0, 11):
        b = level_action(g, "b", n)
        c = level_action(g, "c", n)
        d = level_action(g, "d", n)
        for p in (level_action(g, "a", n), b, c, d):
            assert tuple(p[p[v]] for v in range(len(p))) == tuple(range(len(p)))
        # products: bc = d, cd = b, bd = c (as level actions)
        assert level_action(g, "bc", n) == d
        assert level_action(g, "cd", n) == b
        assert level_action(g, "bd", n) == c


def test_lamplighter_sigma_is_block_swap():
    g = build_group("lamplighter")
    for n in range(1, 13):
        half = 2 ** (n - 1)
        expected = tuple((v + half) % 2 ** n for v in range(2 ** n))
        assert level_action(g, "b'a", n) == expected


def test_hanoi_generators_are_symmetric_involutions():
    g = build_group("hanoi")
    for n in range(0, 8):
        for gen in "abc":
            perm = level_action(g, gen, n)
            assert tuple(perm[perm[v]] for v in range(len(perm))) == tuple(range(len(perm)))


@pytest.mark.parametrize("name", ["grigorchuk", "lamplighter", "hanoi"])
def test_level_compatibility(name):
    g = build_group(name)
    for gen in g.generators:
        for n in range(1, 6):
            fine = level_action(g, gen, n)
            coarse = level_action(g, gen, n - 1)
            for v, w in enumerate(fine):
                assert coarse[v // g.d] == w // g.d


def test_word_inverses():
    g = build_group("lamplighter")
    for word, inverse in [("a", "a'"), ("b", "b'"), ("ab", "b'a'"), ("a'b", "b'a")]:
        fwd = level_action(g, word, 4)
        back = level_action(g, inverse, 4)
        composed = [back[fwd[v]] for v in range(len(fwd))]
        assert composed == list(range(len(fwd)))


def _schreier_edges(group, generating_set, n):
    """The level-n Schreier graph as (v, s.v) pairs, one per generator and
    vertex, loops included."""
    return [(v, w) for word in generating_set
            for v, w in enumerate(level_action(group, word, n))]


def test_schreier_graph():
    g = build_group("grigorchuk")
    edges = _schreier_edges(g, ["a", "b", "c", "d"], 1)
    assert len(edges) == 8
    loops = [e for e in edges if e[0] == e[1]]
    assert len(loops) == 6  # b, c, d act trivially at level 1
    h = build_group("hanoi")
    edges = _schreier_edges(h, ["a", "b", "c"], 1)
    non_loops = [e for e in edges if e[0] != e[1]]
    assert len(non_loops) == 6  # a triangle, each edge twice


def test_identity_only_generating_set_gives_loops():
    g = GroupSpec(d=2, generators={"e": ((0, 1), (IDENTITY, IDENTITY))})
    edges = _schreier_edges(g, ["e"], 2)
    assert all(v == w for v, w in edges)


def test_a_dropped_spec_is_freed_with_its_permutations():
    scheme = builtin_scheme("hanoi")
    assert pencil_terms(scheme, 4)  # fills the permutation memo
    ref = weakref.ref(scheme.group)
    del scheme
    gc.collect()
    assert ref() is None


def test_a_word_permutation_is_memoized_on_its_spec():
    g = build_group("lamplighter")
    first = level_action(g, "b'a", 4)
    assert level_action(g, "b'a", 4) is first
    fresh = build_group("lamplighter")
    a, b_inverse = level_action(fresh, "a", 4), level_action(fresh, "b'", 4)
    assert first == tuple(a[w] for w in b_inverse)  # b^-1 acts first
