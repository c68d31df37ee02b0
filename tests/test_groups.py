"""Wreath recursions and level actions.

The hand oracle recomputes actions directly on letter strings via
g(i w) = sigma(i) . g_i(w), independent of the packed integer indexing used
by the implementation.
"""

import pytest

from spectral_renorm.groups import (
    IDENTITY,
    GroupError,
    build_group,
    level_action,
    parse_word,
)


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
            assert level_action(g, gen, level).perm == oracle_perm(g, gen, level)


def test_spec_examples():
    g = build_group("grigorchuk")
    assert level_action(g, "a", 2).perm == (2, 3, 0, 1)
    assert level_action(g, "b", 1).perm == (0, 1)
    assert level_action(g, "b", 2).perm == (1, 0, 2, 3)
    assert level_action(g, "d", 2).perm == (0, 1, 2, 3)
    h = build_group("hanoi")
    assert level_action(h, "a", 1).perm == (1, 0, 2)
    l = build_group("lamplighter")
    assert level_action(l, "b", 1).perm == (0, 1)


def test_builtin_presentations():
    g = build_group("grigorchuk")
    assert g.d == 2 and set(g.generators) == {"a", "b", "c", "d"}
    assert g.generators["a"] == ((1, 0), (IDENTITY, IDENTITY))
    assert g.generators["b"] == ((0, 1), ("a", "c"))
    h = build_group("hanoi")
    assert h.d == 3 and len(h.generators) == 3
    assert h.generators["a"] == ((1, 0, 2), (IDENTITY, IDENTITY, "a"))


def test_custom_group_trivial_action():
    g = build_group({"a": ((0, 1), ("a", "a"))}, d=2)
    for n in range(4):
        assert level_action(g, "a", n).perm == tuple(range(2 ** n))


def test_custom_group_validation_errors():
    with pytest.raises(GroupError):
        build_group({"a": ((0, 0), (IDENTITY, IDENTITY))}, d=2)  # not a bijection
    with pytest.raises(GroupError):
        build_group({"a": ((1, 0), ("z", IDENTITY))}, d=2)  # unresolved section
    with pytest.raises(GroupError):
        level_action(build_group("grigorchuk"), "x", 2)  # unknown generator


def test_klein_four_group_of_bcd():
    g = build_group("grigorchuk")
    for n in range(0, 11):
        b = level_action(g, "b", n).perm
        c = level_action(g, "c", n).perm
        d = level_action(g, "d", n).perm
        for p in (level_action(g, "a", n).perm, b, c, d):
            assert tuple(p[p[v]] for v in range(len(p))) == tuple(range(len(p)))
        # products: bc = d, cd = b, bd = c (as level actions)
        assert level_action(g, "bc", n).perm == d
        assert level_action(g, "cd", n).perm == b
        assert level_action(g, "bd", n).perm == c


def test_lamplighter_sigma_is_block_swap():
    g = build_group("lamplighter")
    for n in range(1, 13):
        half = 2 ** (n - 1)
        expected = tuple((v + half) % 2 ** n for v in range(2 ** n))
        assert level_action(g, "b'a", n).perm == expected


def test_hanoi_generators_are_symmetric_involutions():
    g = build_group("hanoi")
    for n in range(0, 8):
        for gen in "abc":
            perm = level_action(g, gen, n).perm
            assert tuple(perm[perm[v]] for v in range(len(perm))) == tuple(range(len(perm)))


@pytest.mark.parametrize("name", ["grigorchuk", "lamplighter", "hanoi"])
def test_level_compatibility(name):
    g = build_group(name)
    for gen in g.generators:
        for n in range(1, 6):
            fine = level_action(g, gen, n).perm
            coarse = level_action(g, gen, n - 1).perm
            for v, w in enumerate(fine):
                assert coarse[v // g.d] == w // g.d


def test_word_inverses():
    g = build_group("lamplighter")
    for word in ["a", "b", "ab", "a'b"]:
        fwd = level_action(g, word, 4)
        letters = [(n, -e) for n, e in reversed(parse_word(word))]
        back = level_action(g, letters, 4)
        composed = [back.perm[fwd.perm[v]] for v in range(len(fwd.perm))]
        assert composed == list(range(len(fwd.perm)))


def _schreier_edges(group, generating_set, n):
    """The level-n Schreier graph as (v, s.v) pairs, one per generator and
    vertex, loops included."""
    return [(v, w) for word in generating_set
            for v, w in enumerate(level_action(group, word, n).perm)]


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
    g = build_group({"e": ((0, 1), (IDENTITY, IDENTITY))}, d=2)
    edges = _schreier_edges(g, ["e"], 2)
    assert all(v == w for v, w in edges)
