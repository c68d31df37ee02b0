"""Self-similar group actions on the levels of a rooted d-regular tree.

A generator is presented by a wreath recursion: a root permutation of the
alphabet plus one section (another generator or the identity) per letter.
The action is determined by ``g(i w) = sigma(i) . g_i(w)``.

Conventions, fixed once and documented here:

- vertices of level n are words w1...wn, indexed first-letter-major:
  ``index(w1...wn) = w1 * d^(n-1) + index(w2...wn)``;
- a word of generators acts left to right: in the word "xy", x acts first,
  so the permutation of "xy" is y o x and its matrix is M(y) M(x);
- an apostrophe in a word inverts the preceding generator ("b'a" is
  b^{-1} followed by a).

``build_group`` gives the three builtin presentations; ``GroupSpec``
validates any presentation it is built from.  Each spec memoizes the
level permutations of its generators and of the words ``level_action`` was
asked for, so the memo is freed with the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

IDENTITY = "1"

#: builtin wreath recursion tables: name -> (d, {gen: (root_perm, sections)})
_BUILTINS = {
    "grigorchuk": (
        2,
        {
            "a": ((1, 0), (IDENTITY, IDENTITY)),
            "b": ((0, 1), ("a", "c")),
            "c": ((0, 1), ("a", "d")),
            "d": ((0, 1), (IDENTITY, "b")),
        },
    ),
    "lamplighter": (
        2,
        {
            "a": ((1, 0), ("b", "a")),
            "b": ((0, 1), ("b", "a")),
        },
    ),
    "hanoi": (
        3,
        {
            "a": ((1, 0, 2), (IDENTITY, IDENTITY, "a")),
            "b": ((2, 1, 0), (IDENTITY, "b", IDENTITY)),
            "c": ((0, 2, 1), ("c", IDENTITY, IDENTITY)),
        },
    ),
}


class GroupError(ValueError):
    """Raised for malformed recursions or unknown generators."""


@dataclass(frozen=True)
class GroupSpec:
    """A validated wreath-recursion presentation."""

    d: int
    generators: dict  # name -> (root_perm tuple, sections tuple)
    # level-n permutation of each generator and each word, memoized over
    # (name, n) and ("word", word, n)
    perms: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise GroupError("alphabet size must be at least 2")
        for name, (perm, sections) in self.generators.items():
            if sorted(perm) != list(range(self.d)):
                raise GroupError(f"root permutation of '{name}' is not a bijection of 0..{self.d - 1}")
            if len(sections) != self.d:
                raise GroupError(f"'{name}' must declare {self.d} sections")
            for s in sections:
                if s != IDENTITY and s not in self.generators:
                    raise GroupError(f"section '{s}' of '{name}' does not resolve")


def build_group(name: str) -> GroupSpec:
    """The builtin presentation "grigorchuk", "lamplighter" or "hanoi"."""
    d, table = _BUILTINS[name]
    return GroupSpec(d=d, generators=dict(table))


def parse_word(word: str) -> list:
    """Split a word like "ab'c" into (generator, exponent) letters; an
    apostrophe inverts the preceding generator."""
    letters = []
    i = 0
    while i < len(word):
        ch = word[i]
        if ch == IDENTITY:
            i += 1
            continue
        exp = 1
        if i + 1 < len(word) and word[i + 1] == "'":
            exp = -1
            i += 1
        letters.append((ch, exp))
        i += 1
    return letters


def _generator_perm(group: GroupSpec, name: str, n: int) -> tuple:
    """Level-n permutation of a single generator, memoized in ``group.perms``."""
    key = (name, n)
    cache = group.perms
    if key in cache:
        return cache[key]
    if n == 0:
        perm = (0,)
    else:
        root, sections = group.generators[name]
        sub = []
        for s in sections:
            if s == IDENTITY:
                sub.append(None)
            else:
                sub.append(_generator_perm(group, s, n - 1))
        block = group.d ** (n - 1)
        out = [0] * (group.d ** n)
        for i in range(group.d):
            base = i * block
            target = root[i] * block
            sec = sub[i]
            if sec is None:
                for w in range(block):
                    out[base + w] = target + w
            else:
                for w in range(block):
                    out[base + w] = target + sec[w]
        perm = tuple(out)
    cache[key] = perm
    return perm


def level_action(group: GroupSpec, word: str, n: int) -> tuple:
    """Permutation of the d^n level-n vertices induced by a word of
    generators, as the tuple of images.

    The word acts left to right: the first letter is applied first.  The
    result is memoized in ``group.perms``.
    """
    if n < 0:
        raise GroupError("level must be non-negative")
    key = ("word", word, n)
    if key in group.perms:
        return group.perms[key]
    size = group.d ** n
    current = list(range(size))
    for name, exp in parse_word(word):
        if name not in group.generators:
            raise GroupError(f"unknown generator '{name}'")
        perm = _generator_perm(group, name, n)
        if exp == -1:
            inv = [0] * size
            for v, w in enumerate(perm):
                inv[w] = v
            perm = inv
        current = [perm[v] for v in current]
    group.perms[key] = perm = tuple(current)
    return perm
