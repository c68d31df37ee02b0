"""Eigenvalue measures of sliced pencils and their limit laws.

The density of states at level n is the normalized eigenvalue-counting
measure of the level-n operator on d^n vertices.  The slices are points of
the pencils defined in ``pencils.builtin_scheme``: the pencil is evaluated
with its spectral variable at 0 (that variable enters every builtin pencil
as -identity), which gives

- grigorchuk:  eigenvalues mu of a + b + c + d - 1, the pencil at
  (grig_slice, 0) with grig_slice = -1 by default, pushed through
  x = (mu + 1) / 4;
- lamplighter: eigenvalues lam of a + a^-1 + b + b^-1, the pencil at (0, 0);
- hanoi:       eigenvalues lam of a + b + c, the pencil at (0, 1).

Every slice spectrum comes from the renormalization (``decimated_spectrum``),
with exact integer multiplicities and no matrix: hanoi and grigorchuk (at
any grig_slice) as backward orbits of the fiber polynomial, lamplighter from
the exponents of its telescoped determinant.  The tests check these atoms
against the eigenvalues of the sliced pencil built as a dense matrix.

The grigorchuk limit law is the slice of an explicit family of hyperbolas
weighted by the Chebyshev equilibrium measure; it has a closed-form CDF.

The level measures are ``Measure1D``s of Python floats and integer counts,
an atom's mass its count over the level's total d^n.  ``decimated_spectrum``
yields the levels 1..n from one decimation pass that sorts nothing
(``_lift``), so ``spectrum`` and ``dos-compare`` run without numpy, and
``cdf_distance`` is their W1.  The backward orbits (``preimages``,
``preimage_levels``, ``julia_backward``) run on numpy arrays; their float
samples make a ``Samples``, whose points and running CDF stay arrays, and
``sample_w1`` is its W1.  ``kolmogorov_to_cdf`` reads either kind.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import Callable, Sequence


@dataclass(frozen=True)
class Measure1D:
    """Finite atomic probability measure on the line: at least one atom, at
    strictly increasing points with positive integer counts.  An atom's mass
    is its count over ``total``, divided where it is read (``weights``)."""

    points: tuple
    counts: tuple

    def __post_init__(self):
        if len(self.points) != len(self.counts):
            raise ValueError("points and counts differ in length")
        if not self.counts:  # total 0: no probability measure
            raise ValueError("a measure needs at least one atom")
        if any(type(c) is not int or c <= 0 for c in self.counts):
            raise ValueError("counts must be positive integers")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be strictly increasing")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def weights(self) -> tuple:
        total = self.total
        return tuple(c / total for c in self.counts)

    @property
    def cumulative(self) -> tuple:
        return tuple(accumulate(self.weights))


@dataclass(frozen=True, eq=False)
class Samples:
    """Empirical measure of n float samples as numpy arrays: the distinct
    values in ascending order, and the running sum of k/n for a value seen k times."""

    points: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def of(cls, values) -> Samples:
        """The measure of unsorted, possibly repeated values: at least one, all finite."""
        import numpy as np

        vals = np.sort(np.asarray(values, dtype=float), kind="stable")
        if not len(vals) or not np.isfinite(vals[[0, -1]]).all():  # -inf first, inf and nan last
            raise ValueError("a sample measure needs at least one sample, all finite")
        # each run of equal values is one point, the first of its run
        starts = np.flatnonzero(np.concatenate(([True], np.diff(vals) != 0)))
        counts = np.diff(starts, append=len(vals))
        return cls(points=vals[starts], cumulative=np.cumsum(counts / len(vals)))

    def cdf(self, xs: np.ndarray) -> np.ndarray:
        """The running CDF at the points ``xs``, 0 below the first point."""
        import numpy as np

        return np.concatenate(([0.0], self.cumulative))[np.searchsorted(self.points, xs, "right")]


@dataclass(frozen=True)
class DOSResult:
    """Density of states at one level: ``measure`` has one atom per distinct
    eigenvalue, counted with its integer multiplicity, of total d^n."""

    group: str
    level: int
    slice_descriptor: str
    measure: Measure1D


# |lam| bound of the grigorchuk slice: its atoms are +-sqrt(4 + lam^2 - 4 lam theta)
GRIG_SLICE_MAX = 1e150


def slice_point(group_tag: str, grig_slice: float = -1.0) -> tuple:
    """Point (lam, mu) at which the group's pencil is sliced: the pencil of
    ``pencils.builtin_scheme`` there, with its spectral variable at 0, is the
    slice operator."""
    if group_tag == "grigorchuk":
        if not abs(grig_slice) <= GRIG_SLICE_MAX:  # also refuses inf and nan
            raise ValueError(f"--grig-slice must be finite with modulus at most "
                             f"{GRIG_SLICE_MAX:g}, not {grig_slice}")
        return (grig_slice, 0.0)
    if group_tag == "lamplighter":
        return (0.0, 0.0)
    if group_tag == "hanoi":
        return (0.0, 1.0)
    raise ValueError(f"unknown group tag '{group_tag}'")


# Decimation data: the fiber polynomial (a, b, c) of a z^2 + b z + c, the
# atoms that are not lifted, and the atoms born at level k with multiplicity.
_HANOI_FIBER = (1.0, -1.0, -3.0)  # f(z) = z^2 - z - 3
_CHEBYSHEV = (2.0, 0.0, -1.0)  # T(theta) = 2 theta^2 - 1
DECIMATION_MAX_LEVEL = 20


def _hanoi_born(k: int) -> tuple:
    return ((3.0, 1), (0.0, (3 ** (k - 1) + 3) // 2), (-2.0, (3 ** (k - 1) - 1) // 2))


def _grig_born(k: int) -> tuple:
    # -1 has the single preimage 0, T's critical point, born from level 2 on
    return ((-1.0, 1), (1.0, 1), (0.0, 1 if k > 1 else 0))


def _lift(fiber: tuple, ws: list) -> list:
    """Both inverse branches of the fiber a z^2 + b z + c at the ascending
    points ``ws``, in ascending order: the minus branch (-b - r)/(2a)
    reversed, then the plus branch (-b + r)/(2a), r = sqrt(b^2 - 4a(c - w)).
    With a > 0 and monotone rounding r does not decrease along ``ws``, so
    the minus values do not increase, the plus values do not decrease, and
    every minus value lies at or below -b/(2a), below every plus value.
    Each value takes the float operations of ``preimages``."""
    a, b, c = fiber
    bb, a4, nb, a2 = b * b, 4.0 * a, -b, 2.0 * a
    sqrt = math.sqrt
    roots = [sqrt(bb - a4 * (c - w)) for w in ws]
    return [(nb - r) / a2 for r in reversed(roots)] + [(nb + r) / a2 for r in roots]


def _insert(pts: list, mults: list, atoms) -> None:
    """Put the atoms (point, multiplicity) into ascending ``pts`` by
    bisection, each after the points equal to it."""
    for p, m in atoms:
        i = bisect_right(pts, p)
        pts.insert(i, p)
        mults.insert(i, m)


def _decimate(fiber: tuple, terminal: tuple, born: Callable[[int], tuple], n: int):
    """Yields the atoms of levels 1..n, each ascending, as (points,
    multiplicities), which the next level trims in place: level k is the
    preimage under ``fiber`` of level k-1's atoms outside ``terminal``, each
    inheriting its parent's multiplicity, plus ``born(k)``'s nonzero ones."""
    pts, mults = [], []
    for k in range(1, n + 1):
        for t in terminal:
            lo, hi = bisect_left(pts, t), bisect_right(pts, t)
            del pts[lo:hi], mults[lo:hi]
        pts, mults = _lift(fiber, pts), mults[::-1] + mults
        _insert(pts, mults, [(p, m) for p, m in born(k) if m])
        yield pts, mults


def _lamplighter_atoms(n: int) -> tuple:
    """The atom 4 once, and 4 cos(pi p/q) for 2 <= q <= n + 1, gcd(p, q) = 1,
    each with multiplicity [q | n+1] + sum_(j<n, q | j+1) 2^(n-1-j)."""
    pts, mults = [4.0], [1]
    for q in range(2, n + 2):
        mult = ((n + 1) % q == 0) + sum(2 ** (n - 1 - j) for j in range(q - 1, n, q))
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                # = 4 cos(pi p/q); exactly 0 at p/q = 1/2 and odd under p -> q - p
                x = 4.0 * math.sin(math.pi * (q - 2 * p) / (2 * q))
                # rational only for q <= 3 (Niven's theorem), and then 0 or +-2
                pts.append(float(round(x)) if q <= 3 else x)
                mults.append(mult)
    atoms = sorted(zip(pts, mults), key=lambda atom: atom[0])
    return [p for p, _ in atoms], [m for _, m in atoms]


def decimated_spectrum(group_tag: str, n: int, grig_slice: float = -1.0):
    """Eigenvalues of the level-k slices for k = 1..n, from one pass of the
    renormalization.

    Yields (points, multiplicities) for each level in turn: lists of the
    distinct eigenvalues in increasing order and their exact integer
    multiplicities, which sum to d^k.  The slice is ``slice_point``'s: hanoi
    a + b + c (mu = 1), lamplighter a + a^-1 + b + b^-1 (mu = 0), grigorchuk
    a + b + c + d - 1 at lam = ``grig_slice``.  No matrix is built.

    hanoi and grigorchuk are spectral decimation: positions are backward
    orbits under the fiber polynomial, by ``_lift``, both inverse branches at
    ascending points.  Level n is the preimage of level n-1's lifted atoms,
    each preimage inheriting its parent's multiplicity, plus the exceptional
    atoms born at level n, so each level is lifted once and read as it comes.

    hanoi: the fiber polynomial is f(z) = z^2 - z - 3 (the semiconjugacy
    pi1 o R_H = f o pi1, with pi1 = f on the slice mu = 1).  The fixed point 3
    is not lifted; level n's born atoms are 3 with multiplicity 1, 0 with
    a_n = (3^(n-1) + 3)/2 and -2 with b_n = (3^(n-1) - 1)/2.  Two counts fix
    a_n and b_n.  Dimension: the lifted atoms carry 2 (3^(n-1) - 1) of the
    3^n eigenvalues, so a_n + b_n = 3^(n-1) + 1.  Trace: the slice has trace
    3, and each preimage pair of f sums to 1, so the lifted atoms add
    3^(n-1) - 1 to the trace and 3^(n-1) - 1 + 3 - 2 b_n = 3, which gives b_n.
    Lifting the atom 3 as well would give 3 and -2 once each; beyond those
    lifts level n gains a_n + b_n - 1 = 3^(n-1) exceptional eigenvalues,
    the total exponent 3^(n-2) + 2 * 3^(n-2) = sum_i m_i d^(n - p_i) of
    the scheme's two factors.  So the born multiplicities grow by d = 3 per
    level, as those exponents do.  The spectrum is {3}, f^-i(0) with
    multiplicity a_(n-i) for i < n, and f^-j(-2) with b_(n-j) for j < n-1:
    3 * 2^(n-1) - 1 atoms.

    grigorchuk: the semiconjugator psi = (4 - mu^2 + lam^2)/(4 lam) carries
    R_G to the Chebyshev map T(theta) = 2 theta^2 - 1, and the decimation
    runs in theta, whatever the slice.  With
    C_theta = 4 - mu^2 + lam^2 - 4 lam theta, the level-n determinant is, up
    to sign, the line pair L below times C_theta over the theta-atoms other
    than +-1, and the pullbacks are exact identities:

        C_theta o R_G = C_t1 C_t2 / (4 - mu^2),  {t1, t2} = T^-1(theta),
        L o R_G = L C_0 / (4 - mu^2),  L = (2 - lam - mu)(2 + lam - mu).

    The line pair holds the atoms theta = 1 (mu = 2 - lam) and theta = -1
    (mu = 2 + lam); T^-1(-1) = {0} is born at every level from 2 on.  Each of
    the 2^(n-2) factors of level n-1 leaves one 1/(4 - mu^2), which is the
    scheme's factor (4 - mu^2)^(2^(n-2)), exponent m d^(n-p) = 2^(n-2).
    Every theta other than +-1 carries the two simple atoms
    mu = +-sqrt(4 + lam^2 - 4 lam theta), the roots of C_theta: 2^n
    eigenvalues.  They are all simple unless lam = 0, where every atom is
    +-2.  At lam = +-1 (the determinant is even in lam) the theta-atoms are
    symmetric under theta -> -theta, so both slices give the same points.

    lamplighter: R_L fixes alpha = lam + mu and sends beta = lam - mu to
    alpha - 4/beta.  On the slice, with x the eigenvalue, beta_0 = alpha = x
    and beta_k = 2 U_(k+1)(x/4) / U_k(x/4) (U_k the Chebyshev polynomials of
    the second kind), so the recursion
    det M_n = (mu - lam)^(2^(n-1)) det M_(n-1) o R_L with seed 4 - lam - mu
    telescopes: up to a constant the characteristic polynomial is
    (4 - x) U_n(x/4) prod_(j<n) U_j(x/4)^(2^(n-1-j)).  The roots of U_j(x/4)
    are the simple 4 cos(pi p/q) with p/q in lowest terms and q | j + 1.
    So 4 has multiplicity 1, and 4 cos(pi p/q), 2 <= q <= n + 1, has
    [q | n+1] + sum_(j<n, q | j+1) 2^(n-1-j), the nearest integer to
    2^n/(2^q - 1).  Each position is computed once, from p/q in lowest terms,
    as 4 sin(pi (q - 2p)/(2q)), and the rational ones (q <= 3: 0 and +-2)
    exactly.

    The tests check these closed forms against the eigenvalues of the sliced
    pencil as a dense matrix.  ``n`` is at most ``DECIMATION_MAX_LEVEL``.
    """
    if not 1 <= n <= DECIMATION_MAX_LEVEL:
        raise ValueError(f"decimation level {n} outside 1..{DECIMATION_MAX_LEVEL}")
    lam, _ = slice_point(group_tag, grig_slice)  # refuses a bad tag or slice
    if group_tag == "hanoi":
        for pts, mults in _decimate(_HANOI_FIBER, (3.0,), _hanoi_born, n):
            yield _merge_equal(pts, mults)
    elif group_tag == "grigorchuk":
        for theta, mults in _decimate(_CHEBYSHEV, (-1.0, 1.0), _grig_born, n):
            # every theta lies in [-1, 1], so the atoms +-1 sit at the two ends
            lo, hi = bisect_right(theta, -1.0), bisect_left(theta, 1.0)
            line = [(2.0 - lam * t, m) for t, m in zip(theta[:lo] + theta[hi:],
                                                       mults[:lo] + mults[hi:])]
            # 4 + lam^2 - 4 lam theta moves against theta for lam > 0 and with
            # it for lam < 0, and monotone rounding keeps that order
            sqrt, inner = math.sqrt, mults[lo:hi]
            roots = [sqrt(4.0 + lam * lam - 4.0 * lam * t) for t in theta[lo:hi]]
            if lam > 0:
                roots.reverse()
                inner.reverse()
            pts, counts = [-r for r in reversed(roots)] + roots, inner[::-1] + inner
            _insert(pts, counts, line)
            yield _merge_equal(pts, counts)
    else:
        for k in range(1, n + 1):
            yield _merge_equal(*_lamplighter_atoms(k))


def _merge_equal(pts: Sequence[float], counts: Sequence[int]) -> tuple:
    """Ascending points with equal ones merged into the first of their run,
    their integer counts added, as two lists."""
    merged_pts, merged_counts = [], []
    last = None  # no point equals it
    for p, k in zip(pts, counts):
        if p == last:
            merged_counts[-1] += k
        else:
            merged_pts.append(p)
            merged_counts.append(k)
            last = p
    return merged_pts, merged_counts


def _dos_measure(group_tag: str, vals: list, mults: list) -> Measure1D:
    """The density of states of one level of ``decimated_spectrum``, on
    grigorchuk's axis x = (mu + 1)/4."""
    if group_tag == "grigorchuk":
        # the axis change can round eigenvalues a few ulps apart to one point
        vals, mults = _merge_equal([(v + 1.0) / 4.0 for v in vals], mults)
    return Measure1D(points=tuple(vals), counts=tuple(mults))


def dos(group_tag: str, n: int, grig_slice: float = -1.0) -> DOSResult:
    """Density of states of the level-n Schreier graph slice: the last level
    of ``decimated_spectrum``, its atoms counted with their multiplicities.

    For the grigorchuk tag the returned measure lives on the transformed
    axis x = (mu + 1)/4; ``grig_slice`` selects the line lam = grig_slice
    (the determinant is even in lam, so -1 and +1 agree; both are exposed).
    """
    last = deque(decimated_spectrum(group_tag, n, grig_slice), maxlen=1).pop()
    descriptor = {"grigorchuk": f"lam={grig_slice:g}, x=(mu+1)/4",
                  "lamplighter": "mu=0"}.get(group_tag, "mu=1")
    return DOSResult(group=group_tag, level=n, slice_descriptor=descriptor,
                     measure=_dos_measure(group_tag, *last))


def _pairwise(xs: Sequence[float], start: int, n: int) -> float:
    """numpy's pairwise sum of xs[start:start + n]: a plain loop below 8
    terms, eight interleaved accumulators up to 128, and above that the two
    halves, split at a multiple of 8, summed apart."""
    if n < 8:
        total = 0.0
        for x in xs[start:start + n]:
            total += x
        return total
    if n <= 128:
        body = n - n % 8
        r = [reduce(add, xs[start + j:start + body:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[start + body:start + n]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(xs, start, half) + _pairwise(xs, start + half, n - half)


def _pairwise_sum(xs: Sequence[float]) -> float:
    """The float sum of ``xs`` bit for bit as ``float(np.sum(xs))`` gives it
    for a float64 array: the pairwise sum added to the start value 0.0."""
    return 0.0 + _pairwise(xs, 0, len(xs))


def _atoms_of_both(m1: Measure1D, m2: Measure1D):
    """The points of two measures in one ascending pass, each point once, as
    (point, count in m1, count in m2), the count 0 where a measure has no
    atom; a point of both is matched by value."""
    p1, c1, p2, c2 = m1.points, m1.counts, m2.points, m2.counts
    n1, n2 = len(p1), len(p2)
    i = j = 0
    while i < n1 and j < n2:
        x, y = p1[i], p2[j]
        if x < y:
            yield x, c1[i], 0
            i += 1
        elif y < x:
            yield y, 0, c2[j]
            j += 1
        else:
            yield x, c1[i], c2[j]
            i += 1
            j += 1
    yield from zip(p1[i:], c1[i:], repeat(0))
    yield from zip(p2[j:], repeat(0), c2[j:])


def cdf_distance(m1: Measure1D, m2: Measure1D) -> float:
    """1-Wasserstein distance between two level measures: over the gaps of
    the union of their points, |F1 - F2| times the gap, in one ascending
    pass, summed as ``_pairwise_sum`` does (the bits ``sample_w1`` gives)."""
    t1, t2 = m1.total, m2.total
    atoms = _atoms_of_both(m1, m2)
    last, c1, c2 = next(atoms)  # both CDFs at the first point
    f1, f2 = c1 / t1, c2 / t2
    terms = []
    for p, c1, c2 in atoms:
        terms.append(abs(f1 - f2) * (p - last))
        f1 += c1 / t1
        f2 += c2 / t2
        last = p
    return _pairwise_sum(terms)


def sample_w1(s1: Samples, s2: Samples) -> float:
    """``cdf_distance``'s W1 between two sample measures, on numpy arrays:
    the union grid, both CDFs on it, and ``np.sum`` of the terms."""
    import numpy as np

    grid = np.union1d(s1.points, s2.points)
    f1, f2 = s1.cdf(grid), s2.cdf(grid)
    return float(np.sum(np.abs(f1[:-1] - f2[:-1]) * np.diff(grid)))


def tv_distance(m1: Measure1D, m2: Measure1D) -> float:
    """Total-variation distance sup_A |m1(A) - m2(A)| of two probability
    measures: half the sum of |m1 - m2| over their atoms in ascending order,
    where an atom of both measures is one point, matched by value.
    This is the metric that tracks the mass of the defect measure between
    consecutive levels (1-Wasserstein also weights atom displacement).
    Matching by value is exact for the levels of ``dos``: level n + 1
    recomputes each atom of level n by the same float operations.
    """
    t1, t2 = m1.total, m2.total
    total = 0.0
    for _, c1, c2 in _atoms_of_both(m1, m2):
        total += abs(c1 / t1 - c2 / t2)
    return total / 2.0


KOLMOGOROV_BLOCK = 8192  # atoms that ``kolmogorov_to_cdf`` reads at a time as floats


def kolmogorov_to_cdf(measure: Measure1D | Samples, cdf: Callable[[float], float]) -> float:
    """Sup-distance between an atomic measure and a continuous CDF: at each
    point, ``cdf`` against the running CDF below it and at it, read a block
    at a time, so a ``Samples`` never becomes a full-length list."""
    points, cumulative = measure.points, measure.cumulative
    best = below = 0.0
    for start in range(0, len(points), KOLMOGOROV_BLOCK):
        block = slice(start, start + KOLMOGOROV_BLOCK)
        ps, fs = points[block], cumulative[block]
        if not isinstance(ps, tuple):  # a ``Samples``' arrays
            ps, fs = ps.tolist(), fs.tolist()
        for p, at in zip(ps, fs):
            f = cdf(p)
            best = max(best, abs(below - f), abs(at - f))
            below = at
    return best


# ---------------------------------------------------------------------------
# Limit law of the two-letter four-generator group
# ---------------------------------------------------------------------------


def arcsine_cdf(t: float) -> float:
    """CDF of the arcsine law dt/(pi sqrt(1 - t^2)) on [-1, 1]."""
    if t <= -1.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return 0.5 + math.asin(t) / math.pi


def grig_limit_cdf(x: float) -> float:
    """CDF of the limit law of the Grigorchuk slice lam = -1 at x = (mu + 1)/4.

    The law is the pushforward of the Chebyshev equilibrium measure
    d(theta)/(pi sqrt(1 - theta^2)) on [-1, 1] under the two branches
    mu = +-sqrt(5 + 4 theta), each carrying half the mass.  With
    p = arcsine_cdf((mu^2 - 5)/4): for mu >= 0 the lower branch lies below mu
    and the upper one with probability p (0 below mu = 1, 1 from mu = 3 on);
    for mu < 0 the upper branch lies above mu and the lower one below it with
    probability 1 - p.
    """
    mu = 4.0 * x - 1.0
    p = arcsine_cdf((5.0 - mu * mu) / -4.0)
    return 0.5 * (p + 1.0) if mu >= 0 else 0.5 * (1.0 - p)


# ---------------------------------------------------------------------------
# Backward orbits of quadratic polynomials
# ---------------------------------------------------------------------------


def repelling_fixed_point(a: float, b: float, c: float) -> float:
    """Fixed point of a z^2 + b z + c with the largest multiplier modulus."""
    try:
        disc = (b - 1.0) ** 2 - 4.0 * a * c
    except OverflowError:
        raise ValueError("the fixed points overflow") from None
    if disc < 0:
        raise ValueError("no real fixed point")
    r1 = (-(b - 1.0) + math.sqrt(disc)) / (2.0 * a)
    r2 = (-(b - 1.0) - math.sqrt(disc)) / (2.0 * a)
    mult = lambda z: abs(2.0 * a * z + b)
    best = max((r1, r2), key=mult)
    if not math.isfinite(best):  # 2a or the discriminant overflowed
        raise ValueError("the fixed points overflow")
    if mult(best) <= 1.0:
        raise ValueError("no repelling real fixed point")
    return best


JULIA_WALKS = 4096  # random inverse-branch paths of the random_walk mode


def julia_backward(p: Sequence[float], depth: int, mode: str = "full_tree", seed: int = 0):
    """Backward orbit of the repelling fixed point of a quadratic polynomial.

    ``p`` is (a, b, c) for a z^2 + b z + c.  ``full_tree`` returns the
    complete 2^depth-point preimage set; ``random_walk`` draws
    ``JULIA_WALKS`` random inverse-branch paths.  The orbit is real: a
    complex inverse image raises.

    Returns (points array, their ``Samples``).
    """
    import numpy as np

    a, b, c = (float(v) for v in p)
    if not all(math.isfinite(v) for v in (a, b, c)):
        raise ValueError("polynomial coefficients must be finite")
    if a == 0:
        raise ValueError("a must be nonzero: a z^2 + b z + c is not quadratic")
    z0 = repelling_fixed_point(a, b, c)
    if mode == "full_tree":
        *_, pts = np.array([z0]), *preimage_levels((a, b, c), z0, depth)
    else:
        rng = np.random.default_rng(seed)
        pts = np.full(JULIA_WALKS, z0)
        for _ in range(depth):
            plus, minus = preimages((a, b, c), pts)
            pts = np.where(rng.random(len(pts)) < 0.5, plus, minus)
    return pts, Samples.of(pts)


def preimages(p: Sequence[float], w: np.ndarray, domain: str = "real") -> np.ndarray:
    """Both inverse branches of a z^2 + b z + c at the points ``w``, as the
    rows (plus, minus) of one array: (-b +- sqrt(b^2 - 4 a (c - w))) / (2 a).
    In real mode a negative discriminant raises; ``domain='complex'`` takes
    complex square roots."""
    import numpy as np

    a, b, c = p
    disc = np.subtract(c, w)
    np.multiply(4.0 * a, disc, out=disc)
    np.subtract(b * b, disc, out=disc)
    if domain == "real":
        if np.any(disc < 0):
            raise ValueError("complex inverse image in real mode")
    else:
        disc = disc.astype(complex, copy=False)
    root = np.sqrt(disc, out=disc)
    branches = np.empty((2, len(root)), dtype=root.dtype)
    np.add(-b, root, out=branches[0])
    np.subtract(-b, root, out=branches[1])
    return np.divide(branches, 2.0 * a, out=branches)


def preimage_levels(p: Sequence[float], start, n: int, domain: str = "real"):
    """The preimage sets of ``start`` under ``p`` at depths 1..n, by
    ``preimages``: one array per depth, its plus branch first."""
    import numpy as np

    pts = np.array([start])
    for _ in range(n):
        pts = preimages(p, pts, domain).reshape(-1)
        yield pts


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


def hanoi_unborn_mass(n: int) -> Fraction:
    """Mass of the hanoi limit measure on the atoms born after level n.

    In ``decimated_spectrum``'s rule the atom 0 born at level k has
    multiplicity (3^(k-1) + 3)/2 and -2 has (3^(k-1) - 1)/2; an atom f^-i(e)
    below e in {0, -2} inherits e's born multiplicity at level N - i, so its
    limit mass lim_N mult/3^N is 1/(2 * 3^(i+1)), and the atom 3 has limit
    mass 0.  Level n holds the 2^i atoms f^-i(0) for i < n and f^-j(-2) for
    j < n - 1, so the mass still to be born is (5/4)(2/3)^n: the paper's
    exact 2/3 rate for the discrete Hanoi spectrum.
    """
    if n < 1:
        raise ValueError("level must be at least 1")
    present = sum(Fraction(2 ** i, 2 * 3 ** (i + 1)) for i in range(n))
    present += sum(Fraction(2 ** j, 2 * 3 ** (j + 1)) for j in range(n - 1))
    return 1 - present


def lamplighter_unborn_mass(n: int) -> Fraction:
    """Mass of the lamplighter limit measure on the atoms born after level n.

    The atom 4 cos(pi p/q) (p/q in lowest terms) has limit mass 1/(2^q - 1)
    (Grigorchuk-Zuk 2001): its multiplicity in ``decimated_spectrum`` is the
    nearest integer to 2^n/(2^q - 1).  Level n holds the phi(q) atoms of
    each q <= n + 1, and sum_(q>=2) phi(q)/(2^q - 1) = 1 (a Lambert series),
    so the mass still to be born is 1 - sum_(q=2)^(n+1) phi(q)/(2^q - 1):
    2/3 at n = 1.
    """
    if n < 1:
        raise ValueError("level must be at least 1")
    phi = lambda q: sum(math.gcd(p, q) == 1 for p in range(1, q))
    return 1 - sum(Fraction(phi(q), 2 ** q - 1) for q in range(2, n + 2))


def _least_squares_line(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    """(slope, intercept) of the least-squares line through the points
    (x, y): exact in ``Fraction`` from the given floats, each rounded once
    to the nearest float.  The xs must not all be equal."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
             / sum((x - x_mean) ** 2 for x in xs))
    return float(slope), float(y_mean - slope * x_mean)


def convergence_report(group_tag: str, n_range: Sequence[int]) -> dict:
    """Distances of the level measures to the best available limit.

    grigorchuk compares against the closed-form law (Kolmogorov); the other
    two compare against the largest computed level (1-Wasserstein).  A
    log-linear fit of the distances gives the observed decay rate: the
    least-squares line through the points (n, log d_n), computed exactly from
    those floats and rounded once (``_least_squares_line``).  Each
    lamplighter and hanoi row carries the exact ``unborn_mass`` of its level
    (``lamplighter_unborn_mass``, ``hanoi_unborn_mass``) as a fraction
    string, and the target names that mass rate.  For hanoi the fitted W1
    distances fall by about 1/3 per level: they are the first-moment drift
    3^(1-n) - 3^(1-N) to the reference level N (every slice has trace 3, so
    the mean of level n is 3^(1-n)).  The hanoi target names that (1/3)^n
    drift rate and the 2/3 mass rate, which shows in the ``tv_to_next``
    ratios.  Every level comes from one pass of ``decimated_spectrum`` up to
    the largest level.
    """
    levels = sorted(n_range)
    if len(set(levels)) < 3 or levels[0] < 1:
        raise ValueError("need at least 3 distinct levels, each at least 1, to fit a rate")
    top = levels[-1]
    below = [n for n in levels if n != top]
    wanted = {*levels} if group_tag == "grigorchuk" else {*levels, *(n + 1 for n in below)}
    measures = {n: _dos_measure(group_tag, *level) for n, level
                in enumerate(decimated_spectrum(group_tag, top), 1) if n in wanted}
    if group_tag == "grigorchuk":
        rows = [{"level": n, "distance": kolmogorov_to_cdf(measures[n], grig_limit_cdf),
                 "metric": "kolmogorov"} for n in levels]
        target = "continuous limit law"
    else:
        unborn = hanoi_unborn_mass if group_tag == "hanoi" else lamplighter_unborn_mass
        rows = [{"level": n, "distance": cdf_distance(measures[n], measures[top]),
                 "metric": "wasserstein1", "tv_to_next": tv_distance(measures[n], measures[n + 1]),
                 "w1_to_next": cdf_distance(measures[n], measures[n + 1]),
                 "unborn_mass": str(unborn(n))} for n in below]
        target = ("unborn mass 1 - sum_(q=2)^(n+1) phi(q)/(2^q - 1)"
                  if group_tag == "lamplighter" else
                  "(1/3)^n W1 drift; (2/3)^n mass rate in tv_to_next")
    ds = [max(r["distance"], 1e-300) for r in rows]
    slope, intercept = _least_squares_line([r["level"] for r in rows],
                                           [math.log(d) for d in ds])
    ratios = [ds[i + 1] / ds[i] for i in range(len(ds) - 1)]
    return {
        "group": group_tag,
        "rows": rows,
        "fitted_rate_per_level": math.exp(slope),
        "log_intercept": intercept,
        "successive_ratios": ratios,
        "target": target,
    }
