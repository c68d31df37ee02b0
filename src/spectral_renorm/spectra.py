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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Measure1D:
    """Finite atomic measure on the line: sorted points, positive weights."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights differ in length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be strictly increasing")

    @classmethod
    def from_samples(cls, values: Sequence[float]):
        """The empirical measure of unsorted, possibly repeated values: a value
        seen k times among N has weight k/N."""
        vals = np.sort(np.asarray(values, dtype=float), kind="stable")
        pts, counts = _merge_equal(vals, np.ones(len(vals), dtype=np.int64))
        return cls(points=tuple(pts.tolist()), weights=tuple((counts / len(vals)).tolist()))

    @property
    def mass(self) -> float:
        return float(sum(self.weights))

    def __len__(self):
        return len(self.points)

    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        pts = np.asarray(self.points)
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(pts, xs, side="right")
        out = np.zeros_like(np.asarray(xs, dtype=float))
        mask = idx > 0
        out[mask] = cum[idx[mask] - 1]
        return out


@dataclass(frozen=True)
class DOSResult:
    """Density of states at one level: ``measure`` has one atom per distinct
    eigenvalue, weighted by its integer multiplicity over d^n."""

    group: str
    level: int
    slice_descriptor: str
    measure: Measure1D
    multiplicities: tuple


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


def _decimate(fiber: tuple, terminal: tuple, born: Callable[[int], tuple], n: int):
    """Atoms of level n: level k is the preimage under ``fiber`` of level
    k-1's atoms outside ``terminal``, each preimage inheriting its parent's
    multiplicity, plus the atoms ``born(k)`` of nonzero multiplicity."""
    pts = np.zeros(0)
    mults = np.zeros(0, dtype=np.int64)
    for k in range(1, n + 1):
        lift = ~np.isin(pts, terminal)
        new = [(p, m) for p, m in born(k) if m]
        pts = np.concatenate([*preimages(fiber, pts[lift]), [p for p, _ in new]])
        mults = np.concatenate([np.tile(mults[lift], 2),
                                np.array([m for _, m in new], dtype=np.int64)])
    return pts, mults


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
    return np.array(pts), np.array(mults, dtype=np.int64)


def decimated_spectrum(group_tag: str, n: int, grig_slice: float = -1.0) -> tuple:
    """Eigenvalues of the level-n slice, from the renormalization.

    Returns (points, multiplicities): the distinct eigenvalues in increasing
    order and their exact integer multiplicities, which sum to d^n.  The
    slice is ``slice_point``'s: hanoi a + b + c (mu = 1), lamplighter
    a + a^-1 + b + b^-1 (mu = 0), grigorchuk a + b + c + d - 1 at
    lam = ``grig_slice``.  No matrix is built.

    hanoi and grigorchuk are spectral decimation: positions are backward
    orbits under the fiber polynomial, by ``preimages``, the inverse-branch
    step of every backward orbit.  Level n is the preimage of level n-1's
    lifted atoms, each preimage inheriting its parent's multiplicity, plus
    the exceptional atoms born at level n.

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

    The tests check the closed forms above against the eigenvalues of the
    sliced pencil built as a dense matrix.  ``n`` is at most
    ``DECIMATION_MAX_LEVEL``.
    """
    if not 1 <= n <= DECIMATION_MAX_LEVEL:
        raise ValueError(f"decimation level {n} outside 1..{DECIMATION_MAX_LEVEL}")
    lam, _ = slice_point(group_tag, grig_slice)  # refuses a bad tag or slice
    if group_tag == "hanoi":
        pts, mults = _decimate(_HANOI_FIBER, (3.0,), _hanoi_born, n)
    elif group_tag == "grigorchuk":
        theta, mults = _decimate(_CHEBYSHEV, (-1.0, 1.0), _grig_born, n)
        inner = np.abs(theta) != 1.0
        root = np.sqrt(4.0 + lam * lam - 4.0 * lam * theta[inner])
        pts = np.concatenate([root, -root, 2.0 - lam * theta[~inner]])
        mults = np.concatenate([mults[inner], mults[inner], mults[~inner]])
    else:
        pts, mults = _lamplighter_atoms(n)
    order = np.argsort(pts, kind="stable")
    return _merge_equal(pts[order], mults[order])


def _runs(pts: np.ndarray) -> np.ndarray:
    """Start indices of the runs of equal values in ascending ``pts``."""
    return np.flatnonzero(np.concatenate(([len(pts) > 0], np.diff(pts) != 0)))


def _merge_equal(pts: np.ndarray, counts: np.ndarray) -> tuple:
    """Ascending points with equal ones merged into the first of their run,
    their integer counts added."""
    starts = _runs(pts)
    return pts[starts], np.add.reduceat(counts, starts)


def dos(group_tag: str, n: int, grig_slice: float = -1.0) -> DOSResult:
    """Density of states of the level-n Schreier graph slice, with the atoms
    and multiplicities of ``decimated_spectrum``.

    For the grigorchuk tag the returned measure lives on the transformed
    axis x = (mu + 1)/4; ``grig_slice`` selects the line lam = grig_slice
    (the determinant is even in lam, so -1 and +1 agree; both are exposed).
    """
    vals, mults = decimated_spectrum(group_tag, n, grig_slice)
    if group_tag == "grigorchuk":
        # the axis change can round eigenvalues a few ulps apart to one point
        vals, mults = _merge_equal((vals + 1.0) / 4.0, mults)
        descriptor = f"lam={grig_slice:g}, x=(mu+1)/4"
    elif group_tag == "lamplighter":
        descriptor = "mu=0"
    else:
        descriptor = "mu=1"
    mults = tuple(int(m) for m in mults)
    size = sum(mults)
    measure = Measure1D(points=tuple(float(v) for v in vals),
                        weights=tuple(m / size for m in mults))
    return DOSResult(group=group_tag, level=n, slice_descriptor=descriptor,
                     measure=measure, multiplicities=mults)


def cdf_distance(m1: Measure1D, m2: Measure1D, metric: str) -> float:
    """1-Wasserstein distance between two probability measures; ``metric``
    must name it, "wasserstein1"."""
    if metric != "wasserstein1":
        raise ValueError("metric must be 'wasserstein1'")
    if abs(m1.mass - 1.0) > 1e-9 or abs(m2.mass - 1.0) > 1e-9:
        raise ValueError("both measures must have mass 1")
    grid = np.union1d(np.asarray(m1.points), np.asarray(m2.points))
    f1 = m1.cdf_array(grid)
    f2 = m2.cdf_array(grid)
    gaps = np.diff(grid)
    return float(np.sum(np.abs(f1[:-1] - f2[:-1]) * gaps))


def tv_distance(m1: Measure1D, m2: Measure1D) -> float:
    """Total-variation distance sup_A |m1(A) - m2(A)| of two atomic measures
    of equal mass: half the sum of |m1 - m2| over their atoms, where an atom
    of both measures is one point, matched by value.  This is the metric that
    tracks the mass of the defect measure between consecutive levels
    (1-Wasserstein also weights atom displacement).  Matching by value is
    exact for the levels of ``dos``: level n + 1 recomputes each atom of
    level n by the same float operations.
    """
    pts = np.array(m1.points + m2.points, dtype=float)
    wts = np.array(m1.weights + tuple(-w for w in m2.weights), dtype=float)
    order = np.argsort(pts, kind="stable")
    # each measure's points strictly increase, so a run of equal points holds
    # at most one atom of each and its sum has at most two terms
    net = np.add.reduceat(wts[order], _runs(pts[order]))
    return float(np.cumsum(np.abs(np.concatenate(([0.0], net))))[-1]) / 2.0


def kolmogorov_to_cdf(measure: Measure1D, cdf: Callable[[float], float]) -> float:
    """Sup-distance between an atomic measure and a continuous CDF."""
    if abs(measure.mass - 1.0) > 1e-9:
        raise ValueError("measure must have mass 1")
    best = 0.0
    acc = 0.0
    for p, w in zip(measure.points, measure.weights):
        f = cdf(p)
        best = max(best, abs(acc - f), abs(acc + w - f))
        acc += w
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
    disc = (b - 1.0) ** 2 - 4.0 * a * c
    if disc < 0:
        raise ValueError("no real fixed point")
    r1 = (-(b - 1.0) + math.sqrt(disc)) / (2.0 * a)
    r2 = (-(b - 1.0) - math.sqrt(disc)) / (2.0 * a)
    mult = lambda z: abs(2.0 * a * z + b)
    best = max((r1, r2), key=mult)
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

    Returns (points array, empirical Measure1D of the points).
    """
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
    return pts, Measure1D.from_samples(pts)


def preimages(p: Sequence[float], w: np.ndarray, domain: str = "real") -> tuple:
    """Both inverse branches (plus, minus) of a z^2 + b z + c at the points
    ``w``: (-b +- sqrt(b^2 - 4 a (c - w))) / (2 a).  In real mode a negative
    discriminant raises; ``domain='complex'`` takes complex square roots."""
    a, b, c = p
    disc = b * b - 4.0 * a * (c - w)
    if domain == "real":
        if np.any(disc < 0):
            raise ValueError("complex inverse image in real mode")
        root = np.sqrt(disc)
    else:
        root = np.sqrt(disc.astype(complex))
    return (-b + root) / (2.0 * a), (-b - root) / (2.0 * a)


def preimage_levels(p: Sequence[float], start, n: int, domain: str = "real"):
    """The preimage sets of ``start`` under ``p`` at depths 1..n, by
    ``preimages``."""
    pts = np.array([start])
    for _ in range(n):
        pts = np.concatenate(preimages(p, pts, domain))
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


def convergence_report(group_tag: str, n_range: Sequence[int]) -> dict:
    """Distances of the level measures to the best available limit.

    grigorchuk compares against the closed-form law (Kolmogorov); the other
    two compare against the largest computed level (1-Wasserstein).  A
    log-linear fit of the distances gives the observed decay rate.  Each
    lamplighter and hanoi row carries the exact ``unborn_mass`` of its level
    (``lamplighter_unborn_mass``, ``hanoi_unborn_mass``) as a fraction
    string, and the target names that mass rate.  For hanoi the fitted W1
    distances fall by about 1/3 per level: they are the first-moment drift
    3^(1-n) - 3^(1-N) to the reference level N (every slice has trace 3, so
    the mean of level n is 3^(1-n)).  The hanoi target names that (1/3)^n
    drift rate and the 2/3 mass rate, which shows in the ``tv_to_next``
    ratios.
    """
    levels = sorted(n_range)
    if len(levels) < 3:
        raise ValueError("need at least 3 levels to fit a rate")
    rows = []
    if group_tag == "grigorchuk":
        for n in levels:
            d = kolmogorov_to_cdf(dos(group_tag, n).measure, grig_limit_cdf)
            rows.append({"level": n, "distance": d, "metric": "kolmogorov"})
        target = "continuous limit law"
    elif group_tag in ("lamplighter", "hanoi"):
        ref_level = max(levels)
        below = [n for n in levels if n != ref_level]
        measures = {n: dos(group_tag, n).measure for n in {*levels, *(n + 1 for n in below)}}
        reference = measures[ref_level]
        for n in below:
            here, after = measures[n], measures[n + 1]
            d = cdf_distance(here, reference, "wasserstein1")
            row = {"level": n, "distance": d, "metric": "wasserstein1"}
            row["tv_to_next"] = tv_distance(here, after)
            row["w1_to_next"] = cdf_distance(here, after, "wasserstein1")
            unborn = hanoi_unborn_mass if group_tag == "hanoi" else lamplighter_unborn_mass
            row["unborn_mass"] = str(unborn(n))
            rows.append(row)
        target = ("unborn mass 1 - sum_(q=2)^(n+1) phi(q)/(2^q - 1)"
                  if group_tag == "lamplighter" else
                  "(1/3)^n W1 drift; (2/3)^n mass rate in tv_to_next")
    else:
        raise ValueError(f"unknown group tag '{group_tag}'")
    xs = np.array([r["level"] for r in rows], dtype=float)
    ds = np.array([max(r["distance"], 1e-300) for r in rows])
    slope, intercept = np.polyfit(xs, np.log(ds), 1)
    ratios = [float(ds[i + 1] / ds[i]) for i in range(len(ds) - 1)]
    return {
        "group": group_tag,
        "rows": rows,
        "fitted_rate_per_level": float(math.exp(slope)),
        "log_intercept": float(intercept),
        "successive_ratios": ratios,
        "target": target,
    }
