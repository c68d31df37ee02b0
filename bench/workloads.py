"""The benchmark's workloads: command lines and the checks on their outputs.

Each workload is a list of ``spectral_renorm.cli`` operations, run one after
another as separate processes.  The three workloads load different layers:

- ``dos-sweep``: dense ``eigh`` and slice assembly, nothing exact.  One
  4096^2 level at the budget edge plus sweeps of many small levels, which
  reuse eigenvalues through ``spectra._dos_eigenvalues``'s cache.
- ``schur-exact``: big-integer Bareiss determinants of ``pencils.assemble``
  matrices (243^2, 128^2 and 81^2), no ``eigh``, no polynomial gcd.
- ``renorm-dynamics``: exact polynomial work (Kronecker multiply and modular
  gcd in ``dyndeg``, ``MultiPoly`` products over ``Fraction`` in
  ``conjugacy-verify``) plus the float side of the maps: the potential grid,
  backward orbits and the artifact writer.  No groups, pencils or ``eigh``.

Every check below tests a fact that does not depend on the seed.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The four exceptional atoms of the Hanoi spectrum, (1 +- sqrt 13)/2 and
# (1 +- sqrt(15 - 2 sqrt 13))/2, which the level-7 spectrum must contain.
HANOI_EXCEPTIONAL = (
    (1 - math.sqrt(13)) / 2,
    (1 + math.sqrt(13)) / 2,
    (1 - math.sqrt(15 - 2 * math.sqrt(13))) / 2,
    (1 + math.sqrt(15 - 2 * math.sqrt(13))) / 2,
)

DYNDEG_REFERENCE = {
    "R_H": [4, 10, 22, 46, 94, 190],
    "R_G": [3, 7, 15, 31, 63, 127, 255],
}

# (finite, neg_inf, dead) cells of the hanoi potential on [-4,4]^2 at 512^2.
POTENTIAL_REFERENCE = {"finite_cells": 512 * 512, "neg_inf_cells": 0, "dead_cells": 0}

DEGREE = {"grigorchuk": 2, "lamplighter": 2, "hanoi": 3}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``metric`` names the subcommand's time metric."""

    argv: tuple
    check: Callable
    exact: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def metric(self) -> str | None:
        return SUBCOMMAND_METRIC.get(self.subcommand)


SUBCOMMAND_METRIC = {
    "spectrum": "spectrum_s",
    "dos-compare": "dos_compare_s",
    "schur-verify": "schur_verify_s",
    "dyndeg": "dyndeg_s",
    "conjugacy-verify": "conjugacy_verify_s",
    "potential-grid": "potential_grid_s",
    "experiment": "experiment_s",
    "julia": "experiment_s",
}


def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def _rows(out: Path, name: str) -> list:
    with open(out / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _reference_spectrum(group: str, level: int) -> list:
    values = []
    for line in (REFERENCE_DIR / f"spectrum_{group}_n{level}.txt").read_text().split("\n"):
        if line and not line.startswith("#"):
            value, count = line.split()
            values += [float(value)] * int(count)
    return values


def check_spectrum(group: str, level: int):
    def check(out: Path) -> list:
        stem = f"spectrum_{group}_n{level}"
        rows = _rows(out, stem + ".csv")
        report = _load(out, stem + ".json")
        problems = []
        total = sum(int(r["multiplicity"]) for r in rows)
        if total != DEGREE[group] ** level:
            problems.append(f"multiplicities sum to {total}, not {DEGREE[group]}^{level}")
        if abs(report["mass"] - 1.0) > 1e-12:
            problems.append(f"mass {report['mass']!r} is not 1 to 1e-12")
        values = sorted(v for r in rows for v in [float(r["eigenvalue"])] * int(r["multiplicity"]))
        reference = _reference_spectrum(group, level)
        if len(values) != len(reference):
            problems.append("eigenvalue count differs from the reference")
        else:
            worst = max(abs(a - b) for a, b in zip(values, reference))
            if worst > 1e-9:
                problems.append(f"eigenvalues differ from the reference by {worst:.3g}")
        if group == "hanoi" and level == 7:
            centers = [a["center"] for a in report["atoms"]]
            for atom in HANOI_EXCEPTIONAL:
                if min(abs(c - atom) for c in centers) > 1e-8:
                    problems.append(f"exceptional atom {atom!r} missing")
        return problems

    return check


def check_dos_compare(group: str, levels: range):
    def check(out: Path) -> list:
        report = _load(out, f"dos_compare_{group}.json")
        distances = [r["distance"] for r in report["rows"]]
        problems = []
        if [r["level"] for r in report["rows"]] != list(levels)[:-1]:
            problems.append("dos-compare rows do not cover the requested levels")
        if not all(math.isfinite(d) and d > 0 for d in distances):
            problems.append("dos-compare distances are not finite and positive")
        return problems

    return check


def check_schur(group: str, level: int, samples: int):
    def check(out: Path) -> list:
        report = _load(out, f"schur_{group}_n{level}.json")
        problems = []
        if report["failures"]:
            problems.append(f"{len(report['failures'])} recursion failures")
        if len(report["points"]) != samples:
            problems.append("wrong number of sample points")
        return problems

    return check


def check_dyndeg(name: str):
    def check(out: Path) -> list:
        degrees = _load(out, f"dyndeg_{name}.json")["degrees"]
        if degrees != DYNDEG_REFERENCE[name]:
            return [f"degrees {degrees} differ from {DYNDEG_REFERENCE[name]}"]
        return []

    return check


def check_conjugacy(out: Path) -> list:
    report = _load(out, "conjugacy_verify.json")
    flags = dict(report["identities"])
    flags["chebyshev 2z^2-1"] = report["chebyshev_normalization"]["2z^2-1"]
    flags["fiber passed"] = report["fiber"]["passed"]
    flags.update(report["fiber"]["symbolic"])
    return [f"conjugacy flag {k} is false" for k, v in flags.items() if v is not True]


def check_maps(out: Path) -> list:
    report = _load(out, "maps_verify.json")
    flags = {f"contracted {r['map']} {r['curve']}": r["ok"] for r in report["contracted"]}
    flags.update({f"indeterminacy {i}": r["ok"] for i, r in enumerate(report["indeterminacy"])})
    flags.update(report["charts"])
    return [f"maps flag {k} is false" for k, v in flags.items() if v is not True]


def check_cohomology(out: Path) -> list:
    check = _load(out, "cohomology_hanoi4.json")["check"]
    # jordan_block is a datum (hanoi4 has none); every other boolean is a check.
    flags = {k: v for k, v in check.items() if isinstance(v, bool) and k != "jordan_block"}
    problems = [f"cohomology flag {k} is false" for k, v in flags.items() if v is not True]
    return problems if "all_ok" in flags else problems + ["cohomology all_ok missing"]


def check_potential(out: Path) -> list:
    report = _load(out, "potential_hanoi_r512_n12.json")
    counts = {k: report[k] for k in POTENTIAL_REFERENCE}
    return [] if counts == POTENTIAL_REFERENCE else [f"potential cells {counts}"]


def check_backward_square(out: Path) -> list:
    # 2^d equally spaced preimage angles lie pi/2^(d+1) from the uniform law.
    report = _load(out, "experiment_backward-square.json")
    problems = [] if report["count"] == 2 ** 16 else ["wrong backward orbit size"]
    for depth, dist in enumerate(report["distances"], start=1):
        if abs(dist - math.pi / 2 ** (depth + 1)) > 1e-9 * dist:
            problems.append(f"depth {depth} distance {dist!r}")
    return problems


def check_julia(out: Path) -> list:
    # The Julia set of z^2 - z - 3 is the interval [-2, 3].
    report = _load(out, "julia_d14.json")
    problems = [] if report["count"] == 2 ** 14 else ["wrong backward orbit size"]
    if abs(report["support_min"] + 2) > 1e-9 or abs(report["support_max"] - 3) > 1e-9:
        problems.append("julia support is not [-2, 3]")
    return problems


WORKLOADS = {
    "dos-sweep": [
        Op(("spectrum", "--group", "grigorchuk", "--level", "12"),
           check_spectrum("grigorchuk", 12)),
        Op(("spectrum", "--group", "hanoi", "--level", "7"), check_spectrum("hanoi", 7)),
        Op(("dos-compare", "--group", "hanoi", "--levels", "3..7"),
           check_dos_compare("hanoi", range(3, 8))),
        Op(("dos-compare", "--group", "lamplighter", "--levels", "4..11"),
           check_dos_compare("lamplighter", range(4, 12))),
    ],
    "schur-exact": [
        Op(("schur-verify", "--group", "hanoi", "--level", "5", "--samples", "2"),
           check_schur("hanoi", 5, 2), exact=True),
        Op(("schur-verify", "--group", "hanoi", "--level", "4", "--samples", "20"),
           check_schur("hanoi", 4, 20), exact=True),
        Op(("schur-verify", "--group", "lamplighter", "--level", "7", "--samples", "5"),
           check_schur("lamplighter", 7, 5), exact=True),
        Op(("schur-verify", "--group", "grigorchuk", "--level", "7", "--samples", "5"),
           check_schur("grigorchuk", 7, 5), exact=True),
    ],
    "renorm-dynamics": [
        Op(("dyndeg", "--map", "R_H", "--iters", "6", "--trials", "3"),
           check_dyndeg("R_H"), exact=True),
        Op(("dyndeg", "--map", "R_G", "--iters", "7", "--trials", "3"),
           check_dyndeg("R_G"), exact=True),
        Op(("conjugacy-verify",), check_conjugacy, exact=True),
        Op(("maps-verify",), check_maps, exact=True),
        Op(("cohomology", "--surface", "hanoi4", "--check"), check_cohomology, exact=True),
        Op(("potential-grid", "--group", "hanoi", "--resolution", "512", "--iters", "12"),
           check_potential),
        Op(("experiment", "--kind", "backward-square", "--n", "16"), check_backward_square),
        Op(("julia", "--depth", "14"), check_julia),
    ],
}
