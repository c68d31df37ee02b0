"""Batch front-end: reproducible data files and static plots.

Each subcommand's handler computes its artifacts and returns them, keyed by
file name, with its exit status; one writer then creates --out and writes
the artifacts whose suffix --format lists (csv,json by default; a plot is
drawn only under svg), and always the pgm of potential-grid.

Subcommands:

  spectrum          eigenvalues and atom summary of one level
  dos-compare       level-to-limit distances and fitted decay rates
  schur-verify      exact determinant-recursion check at random points
  conjugacy-verify  exact conjugacy identities + fiber spot checks
  maps-verify       contracted curves, indeterminacy points, chart facts
  dyndeg            degree growth along lines, dynamical-degree class
  cohomology        printed-matrix verification / invariant classes
  potential-grid    the cascade potential sampled on a window
  julia             backward orbit of a quadratic polynomial
  experiment        twist / skew / backward-equidistribution runs

Exit status: 0 on success, 1 when a verification fails, 2 on bad
configuration or exceeded budgets, 3 on an internal error; every error is
one JSON object on stderr.  A fixed --seed makes all CSV/JSON
outputs byte-identical.  BLAS runs on one thread unless OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or NUMEXPR_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from pathlib import Path


def _cap_threads():
    """Run BLAS on one thread unless the environment says otherwise: no code
    here calls BLAS, and an idle BLAS thread pool still costs CPU time."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


class BudgetError(RuntimeError):
    pass


GROUPS = ("grigorchuk", "lamplighter", "hanoi")  # the --group choices


# Cost caps, checked by ``_check_budgets`` before any handler runs: per
# subcommand and option, an int, or a dict keyed by the value of the option that
# selects the cap (--group, --mode or --kind).  Times are the CLI's on 2 cores.
BUDGETS = {
    # the sizes of the old eigensolver's slices
    "spectrum": {"--level": {"grigorchuk": 12, "lamplighter": 12, "hanoi": 7}},
    "dos-compare": {"--levels": {"grigorchuk": 12, "lamplighter": 12, "hanoi": 7}},
    # exact-determinant levels; 200 samples take 11 s at lamplighter level 7, the
    # slowest top level, 4 s at hanoi level 5 and 1.5 s at grigorchuk level 7
    "schur-verify": {"--level": {"grigorchuk": 7, "lamplighter": 7, "hanoi": 5},
                     "--samples": 200},
    "conjugacy-verify": {"--samples": 100_000},  # fiber spot-check points: about 3 s
    # lines per estimate: both caps take about 23 s for R_H, 8 s for R_G and G_G, 1 s for R_L
    "dyndeg": {"--iters": 10, "--trials": 10},
    # 1000 steps take about 5 s on a hanoi 256^2 grid; memory does not grow with --iters
    "potential-grid": {"--iters": 1000, "--resolution": 2048},
    # 2^16 points for the full tree; 10^4 steps of 4096 random walks take about 1 s
    "julia": {"--depth": {"full_tree": 16, "random_walk": 10_000}},
    # 2^20 backward preimages: about 1 s for z -> z^2, under 3 s for the other two models
    "experiment": {"--n": {"twist": 200, "skew": 14, "backward-square": 20,
                           "backward-cheb": 20, "backward-cantor": 20}},
}


# Caps of a --surface-json surface, checked on the file before any exact
# work: its point count (a random 24-point surface takes 1.6-2.1 s, most of it
# the characteristic polynomial) and the largest absolute row sum of its F_*,
# which bounds every eigenvalue and so the integer-root search (0.2 s of trial
# division at 10^6).  At both caps the characteristic polynomial's coefficients
# stay below 10^160, in float range.
SURFACE_JSON_BUDGET = {"max_points": 24, "max_row_sum": 10 ** 6}


def _check_budgets(args) -> None:
    """Refuse an option above its cap in ``BUDGETS``, naming the flag; a
    level range is checked by its two ends."""
    for flag, cap in BUDGETS.get(args.command, {}).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        selected = ""
        if isinstance(cap, dict):
            selector = next(s for s in ("group", "mode", "kind") if hasattr(args, s))
            cap = cap[getattr(args, selector)]
            selected = f" for --{selector} {getattr(args, selector)}"
        for end in (value.start, value.stop - 1) if isinstance(value, range) else (value,):
            if end > cap:
                raise BudgetError(f"argument {flag}: {end} is above the budget {cap}{selected}")


def _read_input(path: str) -> str:
    """Text of an input file named on the command line; a file that cannot
    be read is bad input, not an internal error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise BudgetError(f"cannot read {path}: {exc.strerror}") from None


def _load_config(path: str | None) -> dict:
    """key=value text config; flags given on the command line win."""
    if not path:
        return {}
    out = {}
    for line in _read_input(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BudgetError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``BudgetError`` instead of printing the usage text,
    so ``main`` reports them as one JSON error with exit status 2.

    An argument that starts with "-" and a digit or "." is a value: no option
    of this CLI starts so, and argparse's own pattern takes plain decimals
    only, so ``--grig-slice -1e150``, ``--seed-point -1+2j`` and
    ``--window -4,4,-4,4`` would read as unknown options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise BudgetError(message)


class _ConfigSubcommands(argparse._SubParsersAction):
    """Reads ``--config``, which precedes the subcommand, once the subcommand
    is known: its values become that subcommand's defaults, so a flag still
    wins and an option the config supplies is not required."""

    def __call__(self, parser, namespace, values, option_string=None):
        subparser = self.choices[values[0]]  # argparse checked the choice
        defaults = _config_defaults(subparser, _load_config(namespace.config))
        subparser.set_defaults(**defaults)
        for action in subparser._actions:
            if action.dest in defaults:
                action.required = False
        super().__call__(parser, namespace, values, option_string)


def _at_least(minimum: int):
    """argparse type of a count option: an int no smaller than ``minimum``.
    ``--config`` values pass through it too."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {minimum}")
        return value

    return count


def _format_list(text: str) -> str:
    """argparse type of ``--format``: a comma list of names from csv,json,svg."""
    unknown = set(text.split(",")) - {"csv", "json", "svg"}
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown format {', '.join(map(repr, sorted(unknown)))}; choose from csv,json,svg")
    return text


def _level_range(text: str) -> range:
    """argparse type of ``--levels``: the levels a..b, both included, from 1;
    at least three, the fewest a decay rate is fitted to."""
    lo, dots, hi = text.partition("..")
    try:
        if not dots or int(lo) < 1:
            raise ValueError
        levels = range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range a..b of levels >= 1") from None
    if len(levels) < 3:
        raise argparse.ArgumentTypeError(f"{text!r} has fewer than 3 levels to fit a rate")
    return levels


def _floats(text: str, names: str) -> tuple:
    """The comma list ``text`` as floats, one per name of the comma list ``names``."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != len(names.split(",")):
        raise argparse.ArgumentTypeError(f"{text!r} is not the numbers {names}")
    return values


def _window(text: str) -> tuple:
    """argparse type of ``--window``: finite xmin,xmax,ymin,ymax with a finite,
    positive width and height."""
    x0, x1, y0, y1 = window = _floats(text, "xmin,xmax,ymin,ymax")
    if not all(math.isfinite(v) for v in window):
        raise argparse.ArgumentTypeError("window bounds must be finite")
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise argparse.ArgumentTypeError("window width and height must be finite")
    if not (x0 < x1 and y0 < y1):
        raise argparse.ArgumentTypeError("window needs xmin < xmax and ymin < ymax")
    return window


def _complex(text: str) -> str:
    """argparse type of ``--seed-point``: the text of a complex number, kept
    as written, since the experiment's JSON repeats it."""
    try:
        complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a complex number") from None
    return text


def _poly(text: str) -> tuple:
    """argparse type of ``--poly``: the coefficients a,b,c of a z^2 + b z + c."""
    return _floats(text, "a,b,c")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-renorm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True, action=_ConfigSubcommands)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--format", type=_format_list, default="csv,json",
                       help="comma list from csv,json,svg")

    p = sub.add_parser("spectrum", help="eigenvalues and atoms of one level")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--level", type=_at_least(1), required=True)
    p.add_argument("--grig-slice", type=float, default=None,
                   help="the slice line lam = GRIG_SLICE of grigorchuk (default -1)")
    common(p)

    p = sub.add_parser("dos-compare", help="convergence diagnostics across levels")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--levels", type=_level_range, help="a..b (inclusive)")
    common(p)

    p = sub.add_parser("schur-verify", help="exact recursion check")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=_at_least(1), default=20)
    common(p)

    p = sub.add_parser("conjugacy-verify", help="exact conjugacy identities")
    p.add_argument("--samples", type=_at_least(1), default=100)
    common(p)

    p = sub.add_parser("maps-verify",
                       help="contracted curves, indeterminacy, chart facts")
    common(p)

    p = sub.add_parser("dyndeg", help="degree growth and dynamical degree")
    p.add_argument("--map", required=True, dest="map_name",
                   choices=["R_G", "G_G", "R_L", "R_H", "H_inv", "model_square",
                            "model_twist", "model_skew", "cheb"])
    p.add_argument("--iters", type=_at_least(1), default=7)
    p.add_argument("--trials", type=_at_least(1), default=3)
    common(p)

    p = sub.add_parser("cohomology", help="blow-up class calculus")
    p.add_argument("--surface", default=None,
                   choices=["grigorchuk4", "lamplighter2", "hanoi4"])
    p.add_argument("--surface-json", default=None, metavar="FILE",
                   help='custom surface/action as a JSON object with keys "incidences" '
                        '(booleans) and "F_star" (integer rows), optional "k", "d_top" '
                        '(integers) and "basis" ("adapted" or "standard")')
    p.add_argument("--check", action="store_true",
                   help="verify the printed matrices")
    p.add_argument("--invariant-classes", type=_at_least(1), default=None, metavar="D",
                   help="detect classes with F^* c = D c")
    common(p)

    p = sub.add_parser("potential-grid", help="cascade potential on a window")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--window", type=_window, default="-4,4,-4,4")
    p.add_argument("--resolution", type=_at_least(2), default=256)
    p.add_argument("--iters", type=_at_least(0), default=12)
    common(p)

    p = sub.add_parser("julia", help="backward orbit of a quadratic")
    p.add_argument("--poly", type=_poly, default="1,-1,-3", help="a,b,c of a z^2 + b z + c")
    p.add_argument("--depth", type=_at_least(0), default=12)
    p.add_argument("--mode", default="full_tree",
                   choices=["full_tree", "random_walk"])
    common(p)

    p = sub.add_parser("experiment", help="model-system experiments")
    p.add_argument("--kind", required=True,
                   choices=["twist", "skew", "backward-square", "backward-cheb",
                            "backward-cantor"])
    p.add_argument("--n", type=_at_least(1), default=10, help="time / depth parameter")
    p.add_argument("--eta0", type=float, default=3.0)
    p.add_argument("--seed-point", type=_complex, default=None,
                   help="backward seed; default 1.7 (0.3 for backward-cheb)")
    common(p)
    parser.subcommands = sub.choices
    return parser


def _config_defaults(subparser: argparse.ArgumentParser, config: dict) -> dict:
    """Config values for the subcommand's options, converted with each
    option's own type; keys naming no option of the subcommand are ignored."""
    out = {}
    for action in subparser._actions:
        names = {action.dest} | {o.lstrip("-").replace("-", "_") for o in action.option_strings}
        key = next((k for k in config if k in names), None)
        if key is None or action.dest == "help":
            continue
        value = config[key]
        if action.nargs == 0:  # a flag
            if value not in ("true", "false"):
                raise BudgetError(f"config {key}: flags take true or false, not {value!r}")
            out[action.dest] = value == "true"
            continue
        try:
            out[action.dest] = action.type(value) if action.type else value
        except argparse.ArgumentTypeError as exc:
            raise BudgetError(f"config {key}: {exc}") from None
        except ValueError:
            raise BudgetError(f"config {key}: {value!r} is not a valid value") from None
        if action.choices is not None and out[action.dest] not in action.choices:
            raise BudgetError(f"config {key}: {value!r} is not one of {list(action.choices)}")
    return out


def main(argv=None) -> int:
    _cap_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_budgets(args)
        status, artifacts = _HANDLERS[args.command](args)
        _write(args, artifacts)
        return status
    except (BudgetError, ValueError) as exc:
        _err(str(exc))
        return 2
    except Exception as exc:  # a defect, not bad input: name where, no traceback
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        _err(f"internal error: {type(exc).__name__}: {exc} "
             f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})")
        return 3


def _err(message: str) -> None:
    sys.stderr.write(json.dumps({"error": message}, sort_keys=True) + "\n")


def _write(args, artifacts: dict) -> None:
    """Create ``--out`` and write into it each artifact whose suffix
    ``--format`` lists, and every pgm.  An artifact is a function that
    writes it at the path it is given (every svg and pgm, and the csv of
    ``potential-grid``), or by suffix: csv a ``(header, columns)`` pair,
    json its object.  An ``--out`` that cannot be made or written is bad
    input, not an internal error.

    A run that fails while writing leaves no artifact: every file it wrote
    or began to write is removed, and so is each directory it made that is
    left empty, before the error goes on to ``main``."""
    from spectral_renorm import output

    writers = {"csv": lambda path, table: output.write_csv(path, *table),
               "json": output.write_json}
    wanted = set(args.format.split(",")) | {"pgm"}
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    started = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts.items():
            suffix = name.rsplit(".", 1)[1]
            if suffix in wanted:
                path = out / name
                started.append(path)
                if callable(content):
                    content(path)
                else:
                    writers[suffix](path, content)
    except BaseException as exc:
        for path in started:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
        if isinstance(exc, OSError):
            raise BudgetError(f"cannot write --out {args.out}: {exc.strerror}") from None
        raise


def _series(stem: str, rows: list, x: str, title: str) -> dict:
    """The csv and svg of a distance series whose rows carry ``x``,
    "distance" and "metric"."""
    from spectral_renorm import output

    header = [x, "distance", "metric"]
    columns = [[row[k] for row in rows] for k in header]
    return {f"{stem}.csv": (header, columns),
            f"{stem}.svg": lambda path: output.svg_series(path, *columns[:2], title=title)}


def cmd_spectrum(args) -> tuple[int, dict]:
    from spectral_renorm import output, spectra

    if args.grig_slice is not None and args.group != "grigorchuk":
        raise BudgetError(f"argument --grig-slice: not allowed with --group {args.group}")
    result = spectra.dos(args.group, args.level,
                         -1.0 if args.grig_slice is None else args.grig_slice)
    m = result.measure
    stem = f"spectrum_{args.group}_n{args.level}"
    title = f"{args.group} level {args.level}"
    return 0, {
        f"{stem}.csv": (["level", "eigenvalue", "multiplicity"],
                        [[args.level] * len(m.points), m.points, m.counts]),
        f"{stem}.json": {
            "group": result.group,
            "level": result.level,
            "slice": result.slice_descriptor,
            "mass": sum(m.weights),
            "atoms": [{"center": c, "mass": w} for c, w in zip(m.points, m.weights)],
        },
        f"{stem}_cdf.svg": lambda path: output.svg_cdf(
            path, m.points, m.cumulative, title=f"{title} spectral CDF"),
        f"{stem}_hist.svg": lambda path: output.svg_histogram(
            path, [p for p, k in zip(m.points, m.counts) for _ in range(k)],
            title=f"{title} spectrum"),
    }


def cmd_dos_compare(args) -> tuple[int, dict]:
    from spectral_renorm import spectra

    levels = args.levels
    if levels is None:
        levels = {"grigorchuk": range(4, 12), "lamplighter": range(4, 13),
                  "hanoi": range(3, 8)}[args.group]
    report = spectra.convergence_report(args.group, levels)
    stem = f"dos_compare_{args.group}"
    return 0, {**_series(stem, report["rows"], "level", f"{args.group}: distance to limit"),
               f"{stem}.json": report}


def cmd_schur_verify(args) -> tuple[int, dict]:
    from spectral_renorm import pencils

    scheme = pencils.builtin_scheme(args.group)
    report = pencils.verify_recursion(scheme, args.level, args.samples, args.seed)
    stem = f"schur_{args.group}_n{args.level}"
    return 1 if report["failures"] else 0, {
        f"{stem}.json": report,
        f"{stem}.csv": (["lambda", "mu"], list(zip(*report["points"]))),
    }


def cmd_conjugacy_verify(args) -> tuple[int, dict]:
    from spectral_renorm import conjugacy

    report = {
        "identities": conjugacy.conjugacy_checks(),
        "chebyshev_normalization": conjugacy.chebyshev_semiconj_check(),
        "fiber": conjugacy.fiber_conjugation_check(args.samples, seed=args.seed),
    }
    ok = (all(report["identities"].values())
          and report["chebyshev_normalization"]["2z^2-1"]
          and report["fiber"]["passed"]
          and all(report["fiber"]["symbolic"].values()))
    return 0 if ok else 1, {"conjugacy_verify.json": report}


def cmd_maps_verify(args) -> tuple[int, dict]:
    from spectral_renorm.verification import fact_report, indeterminacy_report

    facts = fact_report()
    report = {
        "contracted": facts["contracted"],
        "indeterminacy": indeterminacy_report(),
        "charts": facts["charts"],
    }
    ok = (all(r["ok"] for r in report["contracted"])
          and all(r["ok"] for r in report["indeterminacy"])
          and all(report["charts"].values()))
    return 0 if ok else 1, {"maps_verify.json": report}


def cmd_dyndeg(args) -> tuple[int, dict]:
    from spectral_renorm import output
    from spectral_renorm.ratmaps import degrees, maps

    result = degrees.dynamical_degree(maps.builtin_map(args.map_name),
                                      iterations=args.iters, trials=args.trials,
                                      seed=args.seed)
    stem = f"dyndeg_{args.map_name}"
    iterates = list(range(1, len(result["degrees"]) + 1))
    return 0, {
        f"{stem}.json": result,
        f"{stem}.csv": (["iterate", "degree"], [iterates, result["degrees"]]),
        f"{stem}.svg": lambda path: output.svg_series(
            path, iterates, result["degrees"], title=f"deg {args.map_name}^n"),
    }


def cmd_cohomology(args) -> tuple[int, dict]:
    from spectral_renorm import cohomology

    if args.surface_json and (args.surface or args.check):
        other = "--surface" if args.surface else "--check"
        raise BudgetError(f"argument --surface-json: not allowed with argument {other}")
    status = 0
    if args.surface_json:
        try:
            action = cohomology.action_from_json(json.loads(_read_input(args.surface_json)),
                                                 **SURFACE_JSON_BUDGET)
        except ValueError as exc:
            raise BudgetError(f"argument --surface-json: {exc}") from None
        report = {
            "surface": "custom",
            "signature": list(action.surface.signature()),
            "pullback": [list(r) for r in action.pull],
            "spectral_radius": str(action.spectral_radius),
            "jordan_block": action.jordan_block,
        }
        if args.invariant_classes is not None:
            report["invariant_classes"] = cohomology.invariant_classes(
                action, args.invariant_classes)
        name = "custom"
    elif args.surface:
        report = {"surface": args.surface}
        if args.check or args.invariant_classes is None:
            check = cohomology.verify_printed_matrices(args.surface)
            report["check"] = check
            if not check["all_ok"]:
                status = 1
        if args.invariant_classes is not None:
            action = cohomology.SURFACES[args.surface].action()
            report["invariant_classes"] = cohomology.invariant_classes(
                action, args.invariant_classes)
        name = args.surface
    else:
        raise BudgetError("cohomology needs --surface or --surface-json")
    return status, {f"cohomology_{name}.json": report}


def cmd_potential_grid(args) -> tuple[int, dict]:
    import numpy as np

    from spectral_renorm import output, pencils
    from spectral_renorm.ratmaps.potential import potential_grid

    grid = potential_grid(pencils.builtin_scheme(args.group), args.window, args.resolution,
                          args.iters)
    values, res = grid["values"], args.resolution
    finite = np.isfinite(values)
    finite_cells = int(np.count_nonzero(finite))
    lo, hi = ((float(values.min(where=finite, initial=np.inf)),
               float(values.max(where=finite, initial=-np.inf))) if finite_cells else (None, None))
    stem = f"potential_{args.group}_r{res}_n{args.iters}"
    return 0, {
        f"{stem}.csv": lambda path: output.write_grid_csv(path, grid["xs"], grid["ys"], values),
        f"{stem}.json": {
            "group": args.group,
            "window": grid["window"],
            "resolution": res,
            "iters": args.iters,
            "finite_cells": finite_cells,
            "neg_inf_cells": int(grid["neg_inf_mask"].sum()),
            "dead_cells": int(grid["dead_mask"].sum()),
            "min": lo,
            "max": hi,
        },
        f"{stem}.pgm": lambda path: output.write_pgm16(path, values, lo, hi),
    }


def cmd_julia(args) -> tuple[int, dict]:
    from spectral_renorm import output, spectra

    pts, measure = spectra.julia_backward(args.poly, args.depth, mode=args.mode,
                                          seed=args.seed)
    stem = f"julia_d{args.depth}"
    return 0, {
        f"{stem}.csv": (["re"], [pts]),
        f"{stem}.json": {
            "poly": list(args.poly),
            "depth": args.depth,
            "mode": args.mode,
            "count": len(pts),
            "support_min": measure.points[0],
            "support_max": measure.points[-1],
        },
        f"{stem}.svg": lambda path: output.svg_histogram(
            path, pts, title=f"backward orbit depth {args.depth}"),
    }


# Default backward seed per model: the Chebyshev seed must lie in [-1, 1].
_SEED_POINT = {"square": "1.7", "cheb": "0.3", "cantor": "1.7"}


def cmd_experiment(args) -> tuple[int, dict]:
    from spectral_renorm import experiments, output

    kind = args.kind
    stem = f"experiment_{kind}"
    if kind == "twist":
        r = experiments.twist_experiment(args.n)
        summary = {
            "kind": kind,
            "params": {"n": args.n, "curve": "angular graph pi + 0.45 eta",
                       "line": "beta = alpha"},
            "count": r["count"],
            "distances": [r["w1_arccos_law"], r["w1_narrow_law"]],
            "plane_line_count": experiments.twist_plane_count(args.n),
        }
    elif kind == "skew":
        r = experiments.skew_cantor_experiment(args.eta0, args.n)
        summary = {
            "kind": kind, "params": {"eta0": args.eta0, "depth": args.n},
            "count": r["count"], "distances": [r["w1_to_balanced"]],
        }
    else:
        model = kind.split("-", 1)[1]
        text = args.seed_point if args.seed_point is not None else _SEED_POINT[model]
        seed_point = complex(text)
        if model != "square":
            if seed_point.imag:
                raise BudgetError(f"argument --seed-point: the {model} model needs a real "
                                  f"seed, not {text}")
            seed_point = seed_point.real
        series = experiments.backward_equidistribution(model, seed_point, args.n)["series"]
        summary = {
            "kind": kind, "params": {"seed_point": text, "depth": args.n},
            "count": 2 ** args.n,
            "distances": [row["distance"] for row in series],
        }
        return 0, {**_series(stem, series, "depth", kind), f"{stem}.json": summary}
    xs, ys = [p[0] for p in r["line_points"]], [p[1] for p in r["line_points"]]
    measure = r["measure"]
    artifacts = {
        f"{stem}.csv": (["x", "y"], [xs, ys]),
        f"{stem}_cdf.svg": lambda path: output.svg_cdf(path, measure.points,
                                                       measure.cumulative, title=kind),
        f"{stem}.json": summary,
    }
    if len(xs) > 1:
        artifacts[f"{stem}_points.svg"] = lambda path: output.svg_scatter(
            path, xs, ys, title=f"{kind} intersection points")
    return 0, artifacts


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "dos-compare": cmd_dos_compare,
    "schur-verify": cmd_schur_verify,
    "conjugacy-verify": cmd_conjugacy_verify,
    "maps-verify": cmd_maps_verify,
    "dyndeg": cmd_dyndeg,
    "cohomology": cmd_cohomology,
    "potential-grid": cmd_potential_grid,
    "julia": cmd_julia,
    "experiment": cmd_experiment,
}


if __name__ == "__main__":
    sys.exit(main())
