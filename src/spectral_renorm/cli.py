"""Batch front-end: reproducible data files and static plots.

Subcommands (each writes CSV + JSON into --out, plus SVG when requested):

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
outputs byte-identical.  SPECTRAL_RENORM_THREADS caps BLAS parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path


def _cap_threads():
    cap = os.environ.get("SPECTRAL_RENORM_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


class BudgetError(RuntimeError):
    pass


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-renorm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", type=_format_list, default="csv,json",
                       help="comma list from csv,json,svg")

    p = sub.add_parser("spectrum", help="eigenvalues and atoms of one level")
    p.add_argument("--group", required=True,
                   choices=["grigorchuk", "lamplighter", "hanoi"])
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--grig-slice", type=float, default=-1.0)
    common(p)

    p = sub.add_parser("dos-compare", help="convergence diagnostics across levels")
    p.add_argument("--group", required=True,
                   choices=["grigorchuk", "lamplighter", "hanoi"])
    p.add_argument("--levels", default="", help="a..b (inclusive)")
    common(p)

    p = sub.add_parser("schur-verify", help="exact recursion check")
    p.add_argument("--group", required=True,
                   choices=["grigorchuk", "lamplighter", "hanoi"])
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
                   help='custom surface/action as {"k", "incidences", "F_star"}')
    p.add_argument("--check", action="store_true",
                   help="verify the printed matrices")
    p.add_argument("--invariant-classes", type=_at_least(1), default=None, metavar="D",
                   help="detect classes with F^* c = D c")
    common(p)

    p = sub.add_parser("potential-grid", help="cascade potential on a window")
    p.add_argument("--group", required=True,
                   choices=["grigorchuk", "lamplighter", "hanoi"])
    p.add_argument("--window", default="-4,4,-4,4")
    p.add_argument("--resolution", type=_at_least(2), default=256)
    p.add_argument("--iters", type=_at_least(0), default=12)
    common(p)

    p = sub.add_parser("julia", help="backward orbit of a quadratic")
    p.add_argument("--poly", default="1,-1,-3", help="a,b,c of a z^2 + b z + c")
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
    p.add_argument("--seed-point", default=None,
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
        except (ValueError, argparse.ArgumentTypeError):
            raise BudgetError(f"config {key}: {value!r} is not a valid value") from None
        if action.choices is not None and out[action.dest] not in action.choices:
            raise BudgetError(f"config {key}: {value!r} is not one of {list(action.choices)}")
    return out


def main(argv=None) -> int:
    _cap_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        if config:
            subparser = parser.subcommands[args.command]
            # config values become the subcommand's defaults, so explicit flags win
            subparser.set_defaults(**_config_defaults(subparser, config))
            args = parser.parse_args(argv)
        handler = _HANDLERS[args.command]
        return handler(args)
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


def _formats(args):
    return set(args.format.split(","))


def _outdir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_spectrum(args) -> int:
    from spectral_renorm import output, spectra

    fmts = _formats(args)
    result = spectra.dos(args.group, args.level, args.grig_slice)
    out = _outdir(args)
    m = result.measure
    stem = f"spectrum_{args.group}_n{args.level}"
    if "csv" in fmts:
        output.write_csv(out / f"{stem}.csv", ["level", "eigenvalue", "multiplicity"],
                         [[args.level] * len(m.points), m.points, result.multiplicities])
    if "json" in fmts:
        clusters = spectra.atoms(m, 1e-8 * max(abs(m.points[0]), abs(m.points[-1]), 1.0))
        output.write_json(out / f"{stem}.json", {
            "group": result.group,
            "level": result.level,
            "slice": result.slice_descriptor,
            "mass": m.mass,
            "atoms": [{"center": c, "mass": w} for c, w in clusters],
        })
    if "svg" in fmts:
        import numpy as np

        output.svg_cdf(out / f"{stem}_cdf.svg", m.points, m.weights,
                       title=f"{args.group} level {args.level} spectral CDF")
        output.svg_histogram(out / f"{stem}_hist.svg",
                             np.repeat(m.points, result.multiplicities),
                             title=f"{args.group} level {args.level} spectrum")
    return 0


def cmd_dos_compare(args) -> int:
    from spectral_renorm import output, spectra

    fmts = _formats(args)
    if args.levels:
        lo, hi = args.levels.split("..")
        levels = list(range(int(lo), int(hi) + 1))
    else:
        levels = {"grigorchuk": list(range(4, 12)), "lamplighter": list(range(4, 13)),
                  "hanoi": list(range(3, 8))}[args.group]
    report = spectra.convergence_report(args.group, levels)
    out = _outdir(args)
    stem = f"dos_compare_{args.group}"
    if "csv" in fmts:
        header = ["level", "distance", "metric"]
        output.write_csv(out / f"{stem}.csv", header,
                         [[r[k] for r in report["rows"]] for k in header])
    if "json" in fmts:
        output.write_json(out / f"{stem}.json", report)
    if "svg" in fmts:
        output.svg_series(out / f"{stem}.svg",
                          [r["level"] for r in report["rows"]],
                          [r["distance"] for r in report["rows"]],
                          title=f"{args.group}: distance to limit", logy=True)
    return 0


def cmd_schur_verify(args) -> int:
    from spectral_renorm import output, pencils

    scheme = pencils.builtin_scheme(args.group)
    report = pencils.verify_recursion(scheme, args.level, args.samples, args.seed)
    out = _outdir(args)
    stem = f"schur_{args.group}_n{args.level}"
    if "json" in _formats(args):
        output.write_json(out / f"{stem}.json", report)
    if "csv" in _formats(args):
        output.write_csv(out / f"{stem}.csv", ["lambda", "mu"],
                         [[l for l, _ in report["points"]], [m for _, m in report["points"]]])
    return 0 if not report["failures"] else 1


def cmd_conjugacy_verify(args) -> int:
    from spectral_renorm import conjugacy, output

    report = {
        "identities": conjugacy.conjugacy_checks(),
        "chebyshev_normalization": conjugacy.chebyshev_semiconj_check(),
        "fiber": conjugacy.fiber_conjugation_check(args.samples, seed=args.seed),
    }
    out = _outdir(args)
    if "json" in _formats(args):
        output.write_json(out / "conjugacy_verify.json", report)
    ok = (all(report["identities"].values())
          and report["chebyshev_normalization"]["2z^2-1"]
          and report["fiber"]["passed"]
          and all(report["fiber"]["symbolic"].values()))
    return 0 if ok else 1


def cmd_maps_verify(args) -> int:
    from spectral_renorm import output
    from spectral_renorm.verification import fact_report, indeterminacy_report

    facts = fact_report()
    report = {
        "contracted": facts["contracted"],
        "indeterminacy": indeterminacy_report(),
        "charts": facts["charts"],
    }
    out = _outdir(args)
    if "json" in _formats(args):
        output.write_json(out / "maps_verify.json", report)
    ok = (all(r["ok"] for r in report["contracted"])
          and all(r["ok"] for r in report["indeterminacy"])
          and all(report["charts"].values()))
    return 0 if ok else 1


def cmd_dyndeg(args) -> int:
    from spectral_renorm import output
    from spectral_renorm.ratmaps import degrees, maps

    result = degrees.dynamical_degree(maps.builtin_map(args.map_name),
                                      iterations=args.iters, trials=args.trials,
                                      seed=args.seed)
    out = _outdir(args)
    stem = f"dyndeg_{args.map_name}"
    if "json" in _formats(args):
        output.write_json(out / f"{stem}.json", result)
    if "csv" in _formats(args):
        output.write_csv(out / f"{stem}.csv", ["iterate", "degree"],
                         [range(1, len(result["degrees"]) + 1), result["degrees"]])
    if "svg" in _formats(args):
        output.svg_series(out / f"{stem}.svg", list(range(1, len(result["degrees"]) + 1)),
                          result["degrees"], title=f"deg {args.map_name}^n", logy=True)
    return 0


def cmd_cohomology(args) -> int:
    from spectral_renorm import cohomology, output

    status = 0
    if args.surface_json:
        data = json.loads(_read_input(args.surface_json))
        action = cohomology.action_from_json(data)
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
            x = cohomology.surface(args.surface)
            action = cohomology.map_action(x, cohomology.PUSHFORWARD[args.surface],
                                           cohomology.TOP_DEGREE[args.surface])
            report["invariant_classes"] = cohomology.invariant_classes(
                action, args.invariant_classes)
        name = args.surface
    else:
        raise BudgetError("cohomology needs --surface or --surface-json")
    if "json" in _formats(args):
        output.write_json(_outdir(args) / f"cohomology_{name}.json", report)
    return status


def cmd_potential_grid(args) -> int:
    import numpy as np

    from spectral_renorm import output, pencils
    from spectral_renorm.ratmaps.potential import potential_grid

    window = tuple(float(v) for v in args.window.split(","))
    if len(window) != 4:
        raise BudgetError("window must be xmin,xmax,ymin,ymax")
    if not all(math.isfinite(v) for v in window):
        raise BudgetError("window bounds must be finite")
    if not (math.isfinite(window[1] - window[0]) and math.isfinite(window[3] - window[2])):
        raise BudgetError("window width and height must be finite")
    if not (window[0] < window[1] and window[2] < window[3]):
        raise BudgetError("window needs xmin < xmax and ymin < ymax")
    grid = potential_grid(pencils.builtin_scheme(args.group), window, args.resolution, args.iters)
    out = _outdir(args)
    stem = f"potential_{args.group}_r{args.resolution}_n{args.iters}"
    fmts = _formats(args)
    if "csv" in fmts:
        # cells in row-major order: cell (i, j) is the point (xs[j], ys[i])
        res = args.resolution
        output.write_csv(out / f"{stem}.csv", ["x", "y", "value"],
                         [np.tile(grid["xs"], res), np.repeat(grid["ys"], res),
                          grid["values"].ravel()])
    if "json" in fmts:
        finite = grid["values"][np.isfinite(grid["values"])]
        output.write_json(out / f"{stem}.json", {
            "group": args.group,
            "window": grid["window"],
            "resolution": args.resolution,
            "iters": args.iters,
            "finite_cells": int(finite.size),
            "neg_inf_cells": int(grid["neg_inf_mask"].sum()),
            "dead_cells": int(grid["dead_mask"].sum()),
            "min": float(finite.min()) if finite.size else None,
            "max": float(finite.max()) if finite.size else None,
        })
    output.write_pgm16(out / f"{stem}.pgm", grid["values"])
    return 0


def cmd_julia(args) -> int:
    import numpy as np

    from spectral_renorm import output, spectra

    coeffs = tuple(float(v) for v in args.poly.split(","))
    if len(coeffs) != 3:
        raise BudgetError("--poly needs a,b,c")
    pts, measure = spectra.julia_backward(coeffs, args.depth, mode=args.mode,
                                          seed=args.seed)
    out = _outdir(args)
    stem = f"julia_d{args.depth}"
    fmts = _formats(args)
    if "csv" in fmts:
        output.write_csv(out / f"{stem}.csv", ["re", "im"], [np.real(pts), np.imag(pts)])
    if "json" in fmts:
        output.write_json(out / f"{stem}.json", {
            "poly": list(coeffs),
            "depth": args.depth,
            "mode": args.mode,
            "count": len(pts),
            "support_min": measure.points[0],
            "support_max": measure.points[-1],
        })
    if "svg" in fmts:
        output.svg_histogram(out / f"{stem}.svg", [complex(p).real for p in pts],
                             title=f"backward orbit depth {args.depth}")
    return 0


# Default backward seed per model: the Chebyshev seed must lie in [-1, 1].
_SEED_POINT = {"square": "1.7", "cheb": "0.3", "cantor": "1.7"}


def cmd_experiment(args) -> int:
    from spectral_renorm import experiments, output

    fmts = _formats(args)
    kind = args.kind
    series = points = measure = None
    if kind == "twist":
        r = experiments.twist_experiment(args.n)
        r["plane_line_count"] = experiments.twist_plane_count(args.n)
        summary = {
            "kind": kind,
            "params": {"n": args.n, "curve": "angular graph pi + 0.45 eta",
                       "line": "beta = alpha"},
            "count": r["count"],
            "distances": [r["w1_arccos_law"], r["w1_narrow_law"]],
            "plane_line_count": r["plane_line_count"],
        }
        points = r["line_points"]
        measure = r["measure"]
    elif kind == "skew":
        r = experiments.skew_cantor_experiment(args.eta0, args.n)
        summary = {
            "kind": kind, "params": {"eta0": args.eta0, "depth": args.n},
            "count": r["count"], "distances": [r["w1_to_balanced"]],
        }
        points = r["line_points"]
        measure = r["measure"]
    else:
        model = kind.split("-", 1)[1]
        text = args.seed_point if args.seed_point is not None else _SEED_POINT[model]
        seed_point = complex(text) if model == "square" else float(text)
        series = experiments.backward_equidistribution(model, seed_point, args.n)["series"]
        summary = {
            "kind": kind, "params": {"seed_point": text, "depth": args.n},
            "count": 2 ** args.n,
            "distances": [row["distance"] for row in series],
        }
    out = _outdir(args)
    if series is not None and "csv" in fmts:
        header = ["depth", "distance", "metric"]
        output.write_csv(out / f"experiment_{kind}.csv", header,
                         [[row[k] for row in series] for k in header])
    if series is not None and "svg" in fmts:
        output.svg_series(out / f"experiment_{kind}.svg",
                          [row["depth"] for row in series],
                          [row["distance"] for row in series], title=kind, logy=True)
    if points is not None and "csv" in fmts:
        output.write_csv(out / f"experiment_{kind}.csv", ["x", "y"],
                         [[p[0] for p in points], [p[1] for p in points]])
    if points is not None and "svg" in fmts and len(points) > 1:
        output.svg_scatter(out / f"experiment_{kind}_points.svg",
                           [p[0] for p in points], [p[1] for p in points],
                           title=f"{kind} intersection points")
    if measure is not None and "svg" in fmts:
        output.svg_cdf(out / f"experiment_{kind}_cdf.svg", measure.points,
                       measure.weights, title=kind)
    if "json" in fmts:
        output.write_json(out / f"experiment_{kind}.json", summary)
    return 0


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
