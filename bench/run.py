"""Benchmark of the spectral_renorm command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each operation of the workload (see ``workloads.py``) is
one ``python -m spectral_renorm.cli ...`` process, run one after another
from this process: a closed loop with one client.  Each operation's
``--seed`` is derived from the workload seed, the pass number and the
operation's position.  BLAS runs with ``SPECTRAL_RENORM_THREADS`` threads
(default: 2, or fewer if the machine has fewer cores); a cap above the
number of usable cores is refused.  Each child is reaped with ``os.wait4``,
which gives that process's own CPU time and peak RSS.

``--trace 0`` runs passes over the workload until ``--seconds`` would be
exceeded, at least ``MIN_PASSES``, each with its own seeds, and reports the
medians of the end-to-end metrics.  For the schur-verify operations it
checks that the first two passes' sample points differ, which shows the seed
reaches the program.
Before each pass it also times a few fresh interpreters that only import
the CLI and the modules its handlers import; ``setup_s`` is their median.
Spreading these samples over the run keeps one slow moment of a shared
machine from setting it.

``--trace 1`` runs one untraced pass and then the same pass, with the same
seeds, through ``tracer.py``, which records spans around every public
function of the package.  It reports each layer's self time and counters,
and ``trace.overhead_s``, the traced pass's wall time minus the untraced
one's.  The exact operations' CSV and JSON artifacts of the two passes must
be byte-identical.

Every operation's outputs are checked; an operation fails on a non-zero exit
status, a JSON error on stderr or a failed check.  Human-readable lines go to
standard output first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when the
benchmark ran (whether or not outputs were correct) and 2 when it could not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import operation_profile  # noqa: E402
from workloads import SUBCOMMAND_METRIC, WORKLOADS  # noqa: E402

# Fewest passes in a timed run.  schur-exact gets three: on a shared 2-core
# machine its pass time varies most between runs, even with the same seed.
MIN_PASSES = {"dos-sweep": 2, "schur-exact": 3, "renorm-dynamics": 2}
SETUP_SAMPLES_PER_PASS = 3
OP_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # no new pass starts if it would end after this

# What the CLI's handlers import, in addition to spectral_renorm.cli.
SETUP_IMPORTS = (
    "spectral_renorm.cli", "spectral_renorm.output", "spectral_renorm.spectra",
    "spectral_renorm.pencils", "spectral_renorm.conjugacy", "spectral_renorm.cohomology",
    "spectral_renorm.experiments", "spectral_renorm.verification",
    "spectral_renorm.ratmaps.charts", "spectral_renorm.ratmaps.degrees",
    "spectral_renorm.ratmaps.maps", "spectral_renorm.ratmaps.potential", "numpy",
)

# Per-layer metrics: (name, unit).  Self times and counts are summed over the
# operations of the traced pass; ``max_*`` values are maxima.
PER_LAYER = (
    ("groups.level_action.self_s", "s"),
    ("groups.level_action.calls", "count"),
    ("spectra.slice_matrix.self_s", "s"),
    ("spectra.sym_eigenvalues.self_s", "s"),
    ("spectra.sym_eigenvalues.max_size", "rows"),
    ("spectra.sym_eigenvalues.flops_computed", "flop"),
    ("spectra.dos.calls", "count"),
    ("spectra.convergence_report.self_s", "s"),
    ("pencils.assemble.self_s", "s"),
    ("pencils.assemble.calls", "count"),
    ("pencils.verify_recursion.self_s", "s"),
    ("exact.det_exact.self_s", "s"),
    ("exact.det_exact.calls", "count"),
    ("exact.det_exact.max_size", "rows"),
    ("exact.det_exact.max_entry_bits", "bits"),
    ("exact.det_exact.max_result_bits", "bits"),
    ("exact.bareiss_det_int.self_s", "s"),
    ("ratmaps.dynamical_degree.self_s", "s"),
    ("ratmaps.compose_along_line.self_s", "s"),
    ("ratmaps.compose_along_line.calls", "count"),
    ("ratmaps.binary_forms_gcd.self_s", "s"),
    ("ratmaps.binary_forms_gcd.calls", "count"),
    ("ratmaps.binary_form_divexact.self_s", "s"),
    ("ratmaps.poly_gcd_int.self_s", "s"),
    ("ratmaps.poly_gcd_int.calls", "count"),
    ("ratmaps.poly_divexact_int.self_s", "s"),
    ("ratmaps.max_coeff_bits", "bits"),
    ("ratmaps.MultiPoly.mul.self_s", "s"),
    ("ratmaps.MultiPoly.mul.calls", "count"),
    ("conjugacy.conjugacy_checks.self_s", "s"),
    ("conjugacy.fiber_conjugation_check.self_s", "s"),
    ("conjugacy.chebyshev_semiconj_check.self_s", "s"),
    ("ratmaps.potential_grid.self_s", "s"),
    ("ratmaps.potential_grid.cells", "count"),
    ("experiments.backward_equidistribution.self_s", "s"),
    ("experiments.circle_w1_to_uniform.self_s", "s"),
    ("spectra.julia_backward.self_s", "s"),
    ("cohomology.verify_printed_matrices.self_s", "s"),
    ("output.write.self_s", "s"),
    ("output.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def derive_seed(workload: str, seed: int, pass_index: int, op_index: int) -> int:
    key = f"{workload}:{seed}:{pass_index}:{op_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") & 0x7FFFFFFF


class Runner:
    """Starts the package's processes from one checkout with one environment."""

    def __init__(self, root: Path, threads: int, workdir: Path):
        self.root = root
        self.workdir = workdir
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, SPECTRAL_RENORM_THREADS=str(threads),
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def process(self, argv: list, stderr_path: Path | None = None) -> dict:
        """Run one child to completion; wall time, own CPU time and max RSS."""
        err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stderr_path:
                err.close()
        return {"start": start, "end": end, "wall_s": end - start,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "status": proc.returncode}

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing what the CLI needs."""
        result = self.process(["-c", "import " + ", ".join(SETUP_IMPORTS)])
        if result["status"] != 0:
            raise BenchError("the package does not import")
        return result["wall_s"]

    def operation(self, op, seed: int, out: Path, spans_file: Path | None) -> dict:
        out.mkdir(parents=True)
        cli = [*op.argv, "--seed", str(seed), "--out", str(out)]
        if spans_file is None:
            argv = ["-m", "spectral_renorm.cli", *cli]
        else:
            argv = [str(HERE / "tracer.py"), str(spans_file), *cli]
        result = self.process(argv, out / "stderr.txt")
        problems = []
        if result["status"] != 0:
            problems.append(f"exit status {result['status']}")
        for line in (out / "stderr.txt").read_text(errors="replace").splitlines():
            if line.startswith("{") and '"error"' in line:
                problems.append(f"error {line}")
        if not problems:
            try:
                problems += op.check(out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"output check raised {exc!r}")
        result.update(op=op, seed=seed, out=out, problems=problems)
        return result


def run_pass(runner: Runner, workload: str, seed: int, pass_index: int,
             traced: bool, tag: str) -> dict:
    start = time.perf_counter()
    ops = []
    for i, op in enumerate(WORKLOADS[workload]):
        out = runner.workdir / tag / f"op{i}"
        spans_file = runner.workdir / tag / f"spans{i}.json" if traced else None
        ops.append(runner.operation(op, derive_seed(workload, seed, pass_index, i),
                                    out, spans_file))
        if traced:
            ops[-1]["spans_file"] = spans_file
    return {"ops": ops, "wall_s": time.perf_counter() - start}


def artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".json")}


def check_seed_reaches_program(first: dict, second: dict) -> None:
    """Different seeds must give different schur-verify sample points."""
    for a, b in zip(first["ops"], second["ops"]):
        if a["op"].subcommand != "schur-verify" or a["problems"] or b["problems"]:
            continue
        points = [json.loads(next(o["out"].glob("schur_*.json")).read_text())["points"]
                  for o in (a, b)]
        if points[0] == points[1]:
            b["problems"].append("sample points did not change with the seed")


def check_deterministic(plain: dict, traced: dict) -> None:
    """The same seeds must give byte-identical exact artifacts."""
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["op"].exact and not a["problems"] and artifacts(a["out"]) != artifacts(b["out"]):
            b["problems"].append("artifacts differ between two passes with the same seed")


def layer_metrics(traced: dict) -> dict:
    """Aggregate the traced pass's spans into the per-layer metrics."""
    self_s: dict = {}
    calls: dict = {}
    sums: dict = {}
    maxima: dict = {}
    cli_self = 0.0
    for op in traced["ops"]:
        data = json.loads(op["spans_file"].read_text())
        profile = operation_profile([tuple(s) for s in data["spans"]], op["start"], op["end"])
        op["profile"] = profile
        covered = sum(profile["self_s"].values())
        if abs(covered + profile["cli_self_s"] - op["wall_s"]) > 1e-6:
            op["problems"].append("span self times do not add up to the wall time")
        cli_self += profile["cli_self_s"]
        for name, t in profile["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + profile["calls"][name]
        for key, value in data["sums"].items():
            sums[key] = sums.get(key, 0) + value
        for key, value in data["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
    values = {"cli.self_s": cli_self,
              "output.write.self_s": sum(t for n, t in self_s.items() if n.startswith("output."))}
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif kind == "calls":
            values[name] = calls.get(base, 0)
        else:
            values[name] = sums.get(name, maxima.get(name, 0))
    return values


def environment(runner: Runner, threads: int, nproc: int) -> dict:
    probe = ("import json, numpy; blas = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps([numpy.__version__, "
             "blas.get('name'), blas.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=runner.root, env=runner.env,
                         capture_output=True, text=True, timeout=60)
    numpy_version, blas_name, blas_version = (json.loads(out.stdout) if out.returncode == 0
                                              else [None, None, None])
    return {"nproc": nproc, "thread_cap": threads, "numpy": numpy_version,
            "blas": f"{blas_name} {blas_version}", "python": platform.python_version(),
            "commit": git_commit(runner.root)}


def git_commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def timed_run(runner: Runner, workload: str, seed: int, seconds: int) -> tuple:
    start = time.perf_counter()
    runner.setup_time()  # writes the bytecode caches; not counted
    setup: list = []
    passes = []
    while True:
        elapsed = time.perf_counter() - start
        mean = sum(p["wall_s"] for p in passes) / len(passes) if passes else 0.0
        if len(passes) >= MIN_PASSES[workload] and elapsed + mean > seconds:
            break
        if len(passes) >= 2 and elapsed + mean > RUN_BUDGET_S:
            break
        setup += [runner.setup_time() for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(run_pass(runner, workload, seed, len(passes), False, f"pass{len(passes)}"))
    check_seed_reaches_program(passes[0], passes[1])
    med = statistics.median
    metrics = {
        "wall_s": (med(p["wall_s"] for p in passes), "s"),
        "cpu_s": (med(sum(o["cpu_s"] for o in p["ops"]) for p in passes), "s"),
        "peak_rss_mb": (med(max(o["rss_mb"] for o in p["ops"]) for p in passes), "MB"),
        "setup_s": (med(setup), "s"),
    }
    lines = [f"passes {len(passes)}, setup samples {len(setup)}"]
    for metric in dict.fromkeys(SUBCOMMAND_METRIC.values()):
        per_pass = [sum(o["wall_s"] for o in p["ops"] if o["op"].metric == metric)
                    for p in passes]
        if any(o["op"].metric == metric for o in passes[0]["ops"]):
            lines.append(f"{metric} {med(per_pass):.4f} s (median of {len(per_pass)})")
    return passes, metrics, lines


def traced_run(runner: Runner, workload: str, seed: int) -> tuple:
    plain = run_pass(runner, workload, seed, 0, False, "plain")
    traced = run_pass(runner, workload, seed, 0, True, "traced")
    check_deterministic(plain, traced)
    values = layer_metrics(traced)
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    lines = [f"untraced pass {plain['wall_s']:.4f} s, traced pass {traced['wall_s']:.4f} s"]
    for op in traced["ops"]:
        top = sorted(op["profile"]["self_s"].items(), key=lambda kv: -kv[1])[:3]
        lines.append(f"traced {' '.join(op['op'].argv)}: cli.self_s "
                     f"{op['profile']['cli_self_s']:.4f}, "
                     + ", ".join(f"{name} {t:.4f}" for name, t in top))
    return [plain, traced], metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spectral_renorm" / "cli.py").is_file():
        raise BenchError(f"no spectral_renorm sources under {root / 'src'}; "
                         "run from the root of a checkout")
    nproc = len(os.sched_getaffinity(0))
    threads = int(os.environ.get("SPECTRAL_RENORM_THREADS") or min(2, nproc))
    if not 1 <= threads <= nproc:
        raise BenchError(f"thread cap {threads} is outside 1..{nproc} (usable cores)")
    (root / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_out"))
    try:
        runner = Runner(root, threads, workdir)
        env = environment(runner, threads, nproc)
        if args.trace:
            passes, metrics, lines = traced_run(runner, args.workload, args.seed)
        else:
            passes, metrics, lines = timed_run(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if o["problems"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for i, p in enumerate(passes):
        for o in p["ops"]:
            print(f"pass {i} {o['wall_s']:8.4f} s {o['cpu_s']:8.4f} cpu-s {o['rss_mb']:7.1f} MB "
                  f"seed {o['seed']} {' '.join(o['op'].argv)}")
    for o in failed:
        print(f"FAILED {' '.join(o['op'].argv)}: {'; '.join(o['problems'])}")
    print(f"ops_failed {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        sys.exit(2)
