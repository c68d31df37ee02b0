"""Every function under ``src/spectral_renorm`` is one that a CLI run enters.

One fresh interpreter runs ``cli.main`` in process, once per case of
``CASES``, under ``sys.setprofile``, and records the first line of every
function it enters.  A fresh interpreter is used so that what runs at import
time is seen whatever the tests before this one imported.  The test then
names every ``def`` in the package that no case entered.  Dunders are exempt.

Run as a script, ``python tests/test_reachability.py DIR`` runs the cases
with DIR as scratch space and writes the entered lines and the exit codes to
DIR/entered.json.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

# the lamplighter surface, given as a custom one
SURFACE = {"k": 2, "incidences": [True, True], "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]],
           "d_top": 1}

# (exit status, argv); "{tmp}" is the scratch directory
CASES = [
    *[(0, ["spectrum", "--group", g, "--level", "3", "--format", "csv,json,svg"])
      for g in ("grigorchuk", "lamplighter", "hanoi")],
    *[(0, ["dos-compare", "--group", g, "--levels", "2..4", "--format", "csv,json,svg"])
      for g in ("grigorchuk", "lamplighter", "hanoi")],
    *[(0, ["schur-verify", "--group", g, "--level", "2", "--samples", "1"])
      for g in ("grigorchuk", "lamplighter")],
    (0, ["--config", "{tmp}/run.cfg", "schur-verify", "--group", "hanoi", "--level", "2"]),
    (0, ["conjugacy-verify", "--samples", "2"]),
    (0, ["maps-verify"]),
    # dyndeg iterates over F_p (ratmaps.modp); the integer iteration is the tests' oracle
    *[(0, ["dyndeg", "--map", m, "--iters", it, "--trials", "1", "--format", "csv,json,svg"])
      for m, it in (("R_G", "2"), ("R_H", "3"), ("R_L", "2"))],
    (0, ["cohomology", "--surface", "lamplighter2", "--check"]),
    (0, ["cohomology", "--surface", "hanoi4", "--invariant-classes", "2"]),
    (0, ["cohomology", "--surface-json", "{tmp}/surface.json", "--invariant-classes", "1"]),
    *[(0, ["potential-grid", "--group", g, "--resolution", "4", "--iters", "3"])
      for g in ("grigorchuk", "lamplighter")],
    # a dead orbit that starts on a factor zero reaches the exact factor test
    (0, ["potential-grid", "--group", "hanoi", "--window=-4,4,-4,4", "--resolution", "33",
         "--iters", "7"]),
    (0, ["julia", "--depth", "3", "--format", "csv,json,svg"]),
    (0, ["experiment", "--kind", "twist", "--n", "3", "--format", "csv,json,svg"]),
    *[(0, ["experiment", "--kind", k, "--n", "2", "--format", "csv,json,svg"])
      for k in ("skew", "backward-square", "backward-cheb", "backward-cantor")],
    (0, ["experiment", "--kind", "backward-cantor", "--seed-point", "3", "--n", "2"]),
    (2, ["spectrum", "--group", "hanoi"]),  # a usage error: no --level
]


def run_cases(tmp: Path) -> dict:
    """Run ``CASES`` under the profiler; the entered (file, first line)
    pairs under the package and the exit status of each case."""
    (tmp / "surface.json").write_text(json.dumps(SURFACE))
    (tmp / "run.cfg").write_text("samples = 1\n")
    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    import numpy  # noqa: F401  (before the profiler starts: numpy's import is not ours)

    statuses = []
    sys.setprofile(hook)
    try:
        from spectral_renorm import cli

        for k, (_status, argv) in enumerate(CASES):
            argv = [a.format(tmp=tmp) for a in argv] + ["--out", str(tmp / f"out{k}")]
            statuses.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    package = _package()
    return {"statuses": statuses,
            "entered": sorted([Path(f).relative_to(package).as_posix(), line]
                              for f, line in entered if Path(f).is_relative_to(package))}


def _package() -> Path:
    import spectral_renorm

    return Path(spectral_renorm.__file__).parent


def definitions() -> dict:
    """(file, first line) -> qualified name of every non-dunder ``def`` in the
    package, nested ones included.  The first line is that of the first
    decorator, as in the code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and not (
                        child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = name
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    package = _package()
    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package).as_posix()
        visit(ast.parse(file.read_text()), path, "")
    return found


def test_every_function_in_the_package_is_entered_by_a_cli_run(tmp_path):
    subprocess.run([sys.executable, __file__, str(tmp_path)], check=True)
    report = json.loads((tmp_path / "entered.json").read_text())
    assert report["statuses"] == [status for status, _ in CASES]
    entered = {tuple(pair) for pair in report["entered"]}
    missed = [f"{path}:{line} {name}" for (path, line), name in sorted(definitions().items())
              if (path, line) not in entered]
    assert not missed, "never entered by a CLI run:\n" + "\n".join(missed)


if __name__ == "__main__":
    out = Path(sys.argv[1])
    (out / "entered.json").write_text(json.dumps(run_cases(out)))
