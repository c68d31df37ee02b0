"""CLI behaviors: artifacts, determinism, exit codes."""

import ast
import json
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from test_reachability import SURFACE

from spectral_renorm import cli
from spectral_renorm.cli import BUDGETS, SURFACE_JSON_BUDGET, main
from spectral_renorm.output import (
    CSV_CHUNK_ROWS,
    fmt,
    write_csv,
    write_grid_csv,
    write_json,
    write_pgm16,
)
from spectral_renorm.pencils import builtin_scheme
from spectral_renorm.ratmaps.potential import potential_grid


def run_cli(args, tmp_path):
    return main(list(args) + ["--out", str(tmp_path)])


def test_spectrum_writes_csv_json_svg(tmp_path):
    rc = run_cli(["spectrum", "--group", "grigorchuk", "--level", "4",
                  "--format", "csv,json,svg"], tmp_path)
    assert rc == 0
    csv = (tmp_path / "spectrum_grigorchuk_n4.csv").read_text().splitlines()
    assert csv[0] == "level,eigenvalue,multiplicity"
    assert len(csv) >= 5
    meta = json.loads((tmp_path / "spectrum_grigorchuk_n4.json").read_text())
    assert meta["group"] == "grigorchuk" and meta["mass"] == 1
    assert (tmp_path / "spectrum_grigorchuk_n4_cdf.svg").read_text().startswith("<svg")


def test_csv_floats_have_17_significant_digits(tmp_path):
    run_cli(["spectrum", "--group", "grigorchuk", "--level", "2"], tmp_path)
    rows = (tmp_path / "spectrum_grigorchuk_n2.csv").read_text().splitlines()[1:]
    vals = [r.split(",")[1] for r in rows]
    assert "0.80901699437494745" in vals


def _row_by_row_csv(header, rows):
    """The CSV rendering before the column-wise writer: ``fmt`` per value."""
    return "\n".join([",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]) + "\n"


def test_potential_grid_csv_equals_the_row_by_row_rendering(tmp_path):
    assert run_cli(["potential-grid", "--group", "hanoi", "--window=-4,-0,-4,4",
                    "--resolution", "17", "--iters", "7", "--format", "csv"], tmp_path) == 0
    grid = potential_grid(builtin_scheme("hanoi"), (-4.0, -0.0, -4.0, 4.0), 17, 7)
    values = grid["values"]
    assert np.isnan(values).any() and np.isneginf(values).any()
    assert np.signbit(grid["xs"][-1]) and grid["xs"][-1] == 0.0
    rows = [(x, y, values[i, j]) for i, y in enumerate(grid["ys"])
            for j, x in enumerate(grid["xs"])]
    expected = _row_by_row_csv(["x", "y", "value"], rows)
    assert "\n-0," in expected and ",nan\n" in expected and ",-inf\n" in expected
    assert (tmp_path / "potential_hanoi_r17_n7.csv").read_bytes() == expected.encode()
    assert (tmp_path / "potential_hanoi_r17_n7.pgm").read_bytes() == _packed_pgm(values)


def _packed_pgm(values):
    """The PGM as packed big-endian words: 0 at a non-finite value, else
    1 + (v - lo) / (hi - lo) * 65534 truncated, lo and hi the finite min and
    max, hi = lo + 1 when they are equal and (0, 1) when nothing is finite."""
    finite = values[np.isfinite(values)]
    lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 1.0)
    if hi == lo:
        hi = lo + 1.0
    words = [0 if not np.isfinite(v) else int(1 + (v - lo) / (hi - lo) * 65534)
             for v in values.ravel()]
    rows, cols = values.shape
    return f"P5\n{cols} {rows}\n65535\n".encode() + struct.pack(f">{len(words)}H", *words)


SPECIAL_VALUES = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308]


def _grid_values(resolution, kind):
    rng = np.random.default_rng(resolution)
    if kind == "non-finite":
        return rng.choice([np.nan, -np.nan, np.inf, -np.inf], size=(resolution, resolution))
    if kind == "constant":
        return np.full((resolution, resolution), -2.5)
    values = rng.normal(size=(resolution, resolution)) * 10.0 ** rng.integers(-5, 6, (resolution,) * 2)
    cells = rng.choice(values.size, min(values.size, 3 * len(SPECIAL_VALUES)), replace=False)
    values.flat[cells] = np.resize(SPECIAL_VALUES, len(cells))
    return values


@pytest.mark.parametrize("resolution, kind", [
    (2, "mixed"), (17, "mixed"), (300, "mixed"), (9, "non-finite"), (12, "constant")])
def test_grid_csv_and_pgm_equal_the_row_by_row_oracles(resolution, kind, tmp_path):
    assert 300 % (CSV_CHUNK_ROWS // 300)  # 300 rows end in a short block of rows
    values = _grid_values(resolution, kind)
    xs = np.linspace(-4.0, -0.0, resolution)
    ys = np.linspace(-1e-300, 7.0, resolution)
    write_grid_csv(tmp_path / "t.csv", xs, ys, values)
    rows = [(x, y, values[i, j]) for i, y in enumerate(ys) for j, x in enumerate(xs)]
    assert (tmp_path / "t.csv").read_bytes() == _row_by_row_csv(["x", "y", "value"], rows).encode()
    # lo and hi as cmd_potential_grid gives them
    finite = values[np.isfinite(values)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (None, None)
    write_pgm16(tmp_path / "t.pgm", values, lo, hi)
    assert (tmp_path / "t.pgm").read_bytes() == _packed_pgm(values)


def test_the_working_set_of_the_grid_writers_does_not_grow_with_the_grid():
    excess = []
    for resolution in (256, 1024):
        xs = np.linspace(-4.0, 4.0, resolution)
        values = np.random.default_rng(resolution).normal(size=(resolution, resolution))
        lo, hi = float(values.min()), float(values.max())
        tracemalloc.start()
        try:
            write_grid_csv(os.devnull, xs, xs, values)
            write_pgm16(os.devnull, values, lo, hi)
            excess.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the writers of whole columns and whole grids give 4.2x
    assert excess[1] <= 1.25 * excess[0], excess


def test_write_csv_renders_every_column_kind_as_fmt_does(tmp_path):
    floats = np.array([0.1, -0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 0.1, -0.0, 2.5])
    cplx = floats * (1 - 1j)
    columns = [
        list(range(10)),
        np.arange(10, dtype=np.int64),
        floats,
        np.imag(cplx),  # a strided view
        [True, False] * 5,
        [Fraction(k, 3) for k in range(10)],
        ["a", "b"] * 5,
        floats.tolist(),
    ]
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_text() == _row_by_row_csv(header, zip(*columns))
    write_csv(tmp_path / "empty.csv", ["a", "b"], [[], np.array([])])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


def test_write_csv_refuses_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2, 3], np.array([0.5, 1.5])])


# (value, fmt(value))
SCALARS = [
    (1, "1"),
    (True, "true"),
    (False, "false"),
    (0.1, "0.10000000000000001"),
    (Fraction(1, 3), "1/3"),
    ("s", "s"),
    (None, "None"),
    (np.int64(-3), "-3"),
    (np.float64(2.5), "2.5"),
    (np.bool_(True), "True"),
    (np.array([1.5, -0.0]), "[ 1.5 -0. ]"),
]


@pytest.mark.parametrize("value,text", SCALARS)
def test_fmt_pins_each_kind_of_value(value, text):
    assert fmt(value) == text


def test_a_zero_dimensional_array_is_rendered_as_its_scalar():
    assert fmt(np.array(1.5)) == "1.5"


def test_write_json_writes_the_report_as_it_is(tmp_path):
    # tuples are lists and a float64 is the float it subclasses; a value
    # JSON has no type for is refused, not rendered as a string
    write_json(tmp_path / "r.json", {"b": (1, True, None), "a": np.float64(2.5), "c": "1/3"})
    assert (tmp_path / "r.json").read_text() == (
        '{\n "a": 2.5,\n "b": [\n  1,\n  true,\n  null\n ],\n "c": "1/3"\n}\n')
    with pytest.raises(TypeError):
        write_json(tmp_path / "f.json", {"rho": Fraction(1, 3)})


def _whole_column_csv(path, header, columns):
    """The writer before rows were rendered in chunks: every field of every
    column at once, each distinct float64 formatted once per column."""
    fields = []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            bits, where = np.unique(column.view(np.uint64), return_inverse=True)
            texts = [f"{v:.17g}" for v in bits.view(np.float64).tolist()]
            fields.append([texts[k] for k in where.tolist()])
        else:
            fields.append([fmt(v) for v in column])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*fields))


@pytest.mark.parametrize("length", [0, 1, CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS + 7])
def test_write_csv_in_chunks_equals_the_whole_column_writer(length, tmp_path):
    # a 7-value cycle, so equal values fall on both sides of each chunk boundary
    cycle = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, 1e-300])
    floats = np.resize(cycle, length)
    columns = [
        floats,
        floats.tolist(),
        np.resize(cycle[::-1], length),
        list(range(length)),
        [k % 3 == 0 for k in range(length)],
    ]
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "chunked.csv", header, columns)
    _whole_column_csv(tmp_path / "whole.csv", header, columns)
    text = (tmp_path / "chunked.csv").read_text()
    assert text == (tmp_path / "whole.csv").read_text()
    assert text.count("\n") == length + 1


def test_cap_threads_pins_blas_to_one_thread_unless_preset(monkeypatch):
    environ = {"OPENBLAS_NUM_THREADS": "3"}
    monkeypatch.setattr(cli.os, "environ", environ)
    cli._cap_threads()
    assert environ == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "3",
                       "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def test_the_exact_subcommands_load_no_numpy(tmp_path):
    from spectral_renorm.cohomology import SURFACES

    runs = [["schur-verify", "--group", g, "--level", "2", "--samples", "2"]
            for g in ("grigorchuk", "lamplighter", "hanoi")]
    runs += [["cohomology", "--surface", name, "--check"] for name in SURFACES]
    runs += [["conjugacy-verify", "--samples", "20"]]
    # an integer spectrum: the custom surface never reaches np.roots
    (tmp_path / "surface.json").write_text(json.dumps(SURFACE))
    runs += [["cohomology", "--surface-json", str(tmp_path / "surface.json"),
              "--invariant-classes", "1"]]
    script = ("import json, sys\n"
              "from spectral_renorm.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    print(main(argv + ['--out', sys.argv[2]]), 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0 False"] * len(runs) + [""]


def test_the_level_measure_subcommands_load_no_numpy(tmp_path):
    """``spectrum`` and ``dos-compare`` at the default --format run without
    numpy; the svg plots import it, and a run that asks for them still
    writes both spectrum plots."""
    runs = [["spectrum", "--group", g, "--level", "5"] for g in cli.GROUPS]
    runs += [["spectrum", "--group", "grigorchuk", "--level", "6", "--grig-slice", "0.37"]]
    runs += [["dos-compare", "--group", g] for g in cli.GROUPS]
    svg = ["spectrum", "--group", "hanoi", "--level", "4", "--format", "csv,json,svg"]
    script = ("import json, sys\n"
              "from spectral_renorm.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    print(main(argv + ['--out', sys.argv[2]]), 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs + [svg]), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0 False"] * len(runs) + ["0 True", ""]
    for plot in ("spectrum_hanoi_n4_cdf.svg", "spectrum_hanoi_n4_hist.svg"):
        assert (tmp_path / plot).read_text().startswith("<svg")


def test_hanoi_spectrum_rows_carry_exact_multiplicities(tmp_path):
    assert run_cli(["spectrum", "--group", "hanoi", "--level", "4"], tmp_path) == 0
    rows = [r.split(",") for r in
            (tmp_path / "spectrum_hanoi_n4.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 * 2 ** 3 - 1
    assert sum(int(k) for _, _, k in rows) == 3 ** 4
    assert [(v, k) for _, v, k in rows if v in ("-2", "0", "3")] == [
        ("-2", "13"), ("0", "15"), ("3", "1")]


def test_determinism_under_fixed_seed(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_cli(["schur-verify", "--group", "lamplighter", "--level", "3",
                 "--samples", "5", "--seed", "9"], out)
        run_cli(["spectrum", "--group", "hanoi", "--level", "3", "--seed", "9"], out)
        blob = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_schur_verify_exit_codes(tmp_path):
    assert run_cli(["schur-verify", "--group", "grigorchuk", "--level", "3",
                    "--samples", "3"], tmp_path) == 0
    # level below the recursion start: budget/config error
    assert run_cli(["schur-verify", "--group", "grigorchuk", "--level", "1",
                    "--samples", "3"], tmp_path) == 2


def test_budget_errors_exit_2(tmp_path):
    assert run_cli(["julia", "--depth", "40"], tmp_path) == 2
    assert run_cli(["potential-grid", "--group", "hanoi", "--resolution", "5000",
                    "--iters", "3"], tmp_path) == 2
    assert run_cli(["experiment", "--kind", "twist", "--n", "900"], tmp_path) == 2


def test_verification_commands_pass(tmp_path):
    assert run_cli(["conjugacy-verify", "--samples", "15"], tmp_path) == 0
    assert run_cli(["maps-verify"], tmp_path) == 0
    assert run_cli(["cohomology", "--surface", "lamplighter2", "--check"], tmp_path) == 0
    report = json.loads((tmp_path / "cohomology_lamplighter2.json").read_text())
    assert report["check"]["spectral_radius"] == "1"
    assert report["check"]["jordan_block"] is True


def test_invariant_class_flag(tmp_path):
    assert run_cli(["cohomology", "--surface", "hanoi4",
                    "--invariant-classes", "2"], tmp_path) == 0
    report = json.loads((tmp_path / "cohomology_hanoi4.json").read_text())
    assert report["invariant_classes"]["candidates"] == [[2, 1, 1, -1, -1]]


@pytest.mark.parametrize("name, iters, seed, degrees", [
    ("R_H", "6", "443", [4, 10, 22, 46, 94, 190]),
    ("R_G", "7", "175", [3, 7, 15, 31, 63, 127, 255]),
])
def test_dyndeg_writes_the_reference_degrees_at_seeds_that_drew_special_lines(
        name, iters, seed, degrees, tmp_path):
    """Narrow lines made these two seeds short of deg R^n; wide lines are
    generic."""
    assert run_cli(["dyndeg", "--map", name, "--iters", iters, "--trials", "3",
                    "--seed", seed, "--format", "csv,json"], tmp_path) == 0
    report = json.loads((tmp_path / f"dyndeg_{name}.json").read_text())
    assert report["degrees"] == degrees
    assert report["primes"] == [2 ** 31 - 1, 2 ** 31 - 19]
    rows = (tmp_path / f"dyndeg_{name}.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == degrees


def test_help_lists_every_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_renorm.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("spectrum", "dos-compare", "schur-verify", "conjugacy-verify",
                 "dyndeg", "cohomology", "potential-grid", "julia", "experiment"):
        assert name in proc.stdout


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 3\n# comment\n")
    rc = main(["--config", str(cfg), "spectrum", "--group", "hanoi",
               "--level", "2", "--out", str(tmp_path)])
    assert rc == 0
    # explicit flag wins over the config value
    assert (tmp_path / "spectrum_hanoi_n2.csv").exists()


def test_config_supplies_a_required_option(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = hanoi\n")
    assert main(["--config", str(cfg), "spectrum", "--level", "3",
                 "--out", str(tmp_path / "config")]) == 0
    assert main(["spectrum", "--group", "hanoi", "--level", "3",
                 "--out", str(tmp_path / "flag")]) == 0
    names = sorted(p.name for p in (tmp_path / "flag").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "config").iterdir())
    for name in names:
        assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
    # a flag still overrides the config value
    assert main(["--config", str(cfg), "spectrum", "--group", "lamplighter", "--level", "3",
                 "--out", str(tmp_path / "override")]) == 0
    assert sorted(p.name for p in (tmp_path / "override").iterdir()) == [
        "spectrum_lamplighter_n3.csv", "spectrum_lamplighter_n3.json"]
    # a config that lacks the key leaves the option required
    cfg.write_text("level = 3\n")
    assert main(["--config", str(cfg), "spectrum", "--out", str(tmp_path / "none")]) == 2
    assert "--group" in json.loads(capsys.readouterr().err)["error"]


def test_config_values_reach_the_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 2\n")
    for out, flags, expected in (("a", [], 2), ("b", ["--samples", "3"], 3)):
        rc = main(["--config", str(cfg), "schur-verify", "--group", "hanoi", "--level", "2",
                   "--out", str(tmp_path / out)] + flags)
        assert rc == 0
        report = json.loads((tmp_path / out / "schur_hanoi_n2.json").read_text())
        assert report["samples"] == expected and len(report["points"]) == expected


def test_config_flags_take_true_or_false(tmp_path):
    cfg = tmp_path / "run.cfg"
    for value, checked in (("false", False), ("true", True)):
        cfg.write_text(f"check = {value}\n")
        out = tmp_path / value
        rc = main(["--config", str(cfg), "cohomology", "--surface", "hanoi4",
                   "--invariant-classes", "2", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "cohomology_hanoi4.json").read_text())
        assert ("check" in report) is checked


def test_config_value_that_does_not_convert_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line, command in (("samples = two", ["schur-verify", "--group", "hanoi", "--level", "2"]),
                          ("check = yes", ["cohomology", "--surface", "hanoi4"])):
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg)] + command + ["--out", str(tmp_path)]) == 2
        assert "error" in json.loads(capsys.readouterr().err)


def test_schur_verify_above_the_level_cap_exits_2(tmp_path, capsys):
    assert run_cli(["schur-verify", "--group", "hanoi", "--level", "6"], tmp_path) == 2
    assert "budget" in json.loads(capsys.readouterr().err)["error"]


def test_non_finite_grig_slice_exits_2(tmp_path):
    for value in ("inf", "nan"):
        assert run_cli(["spectrum", "--group", "grigorchuk", "--level", "3",
                        "--grig-slice", value], tmp_path) == 2


# (command, artifact, key, value): each value starts with "-"
MINUS_VALUES = [
    (["potential-grid", "--group", "hanoi", "--window", "-4,4,-4,4", "--resolution", "4",
      "--iters", "2"], "potential_hanoi_r4_n2.json", "window", [-4.0, 4.0, -4.0, 4.0]),
    (["julia", "--poly", "-1,1,3", "--depth", "2"], "julia_d2.json", "poly", [-1.0, 1.0, 3.0]),
    (["spectrum", "--group", "grigorchuk", "--level", "3", "--grig-slice", "-1e150"],
     "spectrum_grigorchuk_n3.json", "slice", "lam=-1e+150, x=(mu+1)/4"),
    (["experiment", "--kind", "backward-square", "--seed-point", "-1+2j", "--n", "2"],
     "experiment_backward-square.json", "params", {"depth": 2, "seed_point": "-1+2j"}),
]


@pytest.mark.parametrize("command, artifact, key, value", MINUS_VALUES)
def test_a_value_starting_with_a_minus_sign_is_read_as_a_value(command, artifact, key, value,
                                                               tmp_path):
    assert run_cli(command, tmp_path) == 0
    assert json.loads((tmp_path / artifact).read_text())[key] == value


def test_experiment_backward_outputs(tmp_path):
    rc = run_cli(["experiment", "--kind", "backward-cheb", "--n", "10",
                  "--seed-point", "0.3", "--format", "csv,json,svg"], tmp_path)
    assert rc == 0
    series = (tmp_path / "experiment_backward-cheb.csv").read_text().splitlines()
    assert series[0] == "depth,distance,metric"
    assert len(series) == 11
    summary = json.loads((tmp_path / "experiment_backward-cheb.json").read_text())
    assert summary["distances"][-1] < 0.05


@pytest.mark.parametrize("kind", cli.build_parser().subcommands["experiment"]
                         ._option_string_actions["--kind"].choices)
def test_every_experiment_kind_runs_with_its_defaults(kind, tmp_path):
    assert run_cli(["experiment", "--kind", kind], tmp_path) == 0
    assert json.loads((tmp_path / f"experiment_{kind}.json").read_text())["kind"] == kind


def test_pgm_heatmap_written(tmp_path):
    rc = run_cli(["potential-grid", "--group", "lamplighter", "--window=-3,3,-3,3",
                  "--resolution", "24", "--iters", "6"], tmp_path)
    assert rc == 0
    pgm = (tmp_path / "potential_lamplighter_r24_n6.pgm").read_bytes()
    assert pgm.startswith(b"P5\n24 24\n65535\n")
    assert len(pgm) == len(b"P5\n24 24\n65535\n") + 24 * 24 * 2


def test_pgm_bytes_equal_the_packed_big_endian_words(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(40, 56))
    values[3, 5], values[7, 0] = np.nan, -np.inf
    finite = values[np.isfinite(values)]
    write_pgm16(tmp_path / "t.pgm", values, float(finite.min()), float(finite.max()))
    pgm = (tmp_path / "t.pgm").read_bytes()
    assert pgm.startswith(b"P5\n56 40\n65535\n") and pgm == _packed_pgm(values)


def test_julia_rejects_a_zero_or_non_finite_polynomial(tmp_path, capsys):
    for poly in ("0,0,1", "nan,0,1", "1,inf,-3", "1,-1,-inf"):
        assert run_cli(["julia", "--poly", poly, "--depth", "2"], tmp_path) == 2
        assert "error" in json.loads(capsys.readouterr().err)
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_renorm.cli", "julia", "--poly", "0,0,1",
         "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "quadratic" in json.loads(proc.stderr)["error"]


def test_internal_error_exits_3_with_a_json_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise ZeroDivisionError("a defect")

    monkeypatch.setitem(cli._HANDLERS, "julia", broken)
    assert run_cli(["julia"], tmp_path) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    message = json.loads(err)["error"]
    assert message.startswith("internal error: ZeroDivisionError: a defect (at test_cli.py:")
    assert message.endswith(" in broken)")


BAD_INPUT = [
    (None, ["dyndeg", "--map", "R_G", "--trials", "0"]),
    (None, ["dyndeg", "--map", "R_G", "--iters", "-1"]),
    (None, ["cohomology", "--surface-json", "{tmp}/missing.json"]),
    (None, ["cohomology", "--surface", "hanoi4", "--invariant-classes", "-1"]),
    (None, ["schur-verify", "--group", "hanoi", "--level", "3", "--samples", "0"]),
    (None, ["schur-verify", "--group", "hanoi", "--level", "3", "--samples", "-1"]),
    (None, ["conjugacy-verify", "--samples", "-1"]),
    (None, ["julia", "--depth", "-1"]),
    (None, ["julia", "--mode", "nope"]),
    (None, ["potential-grid", "--group", "hanoi", "--iters", "-1"]),
    (None, ["potential-grid", "--group", "hanoi", "--window=1,1,0,1"]),
    (None, ["potential-grid", "--group", "hanoi", "--window=0,1,2,-2"]),
    (None, ["experiment", "--kind", "backward-square", "--n", "0"]),
    ("trials = 0", ["dyndeg", "--map", "R_G"]),
    ("iters = -1", ["potential-grid", "--group", "hanoi"]),
    ("samples = 0", ["schur-verify", "--group", "hanoi", "--level", "3"]),
    (None, ["--config", "{tmp}/missing.cfg", "julia"]),
    (None, ["spectrum", "--group", "grigorchuk", "--level", "13"]),
    (None, ["schur-verify", "--group", "hanoi", "--level", "6"]),
    (None, ["julia", "--depth", "40"]),
    (None, ["julia", "--mode", "random_walk",
            "--depth", str(BUDGETS["julia"]["--depth"]["random_walk"] + 1)]),
    (None, ["julia", "--mode", "random_walk", "--depth", "100000000"]),
    # 2a overflows, so the fixed point is nan; (b - 1)^2 overflows
    (None, ["julia", "--poly=1e308,0,-1e308", "--depth", "4"]),
    (None, ["julia", "--poly=1,1e308,0"]),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "3..9"]),
    (None, ["experiment", "--kind", "backward-square",
            "--n", str(BUDGETS["experiment"]["--n"]["backward-square"] + 1)]),
    (None, ["experiment", "--kind", "backward-cantor",
            "--n", str(BUDGETS["experiment"]["--n"]["backward-cantor"] + 1)]),
    (None, ["potential-grid", "--group", "hanoi", "--iters", "0"]),
    (None, ["spectrum", "--group", "hanoi", "--level", "2", "--format", "jsn"]),
    (None, ["experiment", "--kind", "skew", "--eta0", "nan"]),
    (None, ["experiment", "--kind", "backward-cantor", "--seed-point", "nan"]),
    (None, ["experiment", "--kind", "backward-square", "--seed-point", "inf"]),
    (None, ["experiment", "--kind", "backward-square", "--seed-point", "1e308+1e308j",
            "--n", "5"]),
    (None, ["experiment", "--kind", "backward-cantor", "--seed-point", "1e308", "--n", "5"]),
    (None, ["spectrum", "--group", "grigorchuk", "--level", "3", "--grig-slice", "1e200"]),
    (None, ["potential-grid", "--group", "hanoi", "--window=-inf,0,0,1", "--resolution", "4",
            "--iters", "2"]),
    (None, ["potential-grid", "--group", "hanoi", "--window=0,inf,0,1", "--resolution", "4",
            "--iters", "2"]),
    (None, ["potential-grid", "--group", "hanoi", "--window=-1e308,1e308,0,1", "--resolution",
            "4", "--iters", "2"]),
    (None, ["potential-grid", "--group", "hanoi", "--window=0,1,-1e308,1e308", "--resolution",
            "4", "--iters", "2"]),
    (None, ["schur-verify", "--group", "hanoi", "--level", "3",
            "--samples", str(BUDGETS["schur-verify"]["--samples"] + 1)]),
    (None, ["conjugacy-verify", "--samples", str(BUDGETS["conjugacy-verify"]["--samples"] + 1)]),
    (None, ["dyndeg", "--map", "R_G", "--trials", str(BUDGETS["dyndeg"]["--trials"] + 1)]),
    (None, ["potential-grid", "--group", "hanoi",
            "--iters", str(BUDGETS["potential-grid"]["--iters"] + 1)]),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "3.."]),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "x"]),
    ("levels = x", ["dos-compare", "--group", "hanoi"]),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "3..1000000000000000000"]),
    (None, ["schur-verify", "--group", "hanoi", "--level", "2", "--seed", "-1"]),
    (None, ["dyndeg", "--map", "R_G", "--seed", "-1"]),
    (None, ["spectrum", "--group", "hanoi", "--level", "2", "--seed", "-1"]),
    (None, ["julia", "--mode", "random_walk", "--seed", "-1"]),
    (None, ["conjugacy-verify", "--seed", "-1"]),
    ("seed = -1", ["julia"]),
    (None, ["cohomology", "--surface", "hanoi4", "--surface-json", "{tmp}/surface.json"]),
    (None, ["cohomology", "--surface-json", "{tmp}/surface.json", "--check"]),
    ("surface = hanoi4", ["cohomology", "--surface-json", "{tmp}/surface.json"]),
    ("check = true", ["cohomology", "--surface-json", "{tmp}/surface.json"]),
    (None, ["spectrum", "--group", "hanoi", "--level", "3", "--grig-slice", "nan"]),
    (None, ["spectrum", "--group", "lamplighter", "--level", "3", "--grig-slice", "-1"]),
    ("grig_slice = -1", ["spectrum", "--group", "hanoi", "--level", "3"]),
]


@pytest.mark.parametrize("config, command", BAD_INPUT)
def test_bad_input_exits_2_with_one_json_error(config, command, tmp_path, capsys):
    (tmp_path / "surface.json").write_text(json.dumps(SURFACE))
    argv = [arg.format(tmp=tmp_path) for arg in command] + ["--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = ["--config", str(tmp_path / "run.cfg")] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert set(json.loads(captured.err)) == {"error"}
    assert not (tmp_path / "out").exists()


# the options a budgeted subcommand needs besides the budgeted one (a later
# flag overrides), and the option whose value selects a cap given per value
REQUIRED = {"schur-verify": ["--group", "hanoi", "--level", "2"], "dyndeg": ["--map", "R_G"],
            "potential-grid": ["--group", "hanoi"]}
SELECTOR = {"spectrum": "--group", "dos-compare": "--group", "schur-verify": "--group",
            "julia": "--mode", "experiment": "--kind"}
BUDGET_CASES = [
    pytest.param([command, *REQUIRED.get(command, []), *([SELECTOR[command], selected]
                                                         if selected else [])], flag, cap,
                 id=f"{command} {flag} {selected or ''}".strip())
    for command, row in BUDGETS.items() for flag, caps in row.items()
    for selected, cap in (caps.items() if isinstance(caps, dict) else [(None, caps)])
]


@pytest.mark.parametrize("command, flag, cap", BUDGET_CASES)
def test_a_budget_admits_its_cap_and_refuses_one_more_before_the_handler(
        command, flag, cap, tmp_path, capsys, monkeypatch):
    entered = []
    monkeypatch.setitem(cli._HANDLERS, command[0], lambda args: entered.append(args) or (0, {}))
    ranged = flag == "--levels"
    assert main(command + [flag, f"1..{cap}" if ranged else str(cap),
                           "--out", str(tmp_path / "ok")]) == 0
    assert len(entered) == 1
    # a level range is refused by either end
    for value in [f"1..{cap + 1}", f"{cap + 1}..{cap + 3}"] if ranged else [str(cap + 1)]:
        assert main(command + [flag, value, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        message = json.loads(captured.err)["error"]
        assert message.startswith(f"argument {flag}: {cap + 1} is above the budget {cap}")
    assert len(entered) == 1
    assert not (tmp_path / "out").exists()


# bounds of the mathematics or of float and int64 overflow, not of cost
DOMAIN_BOUNDS = {"DECIMATION_MAX_LEVEL", "GRIG_SLICE_MAX", "SEED_POINT_MAX", "MUL_MAX_SHORTER"}


def test_every_cost_cap_is_a_row_of_the_budget_table():
    package = Path(cli.__file__).parent
    caps = []
    for file in sorted(package.rglob("*.py")):
        if file == Path(cli.__file__):
            continue
        for node in ast.walk(ast.parse(file.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            caps += [f"{file.relative_to(package)}: {t.id}" for t in targets
                     if isinstance(t, ast.Name) and t.id.isupper()
                     and re.search(r"(^|_)MAX(_|$)|BUDGET", t.id) and t.id not in DOMAIN_BOUNDS]
    assert not caps, "a cap outside cli.BUDGETS:\n" + "\n".join(caps)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("text, named", [
    ("[1, 2]", "object"),
    ('{"k": 2}', "'incidences'"),
    ('{"incidences": [true, true]}', "'F_star'"),
    ('{"incidences": "ab", "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]]}', "'incidences'"),
    ('{"incidences": [true, true], "F_star": 5}', "'F_star'"),
    ('{"incidences": [true, true], "F_star": [1, 2, 3]}', "'F_star'"),
    ('{"incidences": [true, true], "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]], "k": [2]}',
     "'k'"),
    ('{"incidences": [true, true], "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]], "d_top": [1]}',
     "'d_top'"),
    ('{"incidences": ["no", 0], "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]]}', "'incidences'"),
    ('{"incidences": [true, 1], "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]]}', "'incidences'"),
    ('{"incidences": [true, true], "F_star": [[false, true, true], [0, 1, 0], [0, 1, 1]]}',
     "'F_star'"),
    ('{"incidences": [true, true], "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]], "k": true}',
     "'k'"),
    ('{"incidences": [true, true], "F_star": [[0, 1, 1], [0, 1, 0], [0, 1, 1]], "d_top": false}',
     "'d_top'"),
    # one above each cap of a surface
    (json.dumps({"incidences": [True, False],
                 "F_star": [[0, 0, SURFACE_JSON_BUDGET["max_row_sum"] + 1], [0, 1, 0],
                            [1, 0, 0]]}), "'F_star'"),
    (json.dumps({"incidences": [False] * (SURFACE_JSON_BUDGET["max_points"] + 1),
                 "F_star": identity(SURFACE_JSON_BUDGET["max_points"] + 2)}), "'incidences'"),
])
def test_a_malformed_surface_json_exits_2_naming_the_key(text, named, tmp_path, capsys):
    (tmp_path / "surface.json").write_text(text)
    assert main(["cohomology", "--surface-json", str(tmp_path / "surface.json"),
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert named in json.loads(captured.err)["error"]
    assert not (tmp_path / "out").exists()


def test_a_surface_json_is_refused_above_its_caps_at_once_and_admitted_at_them(tmp_path):
    """The integer-root search once ran up to the square root of the
    characteristic polynomial's constant term, so the first F_* here did not
    finish in 20 s.  Its largest absolute row sum is above the cap."""
    points, row_sum = SURFACE_JSON_BUDGET["max_points"], SURFACE_JSON_BUDGET["max_row_sum"]

    def run(incidences, f_star):
        (tmp_path / "surface.json").write_text(json.dumps(
            {"incidences": incidences, "F_star": f_star}))
        return main(["cohomology", "--surface-json", str(tmp_path / "surface.json"),
                     "--out", str(tmp_path / "out")])

    start = time.perf_counter()
    assert run([True, False], [[1000003, 7, 0], [5, 999983, 2], [0, 3, 1000033]]) == 2
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "out").exists()
    assert run([True, False], [[0, 0, row_sum], [0, 1, 0], [1, 0, 0]]) == 0
    assert run([False] * points, identity(points + 1)) == 0


@pytest.mark.parametrize("levels", ["3..", "x", "3..5..7"])
def test_a_malformed_level_range_is_refused_by_name(levels, tmp_path, capsys):
    assert run_cli(["dos-compare", "--group", "hanoi", "--levels", levels], tmp_path / "out") == 2
    assert "--levels" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "out").exists()


def test_grig_slice_beyond_its_bound_is_refused_by_name(tmp_path, capsys):
    assert run_cli(["spectrum", "--group", "grigorchuk", "--level", "3",
                    "--grig-slice", "1e200"], tmp_path / "out") == 2
    assert "--grig-slice" in json.loads(capsys.readouterr().err)["error"]
    assert run_cli(["spectrum", "--group", "grigorchuk", "--level", "3",
                    "--grig-slice", "1e150"], tmp_path / "ok") == 0


@pytest.mark.parametrize("config, command, named", [
    (None, ["potential-grid", "--group", "hanoi", "--window=0,1,x,1"], "--window"),
    (None, ["potential-grid", "--group", "hanoi", "--window=0,1,2"], "--window"),
    (None, ["potential-grid", "--group", "hanoi", "--window=1,1,0,1"], "--window"),
    (None, ["potential-grid", "--group", "hanoi", "--window=0,inf,0,1"], "--window"),
    (None, ["julia", "--poly", "1,x,3"], "--poly"),
    (None, ["julia", "--poly", "1,2"], "--poly"),
    ("window = 0,1,x,1", ["potential-grid", "--group", "hanoi"], "config window"),
    ("poly = 1,x,3", ["julia"], "config poly"),
    (None, ["experiment", "--kind", "backward-square", "--seed-point", "x"], "--seed-point"),
    (None, ["experiment", "--kind", "backward-cantor", "--seed-point", "1+2j"], "--seed-point"),
    (None, ["experiment", "--kind", "backward-cheb", "--seed-point", "0.3j"], "--seed-point"),
    ("seed-point = x", ["experiment", "--kind", "backward-square"], "config seed_point"),
    ("seed-point = 1+2j", ["experiment", "--kind", "backward-cantor"], "--seed-point"),
    (None, ["cohomology", "--surface-json", "s.json", "--surface", "hanoi4"],
     "--surface-json: not allowed with argument --surface"),
    (None, ["cohomology", "--surface-json", "s.json", "--check"],
     "--surface-json: not allowed with argument --check"),
    ("surface = hanoi4", ["cohomology", "--surface-json", "s.json"],
     "--surface-json: not allowed with argument --surface"),
    ("check = true", ["cohomology", "--surface-json", "s.json"],
     "--surface-json: not allowed with argument --check"),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "3..4"], "argument --levels: "),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "7..7"], "argument --levels: "),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "5..3"], "argument --levels: "),
    ("levels = 3..4", ["dos-compare", "--group", "hanoi"],
     "config levels: '3..4' has fewer than 3 levels to fit a rate"),
    ("levels = 5..3", ["dos-compare", "--group", "hanoi"],
     "config levels: '5..3' has fewer than 3 levels to fit a rate"),
    (None, ["spectrum", "--group", "hanoi", "--level", "3", "--grig-slice", "nan"],
     "argument --grig-slice: not allowed with --group hanoi"),
    (None, ["spectrum", "--group", "lamplighter", "--level", "3", "--grig-slice", "-1"],
     "argument --grig-slice: not allowed with --group lamplighter"),
    ("grig_slice = -1", ["spectrum", "--group", "hanoi", "--level", "3"],
     "argument --grig-slice: not allowed with --group hanoi"),
])
def test_a_malformed_window_or_poly_is_refused_by_name(config, command, named, tmp_path,
                                                       capsys):
    argv = command + ["--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = ["--config", str(tmp_path / "run.cfg")] + argv
    assert main(argv) == 2
    assert named in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "out").exists()


def test_an_out_that_cannot_be_a_directory_exits_2_naming_out(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "file", tmp_path / "file" / "sub"):
        assert main(["julia", "--depth", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "--out" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("error,status", [(OSError(28, "No space left on device"), 2),
                                          (RuntimeError("a defect"), 3)],
                         ids=["oserror-exits-2", "defect-exits-3"])
def test_a_failing_writer_leaves_none_of_the_runs_artifacts(error, status, tmp_path, capsys,
                                                            monkeypatch):
    from spectral_renorm import output

    def failing_json(path, obj):
        assert (path.parent / "spectrum_hanoi_n3.csv").exists()  # the csv came first
        path.write_text("{")
        raise error

    monkeypatch.setattr(output, "write_json", failing_json)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "earlier.txt").write_text("from an earlier run\n")
    command = ["spectrum", "--group", "hanoi", "--level", "3", "--format", "csv,json,svg"]
    assert main(command + ["--out", str(kept)]) == status
    assert [f.name for f in kept.iterdir()] == ["earlier.txt"]
    assert (kept / "earlier.txt").read_text() == "from an earlier run\n"
    fresh = tmp_path / "fresh" / "out"
    assert main(command + ["--out", str(fresh)]) == status
    assert not (tmp_path / "fresh").exists()
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and all("error" in json.loads(line) for line in errors)


# a cheap run of every subcommand; experiment has two kinds of artifacts
FORMAT_CASES = [
    ["spectrum", "--group", "hanoi", "--level", "3"],
    ["dos-compare", "--group", "hanoi", "--levels", "2..4"],
    ["schur-verify", "--group", "hanoi", "--level", "2", "--samples", "1"],
    ["conjugacy-verify", "--samples", "2"],
    ["maps-verify"],
    ["dyndeg", "--map", "R_G", "--iters", "2", "--trials", "1"],
    ["cohomology", "--surface", "hanoi4", "--invariant-classes", "2"],
    ["potential-grid", "--group", "hanoi", "--resolution", "4", "--iters", "3"],
    ["julia", "--depth", "3"],
    ["experiment", "--kind", "twist", "--n", "3"],
    ["experiment", "--kind", "backward-cheb", "--n", "2"],
]


@pytest.mark.parametrize("command", FORMAT_CASES, ids=lambda command: command[0])
def test_a_single_format_writes_that_subset_of_the_full_run(command, tmp_path):
    written = {}
    for formats in ("csv,json,svg", "json", "csv"):
        out = tmp_path / formats
        assert run_cli(command + ["--format", formats], out) == 0
        written[formats] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert written["csv,json,svg"]
    for single in ("json", "csv"):
        subset = {name: data for name, data in written["csv,json,svg"].items()
                  if name.endswith((f".{single}", ".pgm"))}
        assert written[single] == subset
