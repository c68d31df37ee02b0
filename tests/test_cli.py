"""CLI behaviors: artifacts, determinism, exit codes."""

import json
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from spectral_renorm import cli, experiments, spectra
from spectral_renorm.cli import main
from spectral_renorm.output import fmt, write_csv, write_pgm16
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
    write_pgm16(tmp_path / "t.pgm", values)
    finite = values[np.isfinite(values)]
    lo, hi = finite.min(), finite.max()
    words = [0 if not np.isfinite(v) else int(1 + (v - lo) / (hi - lo) * 65534)
             for v in values.ravel()]
    expected = b"P5\n56 40\n65535\n" + struct.pack(f">{len(words)}H", *words)
    assert (tmp_path / "t.pgm").read_bytes() == expected


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
            "--depth", str(spectra.JULIA_DEPTH_MAX["random_walk"] + 1)]),
    (None, ["julia", "--mode", "random_walk", "--depth", "100000000"]),
    (None, ["dos-compare", "--group", "hanoi", "--levels", "3..9"]),
    (None, ["experiment", "--kind", "backward-square",
            "--n", str(experiments.BACKWARD_DEPTH_MAX + 1)]),
    (None, ["experiment", "--kind", "backward-cantor",
            "--n", str(experiments.BACKWARD_DEPTH_MAX + 1)]),
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
]


@pytest.mark.parametrize("config, command", BAD_INPUT)
def test_bad_input_exits_2_with_one_json_error(config, command, tmp_path, capsys):
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
])
def test_a_malformed_surface_json_exits_2_naming_the_key(text, named, tmp_path, capsys):
    (tmp_path / "surface.json").write_text(text)
    assert main(["cohomology", "--surface-json", str(tmp_path / "surface.json"),
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert named in json.loads(captured.err)["error"]
    assert not (tmp_path / "out").exists()


def test_grig_slice_beyond_its_bound_is_refused_by_name(tmp_path, capsys):
    assert run_cli(["spectrum", "--group", "grigorchuk", "--level", "3",
                    "--grig-slice", "1e200"], tmp_path / "out") == 2
    assert "--grig-slice" in json.loads(capsys.readouterr().err)["error"]
    assert run_cli(["spectrum", "--group", "grigorchuk", "--level", "3",
                    "--grig-slice", "1e150"], tmp_path / "ok") == 0
