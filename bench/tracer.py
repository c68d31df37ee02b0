"""Run one ``spectral_renorm.cli`` command with spans around every layer call.

    python bench/tracer.py SPANS_FILE CLI_ARG...

The package itself has no tracing.  This script imports every module of
``spectral_renorm``, replaces each public function with a wrapper that
records a span, and then calls ``spectral_renorm.cli.main`` with the given
arguments.  A function is replaced on its defining module and on every
module that bound it by ``from ... import`` (``pencils.det_exact``,
``degrees.binary_forms_gcd``, ...), so calls through either name are seen.
``MultiPoly.__mul__`` is wrapped too, being the hot path of the exact
conjugacy identities.  Spans are kept in memory and written to SPANS_FILE as
JSON when the command ends; the exit status is the command's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

# Per-element helpers called from inside a layer's loops; wrapping them would
# record a span per CSV field.  Their time stays in the caller's self time.
UNWRAPPED = {"output.fmt"}


def layer_of(module_name: str) -> str:
    """``spectral_renorm.ratmaps.poly`` -> ``ratmaps``."""
    return module_name.split(".")[1] if "." in module_name else module_name


class Recorder:
    """Spans, the stack of open spans, and the counters of one operation."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [-1]
        self.sums: dict = {}
        self.maxima: dict = {}

    def add(self, key: str, value) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def high(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _frac_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _count_det(rec: Recorder, args, kwargs, result) -> None:
    from fractions import Fraction

    matrix = _arg(args, kwargs, 0, "matrix")
    rec.high("exact.det_exact.max_size", len(matrix))
    rec.high("exact.det_exact.max_entry_bits",
             max((_frac_bits(Fraction(x)) for row in matrix for x in row), default=0))
    rec.high("exact.det_exact.max_result_bits", _frac_bits(result))


def _count_eigh(rec: Recorder, args, kwargs, result) -> None:
    n = len(_arg(args, kwargs, 0, "matrix"))
    rec.high("spectra.sym_eigenvalues.max_size", n)
    # Golub & Van Loan's count for the symmetric QR with eigenvectors: 9 n^3.
    rec.add("spectra.sym_eigenvalues.flops_computed", 9 * n ** 3)


def _count_gcd(rec: Recorder, args, kwargs, result) -> None:
    forms = _arg(args, kwargs, 0, "forms")
    bits = max((abs(c).bit_length() for f in forms for c in f.coeffs), default=0)
    rec.high("ratmaps.max_coeff_bits", bits)


def _count_grid(rec: Recorder, args, kwargs, result) -> None:
    rec.add("ratmaps.potential_grid.cells", _arg(args, kwargs, 2, "resolution") ** 2)


def _count_write(rec: Recorder, args, kwargs, result) -> None:
    rec.add("output.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


COUNTERS = {
    "exact.det_exact": _count_det,
    "spectra.sym_eigenvalues": _count_eigh,
    "ratmaps.binary_forms_gcd": _count_gcd,
    "ratmaps.potential_grid": _count_grid,
}


def package_modules() -> list:
    """The package and every module in it except the command-line front end."""
    import spectral_renorm

    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(spectral_renorm.__path__, "spectral_renorm.")]
    return [spectral_renorm] + [m for m in modules if layer_of(m.__name__) != "cli"]


def install(rec: Recorder, modules: list) -> None:
    """Wrap the package's public functions and rebind every name bound to them."""
    wrapped: dict = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer_of(module.__name__)}.{attr}"
            if name in UNWRAPPED:
                continue
            count = _count_write if name.startswith("output.") else COUNTERS.get(name)
            wrapped[id(obj)] = rec.wrap(name, obj, count)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])

    from spectral_renorm.ratmaps.poly import MultiPoly

    mul = rec.wrap("ratmaps.MultiPoly.mul", MultiPoly.__mul__)
    MultiPoly.__mul__ = mul
    MultiPoly.__rmul__ = mul


def main(argv: list) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    from spectral_renorm import cli

    cli._cap_threads()  # before numpy is imported, as an untraced run does
    modules = package_modules()
    rec = Recorder()
    start = time.perf_counter()
    install(rec, modules)
    rec.spans.append(["trace.install", start, time.perf_counter(), -1])
    try:
        status = cli.main(cli_args)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"spans": rec.spans, "sums": rec.sums, "maxima": rec.maxima}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
