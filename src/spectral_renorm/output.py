"""Deterministic artifact writers: CSV, JSON, SVG plots, 16-bit PGM.

Everything here is byte-deterministic for identical inputs: numeric CSV
fields are printed with 17 significant digits, JSON keys are sorted, and the
SVG plots are assembled from explicit element strings (no plotting library,
no timestamps, no generated ids).  Each writer takes its path first and
writes into a directory that exists.

The table and image writers stream: ``write_csv`` renders and writes
``CSV_CHUNK_ROWS`` rows at a time, and ``write_grid_csv`` and
``write_pgm16`` write a grid of values a block of whole grid rows at a
time, a block holding about ``CSV_CHUNK_ROWS`` cells, so their working
memory is set by the block and not by the table or the grid.  The JSON and
SVG writers build their whole text before writing it.

Importing this module does not import numpy, so the exact subcommands,
``spectrum`` and ``dos-compare`` run without it at the default --format.
Numpy scalars and arrays are recognised through the numpy module that
created them (``_number_types``), and only the writers that take arrays
(the SVG plots, ``write_pgm16`` and the float64 columns of ``write_csv``)
import numpy, which is loaded whenever they run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Sequence

# Rows rendered at a time by ``write_csv``, and about the cells per block of
# the grid writers: memory holds one chunk's fields.
CSV_CHUNK_ROWS = 16384


def _number_types() -> tuple:
    """(integer types, float types, array types) for ``isinstance``.  A value
    is a numpy scalar or array only once numpy is loaded, so the numpy types
    join the builtins only then, and these type tests never import numpy."""
    np = sys.modules.get("numpy")
    if np is None:
        return int, float, ()
    return (int, np.integer), (float, np.floating), np.ndarray


def fmt(x) -> str:
    """17-significant-digit rendering of numbers; strings pass through."""
    if isinstance(x, bool):
        return "true" if x else "false"
    ints, floats, _arrays = _number_types()
    if isinstance(x, ints):
        return str(int(x))
    if isinstance(x, floats):
        return f"{float(x):.17g}"
    return str(x)


def _csv_fields(column) -> list:
    """The CSV fields of one column, each as ``fmt`` renders it.  A float64
    array has each distinct value formatted once; values are told apart by
    their bits, so -0.0 and 0.0 keep their own fields."""
    if isinstance(column, _number_types()[2]) and column.dtype == "float64":
        import numpy as np

        bits, where = np.unique(column.view(np.uint64), return_inverse=True)
        fields = [f"{v:.17g}" for v in bits.view(np.float64).tolist()]
        return [fields[k] for k in where.tolist()]
    return [fmt(v) for v in column]


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """CSV with a header line and one row per index; ``columns`` holds one
    sequence of values per header field, all of one length.  Rows are
    rendered and written ``CSV_CHUNK_ROWS`` at a time.  Columns of
    different lengths raise ``ValueError``."""
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, length, CSV_CHUNK_ROWS):
            fields = [_csv_fields(c[start:start + CSV_CHUNK_ROWS]) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*fields))


def _grid_rows(values) -> int:
    """Grid rows per block of the grid writers: about ``CSV_CHUNK_ROWS``
    cells, and at least one row."""
    return max(1, CSV_CHUNK_ROWS // values.shape[1])


def write_grid_csv(path, xs, ys, values) -> None:
    """CSV of a float64 grid: a header ``x,y,value`` and one row per cell in
    row-major order, cell (i, j) being the point (xs[j], ys[i]) with value
    ``values[i, j]``; each field is what ``fmt`` gives.  One ``%`` template
    holds the x fields of a grid row, so each x is formatted once per grid
    and each y once per row, and the values are read ``_grid_rows`` rows at
    a time."""
    # b"%.17g" % v is f"{v:.17g}" in ASCII, nan and the infinities included
    template = "".join(f"{x:.17g},%s,%.17g\n" for x in xs.tolist()).encode()
    step = _grid_rows(values)
    with open(path, "wb") as fh:
        fh.write(b"x,y,value\n")
        for start in range(0, len(ys), step):
            for y, row in zip(ys[start:start + step].tolist(), values[start:start + step].tolist()):
                fields = [f"{y:.17g}".encode(), None] * len(row)
                fields[1::2] = row
                fh.write(template % tuple(fields))


def write_json(path, obj) -> None:
    """The report as ``json`` writes it: its values are JSON's own types,
    tuples and floats (a numpy float64 is one), and any other value is a
    ``TypeError``."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

_W, _H, _PAD = 640, 400, 45


def _svg_frame(body: str, title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
        f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="monospace">{title}</text>\n'
        f"{body}\n</svg>\n"
    )


def _scale(xs, lo, hi, out_lo, out_hi):
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    if hi == lo:
        hi = lo + 1.0
    return out_lo + (xs - lo) / (hi - lo) * (out_hi - out_lo)


def svg_histogram(path, values: Sequence[float], bins: int = 80, title: str = "") -> None:
    import numpy as np

    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins)
    top = max(int(counts.max()), 1)
    xs0 = _scale(edges[:-1], edges[0], edges[-1], _PAD, _W - _PAD)
    xs1 = _scale(edges[1:], edges[0], edges[-1], _PAD, _W - _PAD)
    parts = []
    for x0, x1, c in zip(xs0, xs1, counts):
        h = (_H - 2 * _PAD) * (int(c) / top)
        y = _H - _PAD - h
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{max(x1 - x0, 0.5):.2f}" '
            f'height="{h:.2f}" fill="steelblue"/>'
        )
    parts.append(_axes(edges[0], edges[-1], 0, top))
    Path(path).write_text(_svg_frame("\n".join(parts), title))


def svg_cdf(path, points: Sequence[float], cumulative: Sequence[float], title: str = "") -> None:
    import numpy as np

    pts = np.asarray(points, dtype=float)
    cum = np.asarray(cumulative, dtype=float)
    lo, hi = float(pts.min()), float(pts.max())
    span = (hi - lo) or 1.0
    lo, hi = lo - 0.05 * span, hi + 0.05 * span
    xs = _scale(pts, lo, hi, _PAD, _W - _PAD)
    ys = _H - _PAD - (cum / cum[-1]) * (_H - 2 * _PAD)
    steps = [f"{_PAD:.2f},{_H - _PAD:.2f}"]
    prev_y = _H - _PAD
    for x, y in zip(xs, ys):
        steps.append(f"{x:.2f},{prev_y:.2f}")
        steps.append(f"{x:.2f},{y:.2f}")
        prev_y = y
    steps.append(f"{_W - _PAD:.2f},{prev_y:.2f}")
    parts = [f'<polyline points="{" ".join(steps)}" fill="none" stroke="steelblue" stroke-width="1.2"/>']
    parts.append(_axes(lo, hi, 0, 1))
    Path(path).write_text(_svg_frame("\n".join(parts), title))


def svg_series(path, xs: Sequence[float], ys: Sequence[float], title: str = "") -> None:
    """Points (x, y) joined by a line, on a log10 y axis."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    plot_y = np.log10(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    ylo, yhi = float(plot_y.min()), float(plot_y.max())
    sx = _scale(xs, xs.min(), xs.max(), _PAD, _W - _PAD)
    sy = _H - _PAD - _scale(plot_y, ylo, yhi, 0, _H - 2 * _PAD)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx, sy))
    parts = [
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        "".join(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="steelblue"/>'
            for x, y in zip(sx, sy)
        ),
        _axes(xs.min(), xs.max(), ylo, yhi),
    ]
    Path(path).write_text(_svg_frame("\n".join(parts), title))


def svg_scatter(path, xs: Sequence[float], ys: Sequence[float], title: str = "") -> None:
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    sx = _scale(xs, xs.min(), xs.max(), _PAD, _W - _PAD)
    sy = _H - _PAD - _scale(ys, ys.min(), ys.max(), 0, _H - 2 * _PAD)
    dots = "".join(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="steelblue" fill-opacity="0.6"/>'
        for x, y in zip(sx, sy)
    )
    body = dots + _axes(xs.min(), xs.max(), ys.min(), ys.max())
    Path(path).write_text(_svg_frame(body, title))


def _axes(xlo, xhi, ylo, yhi) -> str:
    return (
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" stroke="black"/>'
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>'
        f'<text x="{_PAD}" y="{_H - _PAD + 16}" font-size="11" font-family="monospace">{fmt(float(xlo))[:10]}</text>'
        f'<text x="{_W - _PAD}" y="{_H - _PAD + 16}" text-anchor="end" font-size="11" font-family="monospace">{fmt(float(xhi))[:10]}</text>'
        f'<text x="{_PAD - 4}" y="{_H - _PAD}" text-anchor="end" font-size="11" font-family="monospace">{fmt(float(ylo))[:8]}</text>'
        f'<text x="{_PAD - 4}" y="{_PAD + 4}" text-anchor="end" font-size="11" font-family="monospace">{fmt(float(yhi))[:8]}</text>'
    )


def write_pgm16(path, values, lo, hi) -> None:
    """16-bit grayscale PGM of a real matrix whose finite values run from
    ``lo`` to ``hi`` (both None when none is finite): the finite values map
    linearly onto 1..65535 and the others to 0.  The words are scaled and
    packed ``_grid_rows`` rows at a time."""
    import numpy as np

    if lo is None:
        lo, hi = 0.0, 1.0
    elif hi == lo:
        hi = lo + 1.0
    step = _grid_rows(values)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode())
        for start in range(0, values.shape[0], step):
            block = values[start:start + step]
            words = 1 + (block - lo) / (hi - lo) * 65534
            words[~np.isfinite(block)] = 0
            fh.write(words.astype(">u2").tobytes())
