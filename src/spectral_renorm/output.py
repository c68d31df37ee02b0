"""Deterministic artifact writers: CSV, JSON, SVG plots, 16-bit PGM.

Everything here is byte-deterministic for identical inputs: numeric CSV
fields are printed with 17 significant digits, JSON keys are sorted, and the
SVG plots are assembled from explicit element strings (no plotting library,
no timestamps, no generated ids).  Each writer takes its path first and
writes into a directory that exists.

Importing this module does not import numpy, so the exact subcommands run
without it.  Numpy scalars and arrays are recognised through the numpy
module that created them (``_number_types``), and only the writers that take
arrays (the SVG plots, ``write_pgm16`` and the float64 columns of
``write_csv``) import numpy, which is loaded whenever they run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Sequence

# Rows rendered at a time by ``write_csv``: memory holds one chunk's fields.
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
    rendered and written ``CSV_CHUNK_ROWS`` at a time."""
    length = min((len(c) for c in columns), default=0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, length, CSV_CHUNK_ROWS):
            fields = [_csv_fields(c[start:start + CSV_CHUNK_ROWS]) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*fields))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    ints, floats, arrays = _number_types()
    if isinstance(obj, ints):
        return int(obj)
    if isinstance(obj, floats):
        return float(obj)
    if isinstance(obj, arrays):
        return _jsonable(obj.tolist())
    return str(obj)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=1) + "\n")


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


def svg_cdf(path, points: Sequence[float], weights: Sequence[float], title: str = "") -> None:
    import numpy as np

    pts = np.asarray(points, dtype=float)
    cum = np.cumsum(weights)
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


def write_pgm16(path, values) -> None:
    """16-bit grayscale PGM of a real matrix; NaN and -inf map to 0."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(finite.min()), float(finite.max())
        if hi == lo:
            hi = lo + 1.0
    scaled = np.zeros(arr.shape, dtype=np.uint16)
    mask = np.isfinite(arr)
    scaled[mask] = (1 + (arr[mask] - lo) / (hi - lo) * 65534).astype(np.uint16)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode())
        fh.write(scaled.astype(">u2").tobytes())
