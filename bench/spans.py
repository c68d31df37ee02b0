"""Span trees recorded around calls into the package, and their self times.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in the same list, or -1 for a span started directly by the
command-line front end.  Times are ``time.perf_counter()`` seconds, which on
Linux is the system-wide monotonic clock, so bench/run.py can compare
them with the operation's wall-clock interval measured in its own process.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Whatever part of an operation's wall time no top-level
span covers (interpreter start, imports, argument parsing, dispatch and the
handlers' own code) is charged to ``cli.self_s``; so for every operation the
self times of all its spans plus ``cli.self_s`` add up to its wall time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

Span = tuple  # (name: str, start: float, end: float, parent: int)


def covered_length(intervals: Sequence[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> list:
    """Self time of every span, in the order given."""
    children = defaultdict(list)
    for i, (_name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i], start, end)
            for i, (_name, start, end, _parent) in enumerate(spans)]


def operation_profile(spans: Sequence[Span], op_start: float, op_end: float) -> dict:
    """Per-name self time and call count for one operation.

    Returns ``{"self_s": {name: s}, "calls": {name: n}, "cli_self_s": s}``
    where ``cli_self_s`` is the operation's wall time not covered by any
    top-level span.
    """
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for (name, *_rest), t in zip(spans, self_times(spans)):
        self_s[name] += t
        calls[name] += 1
    roots = [(start, end) for _name, start, end, parent in spans if parent < 0]
    cli_self = (op_end - op_start) - covered_length(roots, op_start, op_end)
    return {"self_s": dict(self_s), "calls": dict(calls), "cli_self_s": cli_self}
