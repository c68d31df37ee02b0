"""Self-time computation of the benchmark's span trees."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import covered_length, operation_profile, self_times  # noqa: E402

# An operation from t=0 to t=10:
#   0 a   [1, 7]
#   1   b [2, 4]       child of a
#   2   c [4.5, 6]     child of a
#   3     d [5, 5.5]   child of c
#   4 e   [8, 9]       top level
SPANS = [
    ("a", 1.0, 7.0, -1),
    ("b", 2.0, 4.0, 0),
    ("c", 4.5, 6.0, 0),
    ("d", 5.0, 5.5, 2),
    ("e", 8.0, 9.0, -1),
]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(2, 4), (3.5, 6), (8, 9)], 1, 7) == pytest.approx(4.0)
    assert covered_length([], 0, 1) == 0.0
    assert covered_length([(0, 3)], 1, 2) == pytest.approx(1.0)


def test_self_times_subtract_covered_child_time():
    assert self_times(SPANS) == pytest.approx([2.5, 2.0, 1.0, 0.5, 1.0])


def test_operation_profile_accounts_for_the_whole_wall_time():
    profile = operation_profile(SPANS, 0.0, 10.0)
    assert profile["cli_self_s"] == pytest.approx(3.0)
    assert profile["self_s"] == pytest.approx({"a": 2.5, "b": 2.0, "c": 1.0, "d": 0.5, "e": 1.0})
    assert sum(profile["self_s"].values()) + profile["cli_self_s"] == pytest.approx(10.0)


def test_repeated_names_are_summed_and_counted():
    spans = [("f", 0.0, 1.0, -1), ("g", 0.25, 0.5, 0), ("f", 2.0, 3.0, -1), ("g", 2.5, 2.75, 2)]
    profile = operation_profile(spans, 0.0, 4.0)
    assert profile["self_s"] == pytest.approx({"f": 1.5, "g": 0.5})
    assert profile["calls"] == {"f": 2, "g": 2}
    assert profile["cli_self_s"] == pytest.approx(2.0)


def test_recorder_nests_spans_under_the_open_span():
    from tracer import Recorder

    rec = Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(name, parent) for name, _s, _e, parent in rec.spans] == [("outer", -1), ("inner", 0)]
    assert all(start <= end for _n, start, end, _p in rec.spans)


def test_tracer_wraps_names_bound_by_from_import(tmp_path):
    import json
    import os
    import subprocess

    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spans_file = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(root / "bench" / "tracer.py"), str(spans_file),
                    "schur-verify", "--group", "hanoi", "--level", "2", "--samples", "2",
                    "--out", str(tmp_path / "out")], env=env, check=True, timeout=120)
    spans = json.loads(spans_file.read_text())["spans"]
    names = [s[0] for s in spans]
    # pencils calls det_exact and level_action through its own from-imports.
    det = [s for s in spans if s[0] == "exact.det_exact"]
    assert det and all(names[s[3]] == "pencils.verify_recursion" for s in det)
    assert "groups.level_action" in names


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    import json

    from run import PER_LAYER

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
