"""The pair counts and verdict of ``tools/bench_figures.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_figures  # noqa: E402


def test_ties_count_for_neither_side():
    parent = [63.0, 63.0, 63.1, 63.0, 63.0, 63.0]
    change = [63.0, 62.9, 63.1, 63.1, 63.0, 63.0]
    assert bench_figures.verdict(parent, change) == {
        "wins": 1, "losses": 1, "ties": 4, "verdict": "unresolved"}


def test_verdict_needs_nine_tenths_and_a_gap_past_the_parents_iqr():
    parent = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]
    faster = [x - 0.2 for x in parent]
    assert bench_figures.verdict(parent, faster)["verdict"] == "better"
    assert bench_figures.verdict(faster, parent)["verdict"] == "worse"
    # nine of ten pairs still decide; eight do not
    assert bench_figures.verdict(parent, faster[:9] + [2.0])["verdict"] == "better"
    assert bench_figures.verdict(parent, faster[:8] + [2.0, 2.0])["verdict"] == "unresolved"
    # every pair won, but the medians differ by less than the parent's IQR
    slightly = [x - 0.01 for x in parent]
    assert bench_figures.verdict(parent, slightly) == {
        "wins": 10, "losses": 0, "ties": 0, "verdict": "unresolved"}
