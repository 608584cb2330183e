"""Verdicts of scripts/record_bench.py on synthetic runs; nothing is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)

TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
WIDE = [0.70, 1.30, 0.80, 1.20, 1.00, 0.75, 1.25, 0.90, 1.10, 1.00]
TWO_MODES = [1.0] * 5 + [1.6] * 5


def _runs(values, failed=0):
    return [{"metrics": {"m": v}, "failed": failed, "attempted": 6, "fail_frac": failed / 6,
             "correct": True} for v in values]


def _verdict(parent, change, better="lower", change_failed=0):
    runs = {"parent": _runs(parent, failed=2), "change": _runs(change, failed=change_failed)}
    spec = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
    return record_bench.summarize(runs, spec)["metrics"]["m"]["verdict"]


@pytest.mark.parametrize("parent, change, better, change_failed, expected", [
    (TIGHT, [0.8 + 0.001 * i for i in range(10)], "lower", 2, "gain"),
    (TIGHT, [v * 1.1 for v in TIGHT], "lower", 2, "within_bound"),
    (TIGHT, [v * 1.4 for v in TIGHT], "lower", 2, "regression"),
    (TIGHT, [v * 0.6 for v in TIGHT], "higher", 2, "regression"),
    (WIDE, WIDE[::-1], "lower", 2, "unresolved"),
    # Wide parent spread, but every change run beats every parent run.
    (TWO_MODES, [0.99] * 10, "lower", 2, "within_bound"),
    # Faster in every pair, but a larger share of operations fails.
    (TIGHT, [0.8 + 0.001 * i for i in range(10)], "lower", 3, "within_bound"),
], ids=["gain", "within_bound", "regression", "regression_higher_better",
        "unresolved", "all_runs_better_is_resolved", "more_failures_is_no_gain"])
def test_verdict(parent, change, better, change_failed, expected):
    assert _verdict(parent, change, better, change_failed) == expected


def test_gain_needs_nine_of_ten_pairs():
    change = [0.8] * 8 + [1.5] * 2
    assert record_bench.pair_wins(TIGHT, change, "lower") == 8
    assert _verdict(TIGHT, change, "lower", 2) != "gain"
