"""The pure summary of tools/benchpairs.py, on made-up benchmark lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
SPEC = importlib.util.spec_from_file_location("benchpairs", PATH)
benchpairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(benchpairs)

METRICS = [{"name": "latency_p90_ms", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]


def line(p90, ops, rss, attempted):
    return {"attempted": attempted, "failed": 0,
            "metrics": {"latency_p90_ms": {"value": p90, "unit": "ms"},
                        "ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_counts_wins_and_checks_the_gap_and_the_bound():
    # p90 falls in four pairs of five and ties in one; ops/s rises in all
    # five; the RSS rises by a fifth, past its 15 % bound
    parent = [line(p90, 100 + i, 30, 1000 + i)
              for i, p90 in enumerate([0.10, 0.11, 0.12, 0.13, 0.14])]
    change = [line(p90, 120 + i, 36, 1200 + i)
              for i, p90 in enumerate([0.08, 0.09, 0.12, 0.10, 0.11])]
    rows = {row["name"]: row
            for row in benchpairs.summarize(list(zip(parent, change)),
                                            METRICS)}
    p90 = rows["latency_p90_ms"]
    assert p90["pairs"] == 5 and p90["won"] == 4
    assert p90["parent"] == pytest.approx((0.105, 0.12, 0.135))
    assert p90["change"][1] == pytest.approx(0.10)
    assert p90["relative"] == pytest.approx(-1 / 6)
    assert not p90["clears_iqr"]  # gap 0.02 against IQR 0.03
    assert not p90["past_bound"]
    ops = rows["ops_per_s"]
    assert ops["won"] == 5 and ops["clears_iqr"] and not ops["past_bound"]
    rss = rows["peak_rss_mb"]
    assert rss["won"] == 0 and rss["past_bound"]
    assert rss["relative"] == pytest.approx(0.2)
    assert rows["attempted"]["parent"][1] == 1002
    assert rows["attempted"]["change"][1] == 1202
    assert "won" not in rows["attempted"]
    assert rows["failed"]["relative"] == 0
    text = benchpairs.format_row(rss)
    assert text.startswith("peak_rss_mb: parent 30 [30, 30] -> change 36")
    assert "(+20.0%), won 0/5" in text and text.endswith("PAST BOUND")


def test_summary_of_one_pair_and_a_missing_metric():
    # one pair: the quartiles are the value itself; a metric a run lacks
    # (every op failed) gets no row
    parent, change = line(0.2, 50, 30, 10), line(0.1, 60, 30, 12)
    del change["metrics"]["ops_per_s"]
    rows = benchpairs.summarize([(parent, change)], METRICS)
    assert [row["name"] for row in rows] == [
        "latency_p90_ms", "peak_rss_mb", "attempted", "failed"]
    assert rows[0]["parent"] == (0.2, 0.2, 0.2)
    assert rows[0]["won"] == 1 and rows[0]["clears_iqr"]
    assert rows[1]["won"] == 0 and not rows[1]["clears_iqr"]


def test_rss_change_per_extra_attempted_op():
    # medians: RSS 30 -> 33 MB, attempted 1000 -> 4072 ops, so 3 MB over
    # 3072 more ops is 1 KB per op; no change of attempted gives n/a
    parent = [line(0.1, 100, rss, ops)
              for rss, ops in ((29, 900), (30, 1000), (31, 1100))]
    change = [line(0.1, 100, rss, ops)
              for rss, ops in ((33, 4072), (32, 3000), (34, 5000))]
    kb = benchpairs.rss_per_attempted(list(zip(parent, change)))
    assert kb == pytest.approx(1.0)
    assert benchpairs.format_rss_per_attempted(kb) == (
        "peak_rss_mb per extra attempted op: +1 KB/op")
    assert benchpairs.rss_per_attempted(list(zip(parent, parent))) is None
    assert benchpairs.format_rss_per_attempted(None).endswith(": n/a")
    del change[0]["metrics"]["peak_rss_mb"]
    assert benchpairs.rss_per_attempted(list(zip(parent, change))) is None
