"""Self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
It is kept out of the library's test suite, whose ``testpaths`` is
``tests``.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

TINY_TRACE_OPS = {"verify_cold": 1, "mnef_scaling": 6, "eval_mix": 26}


def _worker(workload: str, mode: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "7", "--mode", mode, *extra],
        capture_output=True, text=True, env=wl.CHILD_ENV, timeout=170,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _work_counts(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if not k.endswith("_ns")}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_traced_runs_give_identical_counts(workload):
    ops = str(TINY_TRACE_OPS[workload])
    first = _worker(workload, "trace", "--ops", ops)
    second = _worker(workload, "trace", "--ops", ops)
    assert first["failed"] == 0, first["errors"]
    assert _work_counts(first["counters"])
    assert _work_counts(first["counters"]) == _work_counts(second["counters"])
    assert first["wrappers_installed"] == 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_untraced_run_passes_checks_without_wrappers(workload):
    out = _worker(workload, "measure", "--seconds", "0", "--min-ops", "3")
    assert out["attempted"] == 3
    assert out["failed"] == 0, out["errors"]
    assert len(out["latencies_ns"]) == 3
    assert out["wrappers_installed"] == 0


def test_tracer_rebinds_every_binding_and_restores_them():
    from tautclass import chow, claims, cli
    original = chow.eval_top
    tr = tracer.Tracer()
    tr.install()
    try:
        assert claims.eval_top is chow.eval_top is not original
        assert tracer.installed_wrappers() > 0
        cli.main(["schur", "dim", "--partition", "2,1", "--dim", "3"])
    finally:
        tr.uninstall()
    assert chow.eval_top is original and claims.eval_top is original
    assert tracer.installed_wrappers() == 0
    assert tr.counters["schur.schur_dim.calls"] == 1
    assert tr.counters["cli.main.calls"] == 1


def test_reference_route_reproduces_the_anchors():
    from tautclass import profiles
    wl.check_anchors({label: wl.Reference(profiles.get_profile(label).to_json())
                      for label in ("cubic-surface", "dp3-degree1")})


def test_eval_inputs_are_seeded_and_bounded():
    first = list(itertools.islice(wl.eval_inputs(3), 200))
    again = list(itertools.islice(wl.eval_inputs(3), 200))
    assert [item.text for item in first] == [item.text for item in again]
    assert len({(item.label, item.text) for item in first}) == len(first)
    for item in first:
        assert all(exponent <= item.top for _, exponent in item.factors)
        assert sum(exponent for _, exponent in item.factors) == item.degree


def test_verify_check_rejects_a_changed_report():
    meta = wl.run_verify_child(False)
    assert wl.check_verify_report(meta, None) is None
    doc = json.loads(meta["stdout"])
    doc["claims"][0]["status"] = "fail"
    changed = dict(meta, stdout=json.dumps(doc).encode())
    assert wl.check_verify_report(changed, None) is not None
    assert wl.check_verify_report(meta, b"other bytes") is not None


def test_mnef_check_rejects_a_wrong_value():
    from tautclass import hypersurfaces
    value = hypersurfaces.cubic_mnef_number(16)
    assert wl.check_mnef(16, value) is None
    assert wl.check_mnef(16, value + Fraction(1, 3)) is not None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
