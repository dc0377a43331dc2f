"""Runs one workload in a fresh interpreter and prints its raw results.

Usage: worker.py --workload NAME --seed N --mode setup|measure|trace
                 [--seconds S] [--min-ops K] [--ops K]

Every mode first sets up: it times ``import tautclass`` and the workload's
untimed warm-up.  ``measure`` then runs the closed loop (one client, no
threads) for ``--seconds`` and at least ``--min-ops`` ops; ``trace`` runs a
fixed number of ops, each once traced and then once untraced, so that
counts repeat exactly and the tracing overhead is measured on the same
inputs.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import probe
import workloads as wl

# One traced op set per workload: a full cycle of labels or n, or a few
# verify children.  Fixed sizes make same-seed counts identical.
TRACED_OPS = {"verify_cold": 4, "mnef_scaling": len(wl.MNEF_NS),
              "eval_mix": 4 * len(wl.EVAL_LABELS)}
MAX_ERRORS_KEPT = 5


class Run:
    """Inputs, warm-up, one op and its check for a workload."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.first_report: bytes | None = None
        self.checked: list[tuple[wl.EvalInput, Fraction]] = []
        self.probe_s = 0.0
        self.next_probe = 0.0
        if workload == "verify_cold":
            self.inputs = itertools.repeat(None)  # fixed input; seed unused
        elif workload == "mnef_scaling":
            self.inputs = wl.mnef_inputs(seed)
        elif workload == "eval_mix":
            self.inputs = wl.eval_inputs(seed)
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def warm_up(self) -> None:
        """Untimed warm-up; its time is part of ``setup_s``."""
        if self.workload == "verify_cold":
            # Also leaves __pycache__ warm, as an installed package's is.
            meta = wl.run_verify_child(False)
            error = wl.check_verify_report(meta, None)
            if error:
                raise RuntimeError(f"warm-up: {error}")
            self.first_report = meta["stdout"]
        elif self.workload == "mnef_scaling":
            from tautclass import chow, hypersurfaces
            for n in wl.MNEF_NS:
                chow.segre_omega(hypersurfaces.hypersurface_profile(
                    hypersurfaces.HypersurfaceSpec(n, 3)))
            wl.mnef_op(wl.MNEF_NS[0])
        else:
            # One op per profile label, from a stream that ignores the seed
            # so that set-up does the same work in every run.
            warm = wl.eval_inputs("warm-up")
            for _ in wl.EVAL_LABELS:
                wl.eval_op(next(warm))

    def op(self, item, trace: bool = False, spans=None):
        """Run one op; returns (latency_ns, probe_s, result).

        ``probe_s`` is the machine-speed probe next to the op: taken in the
        child for ``verify_cold``, and at most ``probe.EVERY_S`` before the
        op in this process otherwise.
        """
        if self.workload == "verify_cold":
            meta = wl.run_verify_child(trace, spans)
            return meta["latency_ns"], meta["probe_s"], meta
        if time.perf_counter() >= self.next_probe:
            self.probe_s = probe.speed_probe()
            self.next_probe = time.perf_counter() + probe.EVERY_S
        fn = wl.mnef_op if self.workload == "mnef_scaling" else wl.eval_op
        start = time.perf_counter_ns()
        result = fn(item)
        return time.perf_counter_ns() - start, self.probe_s, result

    def check(self, item, result) -> str | None:
        """Output check, outside timing; eval values are kept for later."""
        if self.workload == "verify_cold":
            return wl.check_verify_report(result, self.first_report)
        if self.workload == "mnef_scaling":
            return wl.check_mnef(item, result)
        if not wl.eval_roundtrip_ok(result):
            return f"{item.label}: parse_expr(format_class(c)) != c"
        self.checked.append((item, wl.eval_checked_value(item, result)))
        return None

    def check_values(self) -> list[str]:
        """Compare kept eval values with the sympy reference route."""
        if not self.checked:
            return []
        from tautclass import profiles
        refs = {label: wl.Reference(profiles.get_profile(label).to_json())
                for label in wl.EVAL_LABELS}
        try:
            wl.check_anchors(refs)
        except AssertionError as exc:
            return [str(exc)] * len(self.checked)
        errors = []
        for item, value in self.checked:
            expected = refs[item.label].value(item.factors,
                                              item.top - item.degree)
            if value != expected:
                errors.append(f"{item.label} {item.text}: {value} != {expected}")
        return errors


def _rss_kb(workload: str) -> int:
    who = (resource.RUSAGE_CHILDREN if workload == "verify_cold"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss


def setup(workload: str, seed: int) -> tuple[Run, dict]:
    """Timed import and warm-up, between machine-speed probes."""
    probes = [probe.speed_probe() for _ in range(3)]
    start = time.perf_counter_ns()
    import tautclass  # noqa: F401  (timed on purpose)
    imported = time.perf_counter_ns()
    run = Run(workload, seed)
    run.warm_up()
    done = time.perf_counter_ns()
    probes += [probe.speed_probe() for _ in range(3)]
    return run, {"import_s": (imported - start) / 1e9,
                 "setup_s": (done - start) / 1e9,
                 "setup_probe_s": statistics.median(probes)}


def measure(run: Run, seconds: float, min_ops: int) -> dict:
    import tracer
    out = {"wrappers_installed": tracer.installed_wrappers(),
           "latencies_ns": [], "attempted": 0, "errors": [], "probes_s": []}
    failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or out["attempted"] < min_ops:
        item = next(run.inputs)
        out["attempted"] += 1
        try:
            latency, probe_s, result = run.op(item)
            error = run.check(item, result)
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        if error:
            failed += 1
            out["errors"].append(error)
        else:
            out["latencies_ns"].append(latency)
            out["probes_s"].append(probe_s)
    out["peak_rss_kb"] = _rss_kb(run.workload)
    value_errors = run.check_values()
    out["failed"] = failed + len(value_errors)
    out["errors"] = (out["errors"] + value_errors)[:MAX_ERRORS_KEPT]
    return out


def trace(run: Run, ops: int) -> dict:
    """Each op traced, then again untraced on the same input.

    Tracing comes first so that the counts see each input as new, as the
    measured loop does; the untraced repeat gives the tracing overhead.
    """
    import tracer
    wl.OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    stem = wl.OUT / "spans" / f"{run.workload}-seed{run.seed}"
    tr = None if run.workload == "verify_cold" else tracer.Tracer()
    counters: dict[str, int] = {}
    untraced_ns = traced_ns = 0
    errors: list[str] = []
    for index in range(ops):
        item = next(run.inputs)
        try:
            if tr is None:
                latency, _, result = run.op(item, True,
                                            f"{stem}-child{index}.jsonl")
                _merge(counters, result["counters"])
            else:
                tr.op = index + 1
                tr.install()
                try:
                    latency, _, result = run.op(item)
                finally:
                    tr.uninstall()
            traced_ns += latency
            error = run.check(item, result)
            latency, _, _ = run.op(item)
            untraced_ns += latency
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        if error:
            errors.append(error)
    if tr is not None:
        counters = tr.counters
        tr.write_spans(f"{stem}.jsonl")
    errors += run.check_values()
    return {"attempted": ops, "failed": len(errors),
            "errors": errors[:MAX_ERRORS_KEPT], "counters": counters,
            "untraced_ns": untraced_ns, "traced_ns": traced_ns,
            "wrappers_installed": tracer.installed_wrappers()}


def _merge(total: dict, counters: dict) -> None:
    for key, value in counters.items():
        if key == "chow.peak_terms":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--ops", type=int, default=None,
                        help="traced op count (default: the fixed set)")
    args = parser.parse_args()
    sys.path.insert(0, str(wl.SRC))
    try:
        run, out = setup(args.workload, args.seed)
    except Exception as exc:  # a broken program fails the run, not the harness
        out = {"attempted": 1, "failed": 1,
               "errors": [f"setup: {type(exc).__name__}: {exc}"]}
    else:
        if args.mode == "measure":
            out.update(measure(run, args.seconds, args.min_ops))
        elif args.mode == "trace":
            out.update(trace(run, args.ops or TRACED_OPS[args.workload]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
