"""tautclass benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_cold|mnef_scaling|eval_mix|all
                             --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run over a fixed op set that reports per-layer metrics and the
tracing overhead.  Every op's output is checked.  Lines starting with ``#``
give each metric with its unit and sample count, the machine-speed probe,
Python version, CPU count and commit; the last line is one JSON object.
``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import probe
import workloads as wl
from tracer import LAYERS

SETUP_SAMPLES = 5
MIN_OPS = 100
WORKER_SLACK_S = 100

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))

PER_LAYER = tuple((name, "s" if name.endswith("_s") else
                   "share" if name.endswith("_share") else "count")
                  for name in (
    "chow.ptclass_mul.calls", "chow.ptclass_mul.term_pairs",
    "chow.ptclass_mul.self_s", "chow.ptclass_mul.useful_term_share",
    "chow.peak_terms", "chow.basepoly_mul.term_pairs",
    "chow.basepoly_mul.self_s", "chow.eval_top.calls",
    "chow.eval_top.monomials", "chow.eval_top.self_s",
    "chow.evaluate.self_s", "chow.segre_omega.self_s",
    "exprparse.parse_expr.calls", "exprparse.parse_expr.self_s",
    "exprparse.parse_expr.repeat_share", "exprparse.format_class.self_s",
    "profiles.get_profile.calls", "profiles.get_profile.self_s",
    "profiles.get_profile.repeat_share",
    "hypersurfaces.hypersurface_profile.self_s",
    "surfaces.minus_one_curves.self_s", "surfaces.conic_classes.self_s",
    "surfaces.enum.repeat_share", "schur.calls",
    "claims.load_registry.self_s", "claims.run_claims.self_s",
    "claims.emit.self_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    *(f"{layer}.errors" for layer in LAYERS),
    "import.tautclass_s", "trace.overhead_share"))


def commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(wl.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker(workload: str, seed: int, mode: str, seconds: float = 0) -> dict:
    cmd = [sys.executable, str(wl.HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--min-ops", str(MIN_OPS)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=wl.CHILD_ENV,
                          timeout=seconds + WORKER_SLACK_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {workload}/{mode} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _share(counters: dict, part: str, whole: str) -> float:
    return counters.get(part, 0) / counters[whole] if counters.get(whole) else 0.0


def layer_metric(name: str, counters: dict) -> float:
    """Per-layer metric from the tracer's raw counters."""
    prefix = name.rsplit(".", 1)[0]
    if name.endswith(".self_s"):
        if prefix in LAYERS:
            return sum(v for k, v in counters.items()
                       if k.startswith(prefix + ".") and k.endswith(".self_ns")) / 1e9
        return counters.get(prefix + ".self_ns", 0) / 1e9
    if name.endswith(".repeat_share"):
        return _share(counters, prefix + ".repeats", prefix + ".calls")
    if name == "chow.ptclass_mul.useful_term_share":
        return _share(counters, "chow.ptclass_mul.useful_terms",
                      "chow.ptclass_mul.result_terms")
    if name == "schur.calls":
        return sum(v for k, v in counters.items()
                   if k.startswith("schur.") and k.endswith(".calls"))
    return counters.get(name, 0)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up several times, run the workload once; metrics with samples."""
    setups = [worker(workload, seed, "setup") for _ in range(SETUP_SAMPLES - 1)]
    out = worker(workload, seed, "trace" if traced else "measure", seconds)
    setups.append(out)
    setups = [s for s in setups if "setup_s" in s]
    result = {"attempted": out["attempted"], "failed": out["failed"],
              "errors": out["errors"], "metrics": {}}
    metrics = result["metrics"]
    if len(setups) < SETUP_SAMPLES:  # setup itself failed
        return result
    imports = [s["import_s"] for s in setups]
    if traced:
        counters = out["counters"]
        overhead = (out["traced_ns"] / out["untraced_ns"] - 1
                    if out["untraced_ns"] else 0.0)  # 0 when every op failed
        extra = {"import.tautclass_s": (statistics.median(imports), len(imports)),
                 "trace.overhead_share": (overhead, out["attempted"])}
        for name, unit in PER_LAYER:
            value, samples = extra.get(name, (layer_metric(name, counters),
                                              out["attempted"]))
            metrics[name] = {"value": value, "unit": unit, "samples": samples}
        return result
    # Timings are scaled to the reference machine speed (probe.scale): each
    # set-up by the probes its own worker took around it, each op by the
    # probe next to it.
    probes = out["probes_s"]
    if probes:
        result["probe"] = {"median_s": statistics.median(probes),
                           "samples": len(probes)}
    timed = {"setup_s": (
        statistics.median(s["setup_s"] * probe.scale(s["setup_probe_s"])
                          for s in setups),
        statistics.median(s["setup_s"] for s in setups), len(setups))}
    raw_ms = [ns / 1e6 for ns in out["latencies_ns"]]
    scaled_ms = [t * probe.scale(p) for t, p in zip(raw_ms, probes)]
    result["latencies_ms"] = raw_ms
    ok = len(raw_ms)
    if ok >= 10:
        timed["ops_per_s"] = (ok / (sum(scaled_ms) / 1e3),
                              ok / (sum(raw_ms) / 1e3), ok)
        timed["latency_p50_ms"] = (statistics.median(scaled_ms),
                                   statistics.median(raw_ms), ok)
        timed["latency_p90_ms"] = (statistics.quantiles(scaled_ms, n=10)[8],
                                   statistics.quantiles(raw_ms, n=10)[8], ok)
    units = dict(END_TO_END)
    for name, (value, unscaled, samples) in timed.items():
        metrics[name] = {"value": value, "unit": units[name],
                         "samples": samples, "unscaled": unscaled}
    metrics["peak_rss_mb"] = {"value": out["peak_rss_kb"] / 1024,
                              "unit": "MB", "samples": 1}
    result["fail_share"] = out["failed"] / out["attempted"]
    return result


def report(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload, print its # lines and save the full result."""
    env = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(traced), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
           "probe_start_s": statistics.median(probe.speed_probe()
                                              for _ in range(5))}
    result = run_workload(workload, seed, seconds, traced)
    env.update({f"probe_{k}": v for k, v in result.pop("probe", {}).items()})
    result["env"] = env
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        unscaled = (f", unscaled {metric['unscaled']:.6g}"
                    if "unscaled" in metric else "")
        print(f"# {workload} {name} = {metric['value']:.6g} {metric['unit']}"
              f" (n={metric['samples']}{unscaled})")
    if "fail_share" in result:
        print(f"# {workload} fail_share = {result['fail_share']:.6g} share"
              f" (n={result['attempted']})")
    for error in result["errors"]:
        print(f"# {workload} failed op: {error}")
    results_dir = wl.OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def summary_line(result: dict, expected: tuple) -> dict:
    correct = (result["failed"] == 0
               and all(name in result["metrics"] for name, _ in expected))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (wl.SRC / "tautclass" / "__init__.py").is_file():
        print(f"error: no tautclass sources under {wl.SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    expected = PER_LAYER if traced else END_TO_END
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = [summary_line(report(name, args.seed, args.seconds, traced),
                          expected) for name in names]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({"correct": all(line["correct"] for line in lines),
                          "attempted": sum(line["attempted"] for line in lines),
                          "failed": sum(line["failed"] for line in lines),
                          "workloads": dict(zip(names, lines))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
