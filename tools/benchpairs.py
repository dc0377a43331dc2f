"""Run the benchmark in alternating pairs on two revisions and compare them.

    python3 tools/benchpairs.py --parent REV [--change REV] --workload W
                                --seeds 21 22 --pairs 10 --seconds 30

Each revision (``--change`` defaults to ``HEAD``) is written with
``git archive`` into its own temporary directory, so neither tree carries a
``__pycache__`` or ``.perfbench/`` from earlier runs, and each tree's own
``perfbench/run.py`` runs there with ``--trace 0``.  For every seed, ``--pairs``
pairs run one after another, and the side that runs first alternates from
one pair to the next.  Each run's last JSON line is printed as it finishes,
after a ``#`` line naming its side, seed and pair.  Then, per seed, every
end-to-end metric of the parent's ``BENCHMARK.json`` gets a summary line:
each side's median and quartiles, the change of the median, the pairs the
change won (ties count for neither side), whether the median gap is wider
than the parent's interquartile range, and whether the change is worse than
the metric's bound.  ``attempted`` and ``failed`` are summarised the same
way, without a winner.  A last row divides the change of the median
``peak_rss_mb`` by the change of the median ``attempted``, in KB per op, so
a rise in RSS that comes from the harness's per-op records shows as a
steady cost per extra op.

Stdlib only.  Runs are sequential, one worker process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("attempted", "failed")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by the default (exclusive)
    method of ``statistics.quantiles``; all three equal for one value."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]
              ) -> list[dict]:
    """One row per end-to-end metric and per count of ``run.py``'s JSON line.

    ``pairs`` holds (parent, change) JSON lines, ``metrics`` the
    ``end_to_end`` entries of BENCHMARK.json (name, better, bound).  A row
    has each side's quartiles, the relative change of the median, and for a
    metric the pairs won by the change, whether the median gap is wider
    than the parent's interquartile range and whether the change's median
    is worse than the parent's by more than the bound.  A metric missing
    from any run is left out.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not all(name in side["metrics"] for pair in pairs for side in pair):
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gap = sign * (statistics.median(change) - statistics.median(parent))
        q1, _, q3 = quartiles(parent)
        rows.append(_row(name, parent, change) | {
            "won": won, "clears_iqr": gap > q3 - q1,
            "past_bound": -sign * _relative(parent, change) > metric["bound"],
        })
    for name in COUNTS:
        rows.append(_row(name, [p[name] for p, _ in pairs],
                         [c[name] for _, c in pairs]))
    return rows


def rss_per_attempted(pairs: list[tuple[dict, dict]]) -> float | None:
    """The change of the median ``peak_rss_mb``, in KB (1 MB = 1024 KB),
    per op of change of the median ``attempted``; None when the median
    ``attempted`` did not change or a run lacks ``peak_rss_mb``."""
    if not all("peak_rss_mb" in side["metrics"]
               for pair in pairs for side in pair):
        return None
    rss = [statistics.median(side["metrics"]["peak_rss_mb"]["value"]
                             for side in sides) for sides in zip(*pairs)]
    ops = [statistics.median(side["attempted"] for side in sides)
           for sides in zip(*pairs)]
    if ops[1] == ops[0]:
        return None
    return (rss[1] - rss[0]) * 1024 / (ops[1] - ops[0])


def format_rss_per_attempted(kb_per_op: float | None) -> str:
    value = "n/a" if kb_per_op is None else f"{kb_per_op:+.4g} KB/op"
    return f"peak_rss_mb per extra attempted op: {value}"


def _relative(parent: list[float], change: list[float]) -> float:
    base = statistics.median(parent)
    return (statistics.median(change) - base) / base if base else 0.0


def _row(name: str, parent: list[float], change: list[float]) -> dict:
    return {"name": name, "pairs": len(parent), "parent": quartiles(parent),
            "change": quartiles(change),
            "relative": _relative(parent, change)}


def format_row(row: dict) -> str:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    line = (f"{row['name']}: parent {side(row['parent'])} -> change "
            f"{side(row['change'])} ({row['relative']:+.1%})")
    if "won" in row:
        line += (f", won {row['won']}/{row['pairs']}"
                 f", gap {'>' if row['clears_iqr'] else '<='} parent IQR"
                 f"{', PAST BOUND' if row['past_bound'] else ''}")
    return line


def extract(rev: str, tree: Path) -> Path:
    """Write the files of ``rev`` into the new directory ``tree``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one ``perfbench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        trees = {side: extract(rev, Path(tmp) / side) for side, rev
                 in (("parent", args.parent), ("change", args.change))}
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        order = 0
        for seed in args.seeds:
            pairs = []
            for k in range(args.pairs):
                sides = (("parent", "change") if order % 2 == 0
                         else ("change", "parent"))
                order += 1
                out = {}
                for side in sides:
                    out[side] = run(trees[side], args.workload, seed,
                                    args.seconds)
                    print(f"# {side} seed={seed} pair={k}", flush=True)
                    print(json.dumps(out[side]), flush=True)
                pairs.append((out["parent"], out["change"]))
            print(f"## {args.workload} seed={seed}: {args.pairs} pairs, "
                  f"{args.seconds:g} s, parent {args.parent}, "
                  f"change {args.change}")
            for row in summarize(pairs, bench["end_to_end"]):
                print(format_row(row), flush=True)
            print(format_rss_per_attempted(rss_per_attempted(pairs)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
