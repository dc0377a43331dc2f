"""Time each phase of eval_mix's op, and its untimed round-trip check.

    python3 tools/evalphases.py [--seed 1] [--count 3000] [--root DIR]
                                [--labels PREFIX ...]

For the first ``--count`` inputs of ``perfbench/workloads.eval_inputs(seed)``
(with ``--labels``, the first ``--count`` whose profile label starts with
one of the prefixes, such as ``hypersurface`` or ``dp-surface``) this runs the calls of ``workloads.eval_op`` one by one and times each
phase with ``time.perf_counter``: ``profile`` (``get_profile``), ``parse``
(``parse_expr``), ``format`` (``format_class``), ``degree``
(``homogeneous_degree``) and ``eval`` (``eval_top`` and ``fraction_str``,
at top degree only), then ``roundtrip``, the benchmark's untimed check
``workloads.eval_roundtrip_ok``, that is ``parse_expr(format_class(c)) ==
c``.  It prints each phase's median, 90th percentile and total over the
inputs, in microseconds and milliseconds, and the op's (the sum of its phases).  As in
the benchmark's warm-up, one ``warm-up`` input per profile label runs
first, so profile builds fall outside the medians.

``--root`` points at another checkout (``git archive`` one into a temporary
directory), whose ``src/`` and ``perfbench/workloads.py`` are used instead
of this tree's, so two revisions are compared with the same script.

Stdlib only; ``workloads.py`` is imported, never changed.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("profile", "parse", "format", "degree", "eval", "op", "roundtrip")


def load_workloads(root: Path):
    """``root``'s perfbench/workloads.py, with ``root/src`` first on the path."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    return importlib.import_module("workloads")


def time_phases(wl, seed: str, count: int, labels: tuple[str, ...] = ("",)
                ) -> dict[str, list[float]]:
    """Per-input seconds of every phase over the first ``count`` inputs
    whose label starts with one of ``labels``."""
    from tautclass import chow, exprparse, profiles
    clock = time.perf_counter
    warm = wl.eval_inputs("warm-up")
    for _ in wl.EVAL_LABELS:
        wl.eval_op(next(warm))
    times: dict[str, list[float]] = {phase: [] for phase in PHASES}
    items = (item for item in wl.eval_inputs(seed)
             if item.label.startswith(labels))
    for item in itertools.islice(items, count):
        t0 = clock()
        profile = profiles.get_profile(item.label)
        t1 = clock()
        cls = exprparse.parse_expr(profile, item.text)
        t2 = clock()
        printed = exprparse.format_class(profile, cls)
        t3 = clock()
        degree = cls.homogeneous_degree()
        t4 = clock()
        if degree is None or degree == 2 * profile.dim - 1:
            chow.fraction_str(chow.eval_top(profile, cls))
        t5 = clock()
        ok = wl.eval_roundtrip_ok((profile, cls, printed, None))
        t6 = clock()
        if not ok:
            raise AssertionError(f"round trip failed on {item.text!r}")
        for phase, seconds in zip(PHASES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                           t5 - t4, t5 - t0, t6 - t5)):
            times[phase].append(seconds)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", default="1")
    parser.add_argument("--count", type=int, default=3000)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--labels", nargs="+", default=[""],
                        metavar="PREFIX")
    args = parser.parse_args(argv)
    labels = tuple(args.labels)
    times = time_phases(load_workloads(args.root.resolve()), args.seed,
                        args.count, labels)
    print(f"# {args.count} eval_mix inputs, seed {args.seed}, "
          f"labels {' '.join(labels) or 'all'}, root {args.root}, "
          f"Python {sys.version.split()[0]}")
    print(f"{'phase':<10} {'median_us':>10} {'p90_us':>10} {'total_ms':>10}")
    for phase in PHASES:
        values = times[phase]
        p90 = statistics.quantiles(values, n=10)[-1]
        print(f"{phase:<10} {statistics.median(values) * 1e6:>10.1f} "
              f"{p90 * 1e6:>10.1f} {sum(values) * 1e3:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
