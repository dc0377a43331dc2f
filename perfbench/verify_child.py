"""One timed ``tautclass verify --format json`` in a fresh interpreter.

Usage: verify_child.py SRC_DIR TRACE(0|1) [SPANS_PATH]

The report goes to standard output.  The last line of standard error is a
JSON object with ``latency_ns`` (from just before ``import tautclass`` until
the report is flushed), ``import_ns``, the machine-speed probe taken just
before and after that span, and, when traced, the tracer counters.
"""

import sys
import time

import probe

sys.path.insert(0, sys.argv[1])
probe_before = probe.speed_probe()
start = time.perf_counter_ns()
import tautclass  # noqa: E402  (timed on purpose)
imported = time.perf_counter_ns()

tracer = None
if sys.argv[2] == "1":
    import tracer as tracer_mod
    tracer = tracer_mod.Tracer()
    tracer.install()

from tautclass import cli  # noqa: E402

status = cli.main(["verify", "--format", "json"])
sys.stdout.flush()
end = time.perf_counter_ns()
probe_after = probe.speed_probe()

import json  # noqa: E402

meta = {"latency_ns": end - start, "import_ns": imported - start,
        "probe_s": (probe_before + probe_after) / 2}
if tracer is not None:
    tracer.uninstall()
    meta["counters"] = tracer.counters
    if len(sys.argv) > 3 and sys.argv[3]:
        tracer.write_spans(sys.argv[3])
sys.stderr.write("\n" + json.dumps(meta) + "\n")
sys.exit(status)
