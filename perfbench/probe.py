"""Machine-speed probe and the scaling of timings to a reference speed.

On a shared machine the speed seen by one process can drift by +-20 % over
seconds to minutes, and differently on each CPU.  A fixed pure-Python loop
timed in the same process, right next to an op, tracks that drift.  Each
timing t is reported as t * (REF_S / p) ** ELASTICITY, where p is the probe
time next to it: the time on a machine where the probe takes REF_S.  The
ops slow down less than the probe when the machine is busy; ELASTICITY is
their measured response (see README.md).

This module imports only ``time``, so a child process can probe before it
starts timing ``import tautclass`` without preloading anything.
"""

import time

LOOPS = 50_000
REF_S = 0.005
ELASTICITY = 0.7
EVERY_S = 0.2


def speed_probe() -> float:
    """Seconds for a fixed pure-Python integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(probe_s: float) -> float:
    """Factor taking a time measured at probe time ``probe_s`` to REF_S."""
    return (REF_S / probe_s) ** ELASTICITY
