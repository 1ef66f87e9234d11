"""Wall time scaled to a reference host speed.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give one thread swings by up to 2x, in stretches from
a fraction of a second to half a minute, with no steal time to show for
it (CPU time swings with wall time).  A median of raw wall times over a
run then depends on which stretches the run happened to fall in.

:func:`timed` samples the host's speed while the call runs: an interval
timer interrupts the call every :data:`INTERVAL` seconds, and the signal
handler times a fixed pure-Python loop (the probe) on the same thread,
in the middle of the call.  The call's wall time, less the time its
probes took, is scaled by ``PROBE_SECONDS / median(probe times)``: a call
made while the host runs at half speed reads as it would at the speed
the probe was calibrated at.  The probe is the benchmark's own code, so
a change to the program moves the call's time and not the probe's.

For ``run_cpm`` with a worker pool the probes also see the workers'
load on the shared cores, so there the scale is partly the program's
own.  It still steadies those times: over five seeds on a 2-vCPU host
the quartile spread of the sharded ``cpm_run_s`` was 0.25 raw and 0.11
to 0.15 scaled.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between probes during a timed call, and probes right before
#: and right after it.
INTERVAL = 0.02
AROUND = 5
PROBE_ITERATIONS = 2_000
#: The probe's time on the reference host (a 2-vCPU x86-64 Xeon VM,
#: CPython 3.11) in its fast state: the speed scaled values are at.
PROBE_SECONDS = 0.0004

_probes: list[float] = []


def probe() -> float:
    """Seconds the fixed probe loop takes now."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    seen = set()
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        seen.add(i * 7 % 4099)
    return time.perf_counter() - started


def _on_alarm(signum, frame) -> None:
    _probes.append(probe())


def scaled(wall: float, probes: list[float]) -> float:
    """``wall`` at reference speed, given the probe times taken during it."""
    return wall * PROBE_SECONDS / statistics.median(probes)


def timed(fn):
    """``(fn(), its wall seconds at reference speed)``.

    Probes :data:`AROUND` times right before and right after the call
    and every :data:`INTERVAL` seconds inside it; the probes inside the
    call are taken off its wall time.
    """
    _probes.clear()
    before = [probe() for _ in range(AROUND)]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        started = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - started
        inside = list(_probes)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    after = [probe() for _ in range(AROUND)]
    return out, scaled(wall - sum(inside), before + inside + after)
