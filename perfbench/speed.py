"""Machine-speed probe: scales measured times to one reference speed.

On a shared host the speed of the benchmark's core drifts by a fifth or more
over tens of seconds, for the program and for any other Python code alike. A
fixed pure-Python loop that calls nothing of kgpattern is timed after every
op and around every set-up; each time is multiplied by
PROBE_REFERENCE_MS / (median probe time around it). A time so scaled is what
the work would have taken while the probe ran in PROBE_REFERENCE_MS, so drift
of the host cancels out and a change to the program does not. The raw times
are kept in each run's record beside the scaled ones.
"""
from __future__ import annotations

import statistics
import time

PROBE_REFERENCE_MS = 3.0  # the probe's median on a quiet 2-vCPU Xeon VM
PROBE_LOOPS = 25_000
WINDOW = 4  # an op (or set-up) is scaled by the median probe of those within 4 of it


def probe_ms() -> float:
    """Milliseconds one fixed loop takes now."""
    started = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return (time.perf_counter() - started) * 1e3


def scaled_series(raw: list[float], probes: list[float]) -> list[float]:
    """Each raw[i] at the reference speed, given probes[i] taken right after
    it: raw[i] times PROBE_REFERENCE_MS over the median of the probes of
    items i-WINDOW..i+WINDOW."""
    return [
        x * PROBE_REFERENCE_MS / statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
        for i, x in enumerate(raw)
    ]
