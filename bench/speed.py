"""The machine's current speed, from a fixed reference computation.

Shared vCPUs switch between speed regimes 40-90 % apart, for spells from a
second to several minutes, and the process's CPU time stretches with its
wall time.  A spell that covers a whole run moves every time in it, and no
amount of repetition inside the run removes that.  So the benchmark times
this probe next to each piece of work and scales the work's time by
REFERENCE_S / probe: a time "at reference speed".

The probe does what the wfcover kernel does, in the same style (bitmask
sets, a generator over set bits, connected components of induced
subgraphs), but it is the benchmark's own code: a change to wfcover cannot
change the probe, so it cannot scale its own gain or loss away.  It is
timed in thread CPU time, so sharing a vCPU with the scan's pool workers
does not count as slowness.

The two vCPUs are often in different regimes, so the probe must run where
the work ran: single-process work is pinned to one vCPU and probed there,
and the scan's pool, which runs on every vCPU, is probed on each in turn.
A regime can change in the middle of a long command, so single-process
work is also probed every SAMPLE_INTERVAL_S while it runs.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager

# The probe's thread CPU time, median of three, in the fast regime of the
# 2-vCPU Intel Xeon (KVM) host the baseline was recorded on; scaled times on
# that host in that regime equal measured times.
REFERENCE_S = 0.00072
SAMPLE_INTERVAL_S = 0.25

_N = 10
# A circulant graph: each vertex joined to its neighbours at distance 1 and 3.
_ADJ = tuple(
    ((1 << ((v + 1) % _N)) | (1 << ((v - 1) % _N)) | (1 << ((v + 3) % _N)) | (1 << ((v - 3) % _N)))
    for v in range(_N)
)
EXPECTED_TOTAL = 675  # components summed over the probe's masks: the same work every time


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(mask: int) -> int:
    count = 0
    rest = mask
    while rest:
        comp = 0
        frontier = rest & -rest
        while frontier:
            comp |= frontier
            step = 0
            for u in _iter_bits(frontier):
                step |= _ADJ[u]
            frontier = step & mask & ~comp
        rest &= ~comp
        count += 1
    return count


def _probe_once() -> float:
    t0 = time.thread_time()
    total = 0
    for mask in range(0, 1 << _N, 2):
        total += _components(mask)
    if total != EXPECTED_TOTAL:
        raise AssertionError(f"speed probe computed {total}, expected {EXPECTED_TOTAL}")
    return time.thread_time() - t0


def probe() -> float:
    """Thread CPU seconds of the reference computation, median of three tries.

    The median, not the minimum, because the thread clock now and then
    reads a try as taking no time at all.
    """
    return sorted(_probe_once() for _ in range(3))[1]


@contextmanager
def on_one_cpu():
    """Pin the calling thread to the first vCPU it may use, for the block."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def probe_each_cpu() -> float:
    """The mean of ``probe()`` on each vCPU this process may use.

    The calling thread is pinned to each in turn, then given back its
    original affinity.
    """
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


@contextmanager
def sampled():
    """Probe every SAMPLE_INTERVAL_S of wall time, for the block.

    Yields the list the samples go to, as (perf_counter, probe seconds).
    The probe runs in a SIGALRM handler, so on the main thread, where the
    work runs; it adds about 1 % to the time of the work it interrupts.
    """
    samples: list[tuple[float, float]] = []

    def take(signum, frame) -> None:
        samples.append((time.perf_counter(), probe()))

    previous = signal.signal(signal.SIGALRM, take)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def factor(*probes: float) -> float:
    """Scale for work timed among some probes: REFERENCE_S / their mean."""
    return REFERENCE_S * len(probes) / sum(probes)
