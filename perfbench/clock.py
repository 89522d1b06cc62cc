"""Timing at a reference host speed.

The reference host, a 2-core shared virtual machine, changes speed in
phases that last seconds: ex1_cli's verify took 0.21 s in one phase and
0.40 s in the next. The phases are per virtual CPU (a probe running on
the other CPU did not follow them, correlation 0.05), so the speed is
sampled in the benchmark's own thread. ``probe`` times a fixed
computation. Inside a timed block a CPU-time interval timer runs it every
``PROBE_EVERY_S`` CPU seconds, and it runs once more before and after
the block. The probe's time is taken out of the block's wall and CPU
time.

Samples fall uniformly in CPU time, so with the block's CPU time ``C``
and probe times ``p_i``, ``C * PROBE_REF_S * mean(1 / p_i)`` estimates
the CPU time the block would take at the reference speed. On repeated
3-second blocks this cut the coefficient of variation from 8.2 % (raw)
and 11.1 % (probes only before and after) to 3.3 %.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: seconds of ``probe`` on the 2-core reference host at full speed
PROBE_REF_S = 0.02
#: CPU seconds between probes inside a timed block; a shorter probe taken
#: every 0.1 s tracked the phases worse (run spread 13 % against 3 %)
PROBE_EVERY_S = 0.5

_PROBE_MATRIX = np.random.default_rng(0).normal(size=(16, 64))


def probe(clock=time.process_time) -> float:
    """Seconds of a fixed computation: a Python loop and 100 small SVDs."""
    c0 = clock()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(100):
        np.linalg.svd(_PROBE_MATRIX, full_matrices=False)
    return clock() - c0


def reference_seconds(cpu_s: float, probes) -> float:
    """CPU seconds scaled to the reference speed by CPU-uniform probes."""
    return cpu_s * PROBE_REF_S * sum(1.0 / p for p in probes) / len(probes)


class Clock:
    """Seconds spent inside its ``with`` blocks, summed over blocks.

    ``wall`` and ``cpu`` are as measured, less the probes; ``ref`` is the
    CPU time at the reference speed. With ``sample=False`` (traced runs,
    whose spans must not contain probes) a block is probed only before and
    after. Blocks run on the main thread, which receives the timer signal.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.wall = self.cpu = self.ref = 0.0
        self.probes = []

    def __enter__(self):
        self._block = [probe()]
        self._lost = [0.0, 0.0]
        if self.sample:
            self._handler = signal.signal(signal.SIGVTALRM,
                                          self._probe_in_block)
            signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S,
                             PROBE_EVERY_S)
        self._start = (time.perf_counter(), time.process_time())
        return self

    def _probe_in_block(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self._block.append(probe())
        self._lost[0] += time.perf_counter() - w0
        self._lost[1] += time.process_time() - c0

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
            signal.signal(signal.SIGVTALRM, self._handler)
        wall = time.perf_counter() - self._start[0] - self._lost[0]
        cpu = time.process_time() - self._start[1] - self._lost[1]
        self._block.append(probe())
        self.wall += wall
        self.cpu += cpu
        self.ref += reference_seconds(cpu, self._block)
        self.probes += self._block
