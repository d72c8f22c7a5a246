"""Machine-speed probe: a fixed kernel timed while the program runs.

The CPU speed a process gets on a shared machine is not constant: on the
reference machine the same sampler call takes anywhere from 1x to 2x its
fastest time, in spells of one second to minutes, on either CPU. Raw seconds
from runs made minutes apart therefore differ by more than the changes the
benchmark must resolve.

While a workload is measured, an interval timer fires every ``INTERVAL_S``
seconds and its signal handler times ``kernel()`` in the program's own thread,
between two of its bytecodes, so each sample shows the speed the program had
at that moment. Each command's time is then reported in reference seconds:

    reference seconds = program seconds * KERNEL_REF_S / median kernel time

with the median over the samples taken during that command (the latest five
for a command too short for three), and program seconds excluding the
handler's own time (``clock()``). On a machine running at the reference speed
the two are equal.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Median kernel time on the reference machine (Intel Xeon, 2 vCPUs, Python
# 3.11.7, numpy 2.4.6) in its fast spells.
KERNEL_REF_S = 1.2e-3

_RNG = np.random.default_rng(0)
_Y = _RNG.random(1610)
_INDEX = np.arange(1610) % 14
_EFFECTS = _RNG.random(14)
_ROWS = [f"ds{i:03d},alg{i % 14:02d},{i % 2 + 1},0.{i:03d}" for i in range(40)]
_KEYS = [(f"ds{i % 115:03d}", f"alg{i % 14:02d}", i % 2, i) for i in range(20000)]
_RECORDS = {key: float(key[3]) for key in _KEYS}
_LOOKUPS = [_KEYS[i] for i in _RNG.permutation(len(_KEYS))[:600]]


def kernel() -> float:
    """Fixed work in the program's mix, about 1.2 ms at the reference speed.

    Small-array numpy calls and RNG draws as in the sampler, string and dict
    work as in the CSV parser, and dict lookups in scattered order over a
    few MB of objects, so that contention for caches shows as it does in
    the program.
    """
    total = 0.0
    for _ in range(4):
        resid = _Y - 0.5 - _EFFECTS[_INDEX]
        lam = _RNG.gamma(1.5, 1.0 / (1.0 + resid * resid))
        sums = np.bincount(_INDEX, weights=lam * resid, minlength=14)
        total += float(np.dot(lam, resid)) + math.log(1.0 + abs(sums[0])) + _RNG.standard_normal()
    fields = {}
    for row in _ROWS:
        dataset, algorithm, subset, value = row.split(",")
        fields[dataset, algorithm] = (int(subset), float(value))
    for key in _LOOKUPS:
        total += _RECORDS[key]
    return total + len(fields)


class SpeedProbe:
    """Kernel samples taken on a timer signal; the clock that excludes them."""

    def __init__(self):
        self.samples = []  # kernel seconds
        self.spent = 0.0  # seconds spent in the handler so far

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter minus the handler's time: the program's own seconds."""
        return time.perf_counter() - self.spent

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor_since(self, first: int) -> float:
        """KERNEL_REF_S over the median kernel time of samples[first:].

        An interval too short for three samples uses the five latest ones,
        taking one now if there are none yet.
        """
        window = self.samples[first:]
        if len(window) < 3:
            if not self.samples:
                self._on_alarm(signal.SIGALRM, None)
            window = self.samples[-5:]
        return KERNEL_REF_S / statistics.median(window)
