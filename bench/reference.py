"""Host speed, sampled with a fixed computation while the program runs.

The benchmark runs on a shared host whose speed drifts: identical work
runs up to 1.8 times slower for tens of seconds at a time, and a fixed
pure-Python loop varies by 15 % between 70 ms samples.  So while a round
is timed, an interval timer interrupts it every ``INTERVAL_S`` seconds to
time one pass of a fixed reference computation (``reference_pass``:
Python containers, a small dense LAPACK solve and dense products, none of
them from the program), and the round's time is scaled to the host speed
at which that pass takes ``NOMINAL_S`` seconds on average.

The mean, not the median, of the passes: the host slows down in bursts,
and a round's time, a sum, takes them in in proportion.  Over 36 rounds
of one repeated ``small_many`` config, the log of the round time followed
the log of the mean pass time with slope 1.06 (correlation 0.90), and
scaling cut the spread of the round times from 11 % to 5 %; the median
of the same passes gave slope 1.5, and passes of 0.7 ms instead of 7 ms
tracked worse.  The reference is the benchmark's own code, so a change to
the program moves the scaled times as it moves the raw ones.  The passes
add about 3 % to the raw time of a round.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.linalg

# seconds of one reference pass at the nominal host speed (about its
# mean on the reference machine, see README.md); only a unit scale
NOMINAL_S = 0.008
INTERVAL_S = 0.25
# repeats of the basic unit in one pass
_UNITS = 12

_rng = np.random.default_rng(12345)
_SYM = _rng.standard_normal((32, 32))
_SYM = _SYM + _SYM.T
_DENSE = _rng.standard_normal((600, 600))
_VEC = _rng.standard_normal(600)
_NODES = 300


def _unit() -> float:
    adj: dict[int, list[int]] = {v: [] for v in range(_NODES)}
    for v in range(_NODES):
        for step in (7, 13, 31):
            w = v * step % _NODES
            adj[v].append(w)
            adj[w].append(v)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    top = scipy.linalg.eigvalsh(_SYM)[-1]
    x = _VEC
    for _ in range(2):
        x = _DENSE @ x
        x = x / np.abs(x).max()
    return len(seen) + float(top) + float(x[0])


def reference_pass() -> float:
    """One fixed mixed computation of about 7 ms."""
    return sum(_unit() for _ in range(_UNITS))


class HostSpeed:
    """Reference timings taken during timed work, and the scale they give it."""

    def __init__(self, warm_up: int = 5) -> None:
        for _ in range(warm_up):
            reference_pass()
        self.samples: list[float] = []  # every pass of the run
        self._span: list[float] = []  # the passes of the last sampled span

    def _time_pass(self) -> None:
        t0 = time.perf_counter()
        reference_pass()
        elapsed = time.perf_counter() - t0
        self._span.append(elapsed)
        self.samples.append(elapsed)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host speed during the block, and right before and after it."""
        # the passes before and after give a short span samples too
        self._span = []
        self._time_pass()
        previous = signal.signal(signal.SIGALRM, lambda *_: self._time_pass())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._time_pass()

    def scale(self) -> float:
        """Factor that turns seconds of the last sampled span into nominal seconds."""
        return NOMINAL_S / statistics.fmean(self._span)
