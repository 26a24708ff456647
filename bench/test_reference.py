"""Tests of the host-speed sampling.

    python3 -m pytest bench/test_reference.py
"""

import signal
import time

import source

source.prepare()

from reference import HostSpeed  # noqa: E402  (needs the set-up above)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_timer_samples_during_the_block_and_is_disarmed_after():
    speed = HostSpeed(warm_up=1)
    handler = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        _busy(0.6)
    assert len(speed.samples) > 2
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.scale() > 0.0

