"""A fixed burst of interpreter work that measures the host's current speed.

The machines this benchmark runs on share their CPUs, and their speed can
change by more than half from one second to the next.  Timing this burst
right before and after each measured command tells how fast the host was at
that moment, so that times can be scaled to one reference speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Time the burst takes at the reference speed.  Scaled times read as the
# seconds the work would take on a host where the burst takes this long.
REFERENCE_NS = 10_000_000


def burst_ns() -> int:
    """Nanoseconds spent on a fixed mix of Fraction and int arithmetic."""
    start = time.perf_counter_ns()
    f = Fraction(0)
    for k in range(1, 400):
        f = (f + Fraction(k, 7)) * Fraction(3, 5)
    x = 0
    for k in range(50_000):
        x += k * k % 7
    return time.perf_counter_ns() - start


def scale(elapsed, before_ns: int, after_ns: int):
    """``elapsed`` at the reference speed, from the bursts around it."""
    return elapsed * 2 * REFERENCE_NS / (before_ns + after_ns)
