"""Host-speed calibration for the end-to-end times.

The machine the benchmark was tuned on (2 vCPUs of a shared host)
changes speed by up to ~1.5x over minutes, and every part of the
program slows together. A fixed pure-Python loop, which shares no code
with the package, is timed next to the measured work: between the
passes of a run, and right after set-up in each set-up probe. Each
end-to-end time is then reported in reference seconds,

    measured seconds * REFERENCE_S / (median loop time),

the time the work would take on a host where the loop takes
``REFERENCE_S``. A change to the package moves these numbers exactly as
it moves the raw ones; only the host's drift cancels. The raw seconds
and the loop times are printed next to them.
"""

import statistics
import time

# median loop time on the tuning host (2 vCPUs, x86_64, Python 3.11) in a
# quiet stretch; any fixed value works, it only sets the unit
REFERENCE_S = 0.011
LOOPS_PER_SAMPLE = 5  # ~55 ms after each pass: 2-5% of a pass


def _loop():
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return s


def sample(clock=time.perf_counter):
    """Times of LOOPS_PER_SAMPLE runs of the calibration loop."""
    out = []
    for _ in range(LOOPS_PER_SAMPLE):
        t0 = clock()
        _loop()
        out.append(clock() - t0)
    return out


def factor(loop_times):
    """Multiplier from measured seconds to reference seconds."""
    return REFERENCE_S / statistics.median(loop_times)
