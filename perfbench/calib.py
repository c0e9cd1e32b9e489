"""Machine-speed calibration for a shared, noisy host.

Other tenants slow the build machine (a 2-core x86-64 VM) by up to 1.8x
for 5 to 20 s at a time, per core.  Every timed span is therefore scaled
by CAL_REF_S over the time of a fixed pure-Python loop measured in the
same process right before and right after it, so times read as on the
quiet machine.  Pure Python on purpose: importing this module loads
nothing a setup measurement should pay for.
"""

import time

#: calibration_s() on the quiet build machine, Python 3.11
CAL_REF_S = 0.018


def _loop():
    acc = 0j
    for i in range(20000):
        z = complex(i % 97, i % 13) * 1e-3
        acc += z * z / (1 + z)
    return acc


def calibration_s():
    """Wall time of the fixed loop, run three times: the current speed."""
    start = time.perf_counter()
    for _ in range(3):
        _loop()
    return time.perf_counter() - start


class Clock:
    """Scales each timed span by the calibrations on both sides of it."""

    def __init__(self):
        self.last = calibration_s()

    def scale(self, seconds):
        before, self.last = self.last, calibration_s()
        return seconds * CAL_REF_S / ((before + self.last) / 2)
