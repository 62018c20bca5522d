"""Host pace: a fixed reference computation timed next to the work.

On shared hosts the same single-threaded Python work can run 1.5-2x
slower for seconds or minutes at a time, with wall time still equal to
CPU time, so no scheduler statistic shows it. The benchmark therefore
times a reference that depends on nothing in this repository (scipy's
``quad`` over fixed Python integrands, the same mix of interpreter and
QUADPACK work the library does) between operations, and reports each
time scaled to a host on which the reference takes ``REFERENCE_S``:
``reported = measured * REFERENCE_S / reference measured nearby``.
Raw seconds are kept next to the scaled ones in the run's details.
"""

import math
import time

from scipy.integrate import quad

REFERENCE_S = 0.004  # the reference's time on the nominal host
INTERVAL_S = 0.1  # work between two reference samples inside a pass


def _integrand(x, k):
    return math.exp(-x * x * (1.0 + 0.01 * k)) * math.cos(3.0 * x) + 1e-3 * math.sin(x)


def reference():
    """Seconds taken by the fixed reference computation."""
    start = time.perf_counter()
    for k in range(24):
        quad(_integrand, -6.0, 6.0, args=(k,), epsabs=1e-13, epsrel=1e-10)
    return time.perf_counter() - start


class Pace:
    """Reference samples taken between the operations of one pass."""

    def __init__(self):
        self.samples = []  # (index of the op that followed, seconds)
        self._due = 0.0
        self.spent = 0.0  # wall time taken by the samples themselves
        reference()  # the first call pays for lazy set-up in scipy

    def before(self, index, force=False):
        """Take a sample before op ``index`` when one is due."""
        now = time.perf_counter()
        if force or now >= self._due:
            ref = reference()
            self.samples.append((index, ref))
            self._due = time.perf_counter() + INTERVAL_S
            self.spent += time.perf_counter() - now

    def scales(self, n_ops):
        """Per op, REFERENCE_S over the median of the last sample taken
        before it and the samples on either side of that one."""
        refs = [r for _, r in self.samples]
        out = []
        j = 0
        for i in range(n_ops):
            while j + 1 < len(refs) and self.samples[j + 1][0] <= i:
                j += 1
            near = refs[max(0, j - 1):j + 2]
            out.append(REFERENCE_S / sorted(near)[len(near) // 2])
        return out

    def scale(self):
        """REFERENCE_S over the median of all samples."""
        refs = sorted(r for _, r in self.samples)
        return REFERENCE_S / refs[len(refs) // 2]
