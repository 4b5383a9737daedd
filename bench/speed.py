"""The machine's current speed, read from a fixed reference computation.

The cores of this host are shared with other guests, and the CPU time of
the same job drifts with their load by up to 40% over seconds to minutes.
A run therefore also times ``reference()``, a fixed computation that does
not touch commat, between its jobs, and scales its job times by
``NOMINAL_S / mean(reference times)``:
they read as CPU times at the speed at which ``reference()`` takes
``NOMINAL_S``.  A change to commat moves the jobs and not the reference,
so it shows in full; a change of the machine's speed moves both and
cancels.
"""

import statistics
import time

import numpy as np
from scipy.optimize import minimize, rosen, rosen_der

# Jobs and the reference are timed in CPU time of the one-thread workload
# process.  On a dedicated core that equals wall time; on a shared host it
# leaves out the time the host gives to other guests while the process waits.
CLOCK = time.process_time
NOMINAL_S = 0.008  # about the median time of reference() on the machine in README.md
PROBE_EVERY_S = 0.2  # of job time between two reference runs

_A = np.random.default_rng(0).standard_normal((8, 8)) / 3.0
_X0 = np.linspace(-1.2, 1.2, 6)


def reference():
    """About 8 ms of what commat's jobs are made of: small numpy products in
    a Python loop, one small L-BFGS-B solve, and plain Python."""
    m = _A
    s = 0.0
    for _ in range(500):
        m = np.tanh(_A @ m)
        s += float(m[0, 0])
    s += minimize(rosen, _X0, jac=rosen_der, method="L-BFGS-B").fun
    counts = {}
    for i in range(7000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return s + counts[0]


class Speed:
    """Reference timings taken between jobs, at least every PROBE_EVERY_S of job time."""

    def __init__(self):
        self.samples = []
        self._since = PROBE_EVERY_S

    def probe(self):
        t = CLOCK()
        reference()
        self.samples.append(CLOCK() - t)
        self._since = 0.0

    def after_job(self, job_s):
        self._since += job_s
        if self._since >= PROBE_EVERY_S:
            self.probe()

    def scale(self):
        """Factor from this run's CPU times to CPU times at the nominal speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
