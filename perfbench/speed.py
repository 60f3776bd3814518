"""Machine-speed calibration of the measured requests.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes; a slow stretch slows every request in it alike.
Between requests, outside the timed window, the worker times a fixed
kernel made of harness code only: Python JSON encoding with an indent
(the program's serializer path) and small dense LAPACK calls (its linear
algebra).  Each request's wall time is then scaled by

    REFERENCE_S / median(kernel times within WINDOW_S of the request)

which is the time the request would have taken at the speed at which the
reference machine runs the kernel.  The program's code never runs inside
the kernel, so a change to the program moves the scaled times as it moves
the wall times; only the host's drift is divided out.  The worker also
reports the unscaled figures.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

#: Kernel time on the reference machine (2-core x86-64 VM, Xeon at
#: 2.1 GHz, OpenBLAS with one thread), in seconds.  Scaled times are
#: seconds at that machine's speed.
REFERENCE_S = 0.017
#: Calibrate again before a request once this much time has passed, so a
#: request always has a calibration less than this long before it.
EVERY_S = 1.0
#: A request is scaled by the calibrations from this long before it
#: starts to this long after it ends.
WINDOW_S = 2.0
#: Kernel runs per calibration; their median counts, so an interrupt
#: during one run does not count as a slow host.
REPEATS = 3


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.uniform(-1.0, 1.0, (40, 40)).tolist()
        m = rng.uniform(-1.0, 1.0, (224, 224))
        self._sym = m + m.T
        #: (time, kernel seconds) of each calibration, in order.
        self.samples: list[tuple[float, float]] = []
        #: (start, end) of each timed request.
        self.requests: list[tuple[float, float]] = []

    def _kernel(self) -> None:
        json.dumps(self._rows, indent=2)
        np.linalg.eigh(self._sym)
        np.linalg.svd(self._sym @ self._sym)

    def calibrate(self) -> None:
        # The cyclic collector is off during the kernel, so that its time
        # does not depend on how many objects the program left alive.
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples.append((time.perf_counter(), statistics.median(times)))

    def scale(self, seconds: float) -> float:
        """`seconds` at the reference machine's speed, by the last calibration."""
        return seconds * REFERENCE_S / self.samples[-1][1]

    def before_request(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.calibrate()

    def factors(self) -> list[float]:
        """REFERENCE_S over the kernel time around each timed request.

        The caller appends each request's (start, end) to `requests` and
        calibrates once more after the last request.
        """
        out = []
        for start, end in self.requests:
            near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
            out.append(REFERENCE_S / statistics.median(near))
        return out
