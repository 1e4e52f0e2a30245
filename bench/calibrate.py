"""Host-speed calibration shared by the benchmark's processes.

The host's speed drifts by tens of percent over seconds to minutes (shared
virtual CPUs), and operation times drift with it.  A fixed loop in the
style of the package's per-point code (small numpy arrays, crisp norms and
float arithmetic) is timed next to the measured work, and end-to-end times
are reported at the speed at which one pass takes ``REFERENCE_S``:
``seconds * REFERENCE_S / pass seconds``.
"""

from __future__ import annotations

import math
import time

STEPS = 30_000
REFERENCE_S = 0.1


def calibration_pass() -> float:
    """Seconds taken by one pass of the calibration loop."""
    import numpy as np

    v = np.zeros(3)
    acc = 0.0
    start = time.perf_counter()
    for i in range(STEPS):
        v[i % 3] = i * 1e-3
        r = float(np.linalg.norm(np.atleast_1d(np.asarray(v, dtype=float))))
        acc += 0.5 / (0.5 + r) + math.sin(r)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite value")
    return elapsed


class Pace:
    """Calibration passes between consecutive measured items."""

    def __init__(self) -> None:
        self.passes = [calibration_pass()]

    def factor(self) -> float:
        """Run the pass after the item just measured and return the item's
        scale factor, from the mean of the passes before and after it."""
        after = calibration_pass()
        before = self.passes[-1]
        self.passes.append(after)
        return REFERENCE_S / ((before + after) / 2.0)
