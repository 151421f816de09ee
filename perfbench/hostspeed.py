"""Scale measured host times to a reference host speed.

On a shared virtual machine the same code runs up to about twice as slow
for stretches of a tenth of a second to minutes, when another tenant loads
the physical core.  A fixed pure-Python kernel, which touches nothing of the
program under test, is timed right before and right after each measured
interval; the interval is multiplied by ``REFERENCE_S`` over the mean of the
two kernel times.  A slower program still reads slower, a slower host does
not.  The gated timings are these scaled times; the raw host times are
printed beside them.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

#: The kernel's time, in seconds, on a host of reference speed: a round
#: figure near its time on the two-vCPU reference machine (1.6-3.6 ms there,
#: depending on the neighbours).  Only ratios to it matter.
REFERENCE_S = 2.0e-3


def kernel_s(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds of ``clock`` one run of the fixed kernel takes.

    The collector is off meanwhile: its passes would walk the program's
    heap, and the kernel would then time the program's memory, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table = {}
        for i in range(4000):
            table[i] = (i, str(i), i * 0.5)
        rows = [{"key": key, "value": value[2]} for key, value in table.items()]
        sum(row["value"] for row in rows if row["key"] % 3)
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Brackets consecutive intervals with kernel runs.

    Construct it (or call :meth:`restart`) right before an interval and call
    :meth:`factor` right after it; the kernel run that ends one interval
    also starts the next.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._before = kernel_s(clock)

    def restart(self) -> None:
        self._before = kernel_s(self._clock)

    def factor(self) -> float:
        """Reference over host speed for the interval that just ended."""
        after = kernel_s(self._clock)
        factor = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return factor
