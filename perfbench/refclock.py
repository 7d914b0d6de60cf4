"""Reference seconds: wall time corrected for how fast the host runs right now.

On a shared host the same code can run at very different speeds from one
minute to the next.  On the 2-vCPU KVM guest where this benchmark was
written, one experiment call took anywhere from 0.45 s to 0.88 s within a
single minute, in phases lasting seconds to minutes.  No statistic taken
over one run can remove a phase that outlasts the run.

So every timed interval is bracketed by runs of ``calibrate()``, a fixed
mix of interpreter and numpy work that shares no code with riglab.  The
interval is reported in reference seconds: its wall time times
``REFERENCE_S / calibration time``.  That is the time it would have taken
on a host where ``calibrate()`` takes ``REFERENCE_S``.  A change to riglab
moves the interval but not the calibration, so the ratio still shows it.
The raw wall times are kept beside the scaled ones in the run record.

Set-up time is scaled by the median calibration of the whole run, not by
calibrations around each interpreter start.  Starting an interpreter and
importing riglab is process creation, file reads and unmarshalling, which
one 0.1 s calibration tracks poorly: scaled probe by probe, the run-to-run
spread of set-up time doubled.  Scaled by the run's median calibration,
the set-up medians of four workloads measured over 15 minutes ranged from
1.24 s to 1.41 s, against 1.06 s to 1.48 s raw.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.1

_VECTOR = np.linspace(0.0, 1.0, 100_000)


def calibrate() -> float:
    """Wall time of the fixed calibration work, about 0.1 s."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(150_000):
        table[i & 1023] = (i * 7) % 13 + len(table)
    for _ in range(200):
        float(np.sum(np.log1p(_VECTOR) * _VECTOR))
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale from wall seconds to reference seconds for an interval bracketed by two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)
