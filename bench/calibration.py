"""Machine-speed calibration for wall times on a shared, drifting CPU.

The effective speed of a small shared VM drifts by +-15% over seconds, far
more than the changes the benchmark must resolve.  A fixed kernel timed
right before and after each measured piece tracks that drift, so each wall
time t is also reported rescaled to the reference speed:

    t_ref = t * REFERENCE_S[kernel] / calibration_s

Each workload names the kernel that resembles its hot path: interpreter
work for the event engines, sparse-matrix assembly and matvecs for the
exact oracle (the interpreter loop over-corrects there: measured run-to-run
CV 0.17 against 0.085 raw and 0.075 with a 2^16-state sparse kernel).
REFERENCE_S is each kernel's median time on the machine of the first
baseline (2 vCPU Intel Xeon, Python 3.11.7), so t_ref reads as seconds there.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {"interpreter": 0.035, "sparse": 0.030}


def _interpreter() -> None:
    """List arithmetic and numpy scalar indexing, as in the event engines."""
    counts = np.zeros(4096, dtype=np.int32)
    bits = np.zeros(4096, dtype=np.uint8)
    slots = list(range(64))
    acc = 0
    for i in range(40_000):
        j = i & 63
        acc += slots[j] * (i % 7)
        slots[j] = acc & 1023
        k = (i * 97) & 4095
        counts[k] += 1
        if bits[k] == 0:
            acc += int(counts[k])


def _sparse() -> None:
    """Assemble a 2^15-state single-flip matrix and apply it, as the oracle
    does at 2^16 states; half the size keeps its memory below the oracle's,
    so it never sets the workload's peak RSS."""
    from scipy import sparse

    n = 1 << 15
    rows = np.repeat(np.arange(n, dtype=np.int32), 15)
    cols = rows ^ (1 << (np.arange(rows.size, dtype=np.int32) % 15))
    kernel = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    v = np.ones(n)
    for _ in range(8):
        v = v @ kernel


_KERNELS = {"interpreter": _interpreter, "sparse": _sparse}


def calibrate(kernel: str = "interpreter") -> float:
    """Seconds the fixed calibration kernel takes right now."""
    t0 = time.perf_counter()
    _KERNELS[kernel]()
    return time.perf_counter() - t0


def factor(before: float, after: float, kernel: str = "interpreter") -> float:
    """Multiplier taking a wall time measured between two calibrations to the
    reference speed."""
    return REFERENCE_S[kernel] / ((before + after) / 2.0)
