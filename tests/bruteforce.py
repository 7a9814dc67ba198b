"""Independent enumeration oracles used to check the closed-form module,
and scalar references for vectorised statistics."""

import itertools

from torusvoter.observables import ObservableSeries, fluid
from torusvoter.torus import TorusShape, neighbors


def enumerate_C0_moments(shape: TorusShape, p: float):
    """(E|C_0|, Var|C_0|) by summing over all 2^n configurations."""
    n, d = shape.n, shape.d
    nbrs = [neighbors(shape, x) for x in range(n)]
    mean = 0.0
    second = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        w = 1.0
        for b in bits:
            w *= p if b else 1.0 - p
        c = sum(1 for x in range(n) if sum(bits[y] for y in nbrs[x]) >= d)
        mean += w * c
        second += w * c * c
    return mean, second - mean * mean


def enumerate_suffix_count(shape: TorusShape, p: float, k: int) -> float:
    """E|I_0(k)| by enumeration."""
    n = shape.n
    nbrs = [neighbors(shape, x) for x in range(n)]
    mean = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        w = 1.0
        for b in bits:
            w *= p if b else 1.0 - p
        mean += w * sum(1 for x in range(n) if sum(bits[y] for y in nbrs[x]) >= k)
    return mean


def sup_deviation_loop(series: ObservableSeries, p: float, T: float) -> float:
    """observables.sup_deviation as one scalar fluid call per breakpoint.

    Interval i runs from times[i] to the next breakpoint capped at T (or to
    T after the last one); its deviation is the larger of the two endpoint
    gaps, and breakpoints past T end the scan.
    """
    best = 0.0
    times = series.times
    values = series.values
    f0 = fluid(p, times[0]) if times else 0.0
    for i, v in enumerate(values):
        if times[i] > T:
            break
        t1 = min(times[i + 1], T) if i + 1 < len(times) else T
        f1 = fluid(p, t1)
        dev = max(abs(v - f0), abs(v - f1))
        if dev > best:
            best = dev
        f0 = f1  # fluid at times[i + 1], unless that lies past T and ends the loop
    return best
