"""Set-valued observables, fluid-limit curves, and sup-deviation statistics.

The neighbor-sum histogram of a configuration, h[k] = #vertices with
exactly k one-neighbors (k = 0..2d), is a plain int64 array, one row per
configuration (neighbor_histograms); |I(k)|, the vertices with at least k
one-neighbors, is h[k:].sum().
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np


@dataclass
class ObservableSeries:
    """Piecewise-constant series: value values[i] on [times[i], times[i+1])."""

    times: list[float]
    values: list[float]
    horizon: float

    def value_at(self, t: float) -> float:
        if t < 0 or t > self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        i = bisect.bisect_right(self.times, t) - 1
        return self.values[i]


def neighbor_histograms(ones_nbr: np.ndarray, d: int) -> np.ndarray:
    """Row i: the 2d+1 histogram counts of the neighbor sums ones_nbr[i],
    from one offset bincount over all rows."""
    rows, width = ones_nbr.shape[0], 2 * d + 1
    offset = ones_nbr + width * np.arange(rows)[:, None]
    counts = np.bincount(offset.ravel(), minlength=rows * width)
    return counts.reshape(rows, width).astype(np.int64, copy=False)


def fluid(p: float, t):
    """Limit curve of the ones-fraction: pe^{-t} below 1/2, 1-(1-p)e^{-t} above.

    t may be a scalar or an array.  The high-dimension convergence
    guarantee excludes p = 1/2; there the symmetry mean 1/2 is returned
    (see fluid_in_scope).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {p}")
    if np.any(np.less(t, 0)):
        raise ValueError(f"time must be nonnegative, got {t}")
    if p < 0.5:
        return p * np.exp(-t)
    if p > 0.5:
        return 1.0 - (1.0 - p) * np.exp(-t)
    return np.full(np.shape(t), 0.5) if np.ndim(t) else 0.5


def fluid_in_scope(p: float) -> bool:
    """Whether the convergence guarantee covers this density (not p = 1/2)."""
    return p != 0.5


def sup_deviation(series: ObservableSeries, p: float, T: float) -> float:
    """Exact sup over [0, T] of |fraction(t) - fluid(p, t)|.

    The fraction is constant on each inter-event interval and the fluid
    curve is monotone in t, so the sup on an interval is attained at one of
    its endpoints.  The series must already be normalized by r^d.  One
    fluid call covers every breakpoint up to T, and T itself.
    """
    m = bisect.bisect_right(series.times, T)  # intervals starting by T
    if m == 0:
        return 0.0
    f = fluid(p, np.append(series.times[:m], T))
    v = np.asarray(series.values[:m], dtype=float)
    return float(np.maximum(np.abs(v - f[:-1]), np.abs(v - f[1:])).max())


def fraction_series(traj) -> ObservableSeries:
    """The ones-fraction series of a spin.Trajectory, built after the run.

    Equal to what FractionObserver records: the same integer counts, moved
    by +-1 per event, over the same n.
    """
    n = traj.initial.shape.n
    new = np.fromiter((ev.new_value for ev in traj.events), np.int64, len(traj.events))
    start = traj.initial.ones_count()
    counts = start + np.cumsum(2 * new - 1)
    return ObservableSeries([0.0] + [ev.time for ev in traj.events],
                            [start / n] + (counts / n).tolist(), traj.horizon)


class FractionObserver:
    """Records the ones-fraction series of a trajectory (feed to spin.run)."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self._count = None
        self._horizon = 0.0

    def __call__(self, time, engine, event):
        n = engine.cfg.shape.n
        if event is None and not self.times:
            self._count = engine.cfg.ones_count()
            self.times.append(0.0)
            self.values.append(self._count / n)
            return
        if event is not None:
            self._count += 1 if event.new_value == 1 else -1
            self.times.append(time)
            self.values.append(self._count / n)
        self._horizon = max(self._horizon, time)

    def series(self) -> ObservableSeries:
        return ObservableSeries(list(self.times), list(self.values), self._horizon)


class EAccumulator:
    """Tracks E_t = union over s <= t of C_s, updated incrementally.

    A vertex joins E the first instant its ones-neighbor count reaches d
    (including t = 0).  A flip at x only changes the counts of x's
    neighbors, so only those are rechecked per event, one scalar read
    each through the engine's views; the neighbor list is the one the
    engine built for the flip (engine.last_nbrs).
    """

    def __init__(self):
        self.in_E = None
        self._in_view = None
        self.times: list[float] = []
        self.sizes: list[int] = []
        self._size = 0
        self._horizon = 0.0

    def __call__(self, time, engine, event):
        cfg = engine.cfg
        d = cfg.shape.d
        if self.in_E is None:
            self.in_E = cfg.ones_nbr >= d
            self._in_view = memoryview(self.in_E)
            self._size = int(self.in_E.sum())
            self.times.append(0.0)
            self.sizes.append(self._size)
            return
        if event is not None:
            in_E, ones = self._in_view, engine.ones_view
            fresh = 0
            for y in engine.last_nbrs:
                if not in_E[y] and ones[y] >= d:
                    in_E[y] = True
                    fresh += 1
            if fresh:
                self._size += fresh
                self.times.append(time)
                self.sizes.append(self._size)
        self._horizon = max(self._horizon, time)

    def series(self) -> ObservableSeries:
        return ObservableSeries(list(self.times), [float(s) for s in self.sizes],
                                self._horizon)

    @property
    def size(self) -> int:
        return self._size
