"""Coupled constructions with pathwise domination, and survival-time extraction.

Two couplings are provided:

* voter/death coupling: one unit-rate clock per vertex shared by both
  marginals.  At a ring of x the death marginal flips a 1 to 0
  unconditionally and the voter marginal flips iff its threshold rate is 1.
  Both flips send (1, 1) to (value, 0), so lower <= upper is preserved
  pathwise.

* monotone two-density coupling: concordant sites share one clock (both
  marginals flip together whenever both rates are 1); discordant sites
  (lower 0, upper 1) get two independent sub-clocks so the order-breaking
  simultaneous flip to (1, 0) never happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import ObservableSeries
from .spin import (Configuration, Trajectory, _IndexedSet, _exp_variate,
                   build_ones_nbr, flip_and_count, sample_product, threshold_rate)
from .torus import TorusShape, neighbor_kernel


class DominationError(AssertionError):
    """Lower marginal exceeded the upper one at some vertex."""


@dataclass
class CoupledEvent:
    time: float
    vertex: int
    upper_new: int | None  # None when that marginal did not flip
    lower_new: int | None


@dataclass
class CoupledTrajectory:
    upper_initial: Configuration
    lower_initial: Configuration
    events: list[CoupledEvent]
    horizon: float

    def upper_sizes(self) -> ObservableSeries:
        return self._sizes("upper_new", self.upper_initial)

    def lower_sizes(self) -> ObservableSeries:
        return self._sizes("lower_new", self.lower_initial)

    def _sizes(self, attr, initial: Configuration) -> ObservableSeries:
        count = initial.ones_count()
        times, values = [0.0], [float(count)]
        for ev in self.events:
            new = getattr(ev, attr)
            if new is not None:
                count += 1 if new == 1 else -1
                times.append(ev.time)
                values.append(float(count))
        return ObservableSeries(times, values, self.horizon)


def _check_domination(lower: Configuration, upper: Configuration, x: int | None = None):
    """lower <= upper at x, or at every vertex when x is None.

    An event changes only bits[x], so the runs check x after each event and
    scan every vertex once at the start and once at the end.
    """
    if x is None:
        over = np.flatnonzero(lower.bits > upper.bits)
        if over.size == 0:
            return
        x = int(over[0])
    elif lower.bits[x] <= upper.bits[x]:
        return
    raise DominationError(f"lower({x}) = 1 > upper({x}) = 0")


def _flip(cfg: Configuration, x: int, nbrs, w: int) -> int:
    return flip_and_count(cfg, x, 1 - int(cfg.bits[x]), nbrs, w)


def coupled_run_eta_zeta(shape: TorusShape, p: float, T: float,
                         rng: np.random.Generator,
                         check: bool = True) -> CoupledTrajectory:
    """Voter model (upper) and death process (lower) on shared clocks.

    Both marginals start from the same Bernoulli(p) draw.  Rings are thinned
    to the union active set; vertices inactive in both marginals ring with
    no effect and are skipped exactly.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    upper = sample_product(shape, p, rng)
    lower = upper.copy()
    return _run_eta_zeta(upper, lower, T, rng, check)


def _run_eta_zeta(upper, lower, T, rng, check):
    shape = upper.shape
    if not np.array_equal(upper.bits, lower.bits):
        raise ValueError("coupled start requires identical initial states")
    nbrs_of, w = neighbor_kernel(shape)

    def in_union(x):
        return lower.bits[x] == 1 or threshold_rate(upper, x) == 1

    active = _IndexedSet(shape.n)
    for x in range(shape.n):
        if in_union(x):
            active.add(x)
    events: list[CoupledEvent] = []
    traj = CoupledTrajectory(upper.copy(), lower.copy(), events, T)
    if check:
        _check_domination(lower, upper)
    t = 0.0
    while True:
        k = len(active)
        if k == 0:
            break
        t += _exp_variate(rng, k)
        if t >= T:
            break
        x = active.items[int(rng.integers(k))]
        nbrs = nbrs_of(x)
        upper_new = _flip(upper, x, nbrs, w) if threshold_rate(upper, x) else None
        lower_new = _flip(lower, x, nbrs, w) if lower.bits[x] == 1 else None
        events.append(CoupledEvent(t, x, upper_new, lower_new))
        for y in (x, *nbrs.tolist()):
            if in_union(y):
                active.add(y)
            else:
                active.remove(y)
        if check:
            _check_domination(lower, upper, x)
    if check:
        _check_domination(lower, upper)
    return traj


def coupled_run_monotone(shape: TorusShape, p1: float, p2: float, T: float,
                         rng: np.random.Generator,
                         check: bool = True) -> CoupledTrajectory:
    """Monotone coupling of two voter models at densities p1 <= p2.

    Initial coupling: one uniform per vertex, lower bit = 1{U < p1},
    upper bit = 1{U < p2}.  Clock arms per vertex: a shared arm while the
    marginals agree at the vertex, two independent arms while they do not.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if p1 > p2:
        raise ValueError(f"need p1 <= p2, got {p1} > {p2}")
    u = rng.random(shape.n)
    lower = _config(shape, u < p1)
    upper = _config(shape, u < p2)
    nbrs_of, w = neighbor_kernel(shape)

    # arm encoding: 2x   = shared clock (concordant) or lower sub-clock,
    #               2x+1 = upper sub-clock (discordant only)
    arms = _IndexedSet(2 * shape.n)

    def sync(x):
        rl, ru = threshold_rate(lower, x), threshold_rate(upper, x)
        concordant = lower.bits[x] == upper.bits[x]
        want0 = (rl or ru) if concordant else bool(rl)
        want1 = bool(ru) and not concordant
        (arms.add if want0 else arms.remove)(2 * x)
        (arms.add if want1 else arms.remove)(2 * x + 1)

    for x in range(shape.n):
        sync(x)
    events: list[CoupledEvent] = []
    traj = CoupledTrajectory(upper.copy(), lower.copy(), events, T)
    if check:
        _check_domination(lower, upper)
    t = 0.0
    while True:
        k = len(arms)
        if k == 0:
            break
        t += _exp_variate(rng, k)
        if t >= T:
            break
        arm = arms.items[int(rng.integers(k))]
        x, sub = arm >> 1, arm & 1
        nbrs = nbrs_of(x)
        upper_new = lower_new = None
        if lower.bits[x] == upper.bits[x]:
            # shared clock: each marginal flips iff its own rate is 1
            if threshold_rate(lower, x):
                lower_new = _flip(lower, x, nbrs, w)
            if threshold_rate(upper, x):
                upper_new = _flip(upper, x, nbrs, w)
        elif sub == 0:
            lower_new = _flip(lower, x, nbrs, w)  # discordant 0 -> 1
        else:
            upper_new = _flip(upper, x, nbrs, w)  # discordant 1 -> 0
        events.append(CoupledEvent(t, x, upper_new, lower_new))
        for y in (x, *nbrs.tolist()):
            sync(y)
        if check:
            _check_domination(lower, upper, x)
    if check:
        _check_domination(lower, upper)
    return traj


def _config(shape, mask) -> Configuration:
    bits = mask.astype(np.uint8)
    return Configuration(shape, bits, build_ones_nbr(shape, bits))


@dataclass
class SurvivalRecord:
    """First hit of state 0 per initially-1 vertex, censored at the horizon.

    tau[x] is math.inf when x never reached 0 in [0, T].  first_ring[x],
    when available (naive engine with ring recording), is the first clock
    ring of x; pathwise tau[x] >= first_ring[x] is the only hard guarantee.
    """

    vertices: list[int]  # A_0, sorted
    tau: dict[int, float]
    horizon: float
    first_ring: dict[int, float] | None = None

    def surviving(self, t: float) -> list[int]:
        return [x for x in self.vertices if self.tau[x] > t]

    def F_series(self) -> ObservableSeries:
        """|F_t| = #{x in A_0 : tau_x > t}, piecewise constant."""
        times, values = [0.0], [float(len(self.vertices))]
        hits = sorted(t for t in self.tau.values() if t < math.inf)
        count = len(self.vertices)
        for t in hits:
            count -= 1
            times.append(t)
            values.append(float(count))
        return ObservableSeries(times, values, self.horizon)


def survival_times(traj: Trajectory, first_ring=None) -> SurvivalRecord:
    """Extract tau_x for every x in A_0 from a voter-model trajectory."""
    a0 = sorted(int(x) for x in np.nonzero(traj.initial.bits)[0])
    a0_set = set(a0)
    tau = {x: math.inf for x in a0}
    for ev in traj.events:
        if ev.new_value == 0 and ev.vertex in a0_set and tau[ev.vertex] == math.inf:
            tau[ev.vertex] = ev.time
    rings = None
    if first_ring is not None:
        rings = {x: first_ring[x] for x in a0}
    return SurvivalRecord(a0, tau, traj.horizon, rings)
