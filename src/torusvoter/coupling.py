"""Coupled constructions with pathwise domination.

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

Both runs read and write the marginals through memoryviews, flip the
voter marginals with the engine's spin.flip_and_count and take the
threshold rate from the rows of spin.rate_table.  The death marginal keeps
its bits only: a death flip clears the bit, and its ones_nbr is not kept
up to date, since a death rate is the bit alone.  After a flip at x the
runs resync the arms of x, then of the neighbors whose rate toggled in the
marginal that moved (of every neighbor when both moved), in the kernel's
order; the other neighbors' arms cannot change, so the adds and removes,
and every draw, are those of a recheck of x and all its neighbors.  They
share one loop, _coupled_loop, which rings their arms through
spin._IndexedSet.ring and a spin.DrawStream, as the engine does; each run
supplies its arms and a fire(t, arm) closure that flips and resyncs them.
Both draw their start with rng.random(), which leaves no half-word, so the
stream's draws are those of direct rng.random() and rng.integers(k) calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .observables import ObservableSeries
from .spin import (THRESHOLD, Configuration, DrawStream, _IndexedSet, check_horizon,
                   config_from_bits, flip_and_count, rate_rows, rate_table,
                   sample_product, toggle_rows)
from .torus import TorusShape, neighbor_lists


class DominationError(AssertionError):
    """Lower marginal exceeded the upper one at some vertex."""


class CoupledEvent(NamedTuple):
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


def _views(cfg: Configuration):
    """(bits, ones_nbr) memoryviews of a marginal's live arrays."""
    return memoryview(cfg.bits), memoryview(cfg.ones_nbr)


def _flip(views, x: int, nbrs, w: int, toggles) -> tuple[int, list[int]]:
    """Flip x in one marginal: (new value, neighbors whose rate toggled)."""
    bits, ones = views
    new = 1 - bits[x]
    return new, flip_and_count(bits, ones, x, new, nbrs, w, toggles)


def _threshold_rates(cfg: Configuration) -> np.ndarray:
    return rate_table(cfg.shape.d, THRESHOLD)[cfg.bits, cfg.ones_nbr].astype(bool)


def coupled_run_eta_zeta(shape: TorusShape, p: float, T: float,
                         rng: np.random.Generator) -> CoupledTrajectory:
    """Voter model (upper) and death process (lower) on shared clocks.

    Both marginals start from the same Bernoulli(p) draw.  Rings are thinned
    to the union active set; vertices inactive in both marginals ring with
    no effect and are skipped exactly.
    """
    check_horizon(T)
    upper = sample_product(shape, p, rng)
    lower = upper.copy()
    return _run_eta_zeta(upper, lower, T, rng)


def _run_eta_zeta(upper, lower, T, rng):
    """The voter/death coupling from identical starts.  The death marginal
    keeps its bits only: its ones_nbr is not kept up to date."""
    shape = upper.shape
    if not np.array_equal(upper.bits, lower.bits):
        raise ValueError("coupled start requires identical initial states")
    nbrs_of, w = neighbor_lists(shape)
    rates = rate_rows(shape.d, THRESHOLD)
    toggles = toggle_rows(shape.d, THRESHOLD, w)
    ub, uo = upper_v = _views(upper)
    lb = memoryview(lower.bits)
    # ascending vertex order, as adding them one by one would give
    union = (lower.bits == 1) | _threshold_rates(upper)
    active = _IndexedSet(shape.n, np.flatnonzero(union).tolist())
    pos = active.pos

    def fire(t, x):
        nbrs = nbrs_of(x)
        upper_new = lower_new = None
        toggled = ()
        if rates[ub[x]][uo[x]]:
            upper_new, toggled = _flip(upper_v, x, nbrs, w, toggles)
        if lb[x] == 1:
            lb[x] = lower_new = 0
        # a death arm changes only at x, a voter arm at x and where the
        # upper rate toggled: x first, then the kernel's order
        for y in (x, *toggled):
            if lb[y] == 1 or rates[ub[y]][uo[y]]:
                if pos[y] < 0:
                    active.add(y)
            elif pos[y] >= 0:
                active.remove(y)
        return CoupledEvent(t, x, upper_new, lower_new)

    return _coupled_loop(upper, lower, active, fire, T, rng)


def coupled_run_monotone(shape: TorusShape, p1: float, p2: float, T: float,
                         rng: np.random.Generator) -> CoupledTrajectory:
    """Monotone coupling of two voter models at densities p1 <= p2.

    Initial coupling: one uniform per vertex, lower bit = 1{U < p1},
    upper bit = 1{U < p2}.  Clock arms per vertex: a shared arm while the
    marginals agree at the vertex, two independent arms while they do not.
    """
    check_horizon(T)
    if p1 > p2:
        raise ValueError(f"need p1 <= p2, got {p1} > {p2}")
    u = rng.random(shape.n)
    lower = config_from_bits(shape, u < p1)
    upper = config_from_bits(shape, u < p2)
    nbrs_of, w = neighbor_lists(shape)
    rates = rate_rows(shape.d, THRESHOLD)
    toggles = toggle_rows(shape.d, THRESHOLD, w)
    upper_v, lower_v = _views(upper), _views(lower)
    (ub, uo), (lb, lo) = upper_v, lower_v

    # arm encoding: 2x   = shared clock (concordant) or lower sub-clock,
    #               2x+1 = upper sub-clock (discordant only).
    # Arm 2x is wanted when the lower rate is 1, or the upper one at a
    # concordant site; arm 2x+1 when the upper rate is 1 at a discordant one.
    rl, ru = _threshold_rates(lower), _threshold_rates(upper)
    concordant = lower.bits == upper.bits
    wanted = np.empty(2 * shape.n, dtype=bool)
    wanted[0::2] = rl | (ru & concordant)
    wanted[1::2] = ru & ~concordant
    # ascending arm order, as syncing the vertices one by one would give
    arms = _IndexedSet(2 * shape.n, np.flatnonzero(wanted).tolist())
    pos = arms.pos

    def fire(t, arm):
        x, sub = arm >> 1, arm & 1
        nbrs = nbrs_of(x)
        upper_new = lower_new = None
        toggled = ()
        if lb[x] == ub[x]:
            # shared clock: each marginal flips iff its own rate is 1
            if rates[lb[x]][lo[x]]:
                lower_new, toggled = _flip(lower_v, x, nbrs, w, toggles)
            if rates[ub[x]][uo[x]]:
                upper_new, toggled = _flip(upper_v, x, nbrs, w, toggles)
            if upper_new is not None and lower_new is not None:
                toggled = nbrs  # both moved: recheck every neighbor
        elif sub == 0:
            lower_new, toggled = _flip(lower_v, x, nbrs, w, toggles)  # 0 -> 1
        else:
            upper_new, toggled = _flip(upper_v, x, nbrs, w, toggles)  # 1 -> 0
        # the arms of a neighbor change only where the marginal that moved
        # toggled its rate: x first, then the kernel's order
        for y in (x, *toggled):
            want0, want1 = rates[lb[y]][lo[y]], rates[ub[y]][uo[y]]
            if lb[y] == ub[y]:  # concordant: one shared arm
                want0, want1 = want0 or want1, 0
            arm = 2 * y
            if want0:
                if pos[arm] < 0:
                    arms.add(arm)
            elif pos[arm] >= 0:
                arms.remove(arm)
            arm += 1
            if want1:
                if pos[arm] < 0:
                    arms.add(arm)
            elif pos[arm] >= 0:
                arms.remove(arm)
        return CoupledEvent(t, x, upper_new, lower_new)

    return _coupled_loop(upper, lower, arms, fire, T, rng)


def _coupled_loop(upper, lower, arms, fire, T, rng) -> CoupledTrajectory:
    """Ring the arms until T; fire(t, arm) flips, resyncs the arms and
    returns the CoupledEvent.

    Domination is scanned in full at the start and the end, and checked at
    the event's vertex after each event.
    """
    events: list[CoupledEvent] = []
    traj = CoupledTrajectory(upper.copy(), lower.copy(), events, T)
    _check_domination(lower, upper)
    t = 0.0
    draws = DrawStream(rng)
    while (ring := arms.ring(draws, t, T)) is not None:
        t, arm = ring
        ev = fire(t, arm)
        events.append(ev)
        _check_domination(lower, upper, ev.vertex)
    _check_domination(lower, upper)
    return traj
