"""Reference code that only the tests use: no CLI mode or script calls it.

The set classification of a configuration, per-vertex survival times of a
voter-model trajectory, the vectorised death-process sampler, the scalar
death rate, the coordinate enumeration of a torus, the ball replay of a
trajectory, the scalar single-box count and the Poisson sum of a
uniformized series from e^{-nt}.  The exact judges of the paper's claims
(oracle.death_law, the orbit oracle, the binomial tails) stay in the
package; these are the quantities the tests hold against them.
"""

import math
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from torusvoter.ballgame import MAX_JUMPS, _too_many_jumps, approach4_run, step_count
from torusvoter.observables import ObservableSeries, neighbor_histograms
from torusvoter.oracle import UniformizedSeries
from torusvoter.spin import (THRESHOLD, Configuration, Trajectory, check_horizon,
                             flip_and_count, toggle_rows)
from torusvoter.torus import TorusShape, neighbor_lists


@dataclass
class SetClassification:
    """Membership masks for A (ones), B (zeros), C (>= d one-nbrs), D (<= d)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def sizes(self):
        return {k: int(getattr(self, k).sum()) for k in "ABCD"}


def classify(cfg: Configuration) -> SetClassification:
    d = cfg.shape.d
    ones = cfg.bits.astype(bool)
    return SetClassification(
        A=ones,
        B=~ones,
        C=cfg.ones_nbr >= d,
        D=cfg.ones_nbr <= d,
    )


@dataclass
class SurvivalRecord:
    """First hit of state 0 per initially-1 vertex, censored at the horizon.

    tau[x] is math.inf when x never reached 0 in [0, T].  Pathwise, tau[x]
    is at least the first clock ring of x; the active-set engine skips the
    rings that change nothing, so the check of that bound runs on the
    rejection engine in tests/bruteforce.py, which records every ring.
    """

    vertices: list[int]  # A_0, sorted
    tau: dict[int, float]
    horizon: float

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


def survival_times(traj: Trajectory) -> SurvivalRecord:
    """Extract tau_x for every x in A_0 from a voter-model trajectory."""
    a0 = sorted(int(x) for x in np.nonzero(traj.initial.bits)[0])
    a0_set = set(a0)
    tau = {x: math.inf for x in a0}
    for ev in traj.events:
        if ev.new_value == 0 and ev.vertex in a0_set and tau[ev.vertex] == math.inf:
            tau[ev.vertex] = ev.time
    return SurvivalRecord(a0, tau, traj.horizon)


def sample_death_counts(shape: TorusShape, p: float, times, replicas: int,
                        rng: np.random.Generator) -> np.ndarray:
    """|G_t| at each grid time for `replicas` independent death processes.

    Vectorized and exact in law: each initial 1 dies at an independent
    Exp(1) time, zeros are frozen.  Returns an int array of shape
    (replicas, len(times)).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {p}")
    times = np.asarray(times, dtype=float)
    out = np.empty((replicas, times.size), dtype=np.int64)
    for i in range(replicas):
        alive0 = rng.random(shape.n) < p
        deaths = -np.log1p(-rng.random(shape.n))
        for j, t in enumerate(times):
            out[i, j] = int(np.count_nonzero(alive0 & (deaths > t)))
    return out


def all_coordinates(shape: TorusShape):
    """Iterate coordinate tuples in index order (first coordinate fastest)."""
    for rev in product(range(1, shape.r + 1), repeat=shape.d):
        yield tuple(reversed(rev))


def death_rate(cfg: Configuration, x: int) -> int:
    """1 iff x is in state 1 (ones die at rate 1 and freeze)."""
    return int(cfg.bits[x])


def replay_boxes(traj: Trajectory):
    """Yield (time, box counts b_0..b_2d) along a trajectory, moving balls
    per flip.

    A flip at x moves the ball of each distinct neighbor of x by its slot
    weight w (torus.neighbor_lists): right on a 0->1 flip, left on a 1->0
    flip.  Matches neighbor_histograms of the replayed configuration at
    every event (tested).
    """
    cfg = traj.initial.copy()
    box = neighbor_histograms(cfg.ones_nbr[None], cfg.shape.d)[0]
    yield 0.0, box.copy()
    nbrs_of, w = neighbor_lists(cfg.shape)
    toggles = toggle_rows(cfg.shape.d, THRESHOLD, w)
    bits, ones = memoryview(cfg.bits), memoryview(cfg.ones_nbr)
    for ev in traj.events:
        nbrs = nbrs_of(ev.vertex)
        k = cfg.ones_nbr[nbrs]
        np.subtract.at(box, k, 1)
        np.add.at(box, k + (w if ev.new_value == 1 else -w), 1)
        flip_and_count(bits, ones, ev.vertex, ev.new_value, nbrs, w, toggles)
        yield ev.time, box.copy()


def single_box_count(I0: int, d: int, p: float, T: float,
                     rng: np.random.Generator) -> int:
    """Count of the single-box process at time T, started from I0.

    At m = 1, jump j comes at rate I0 + 2d(j-1) = 2d(j-1 + a) with
    a = I0/(2d): the jump count J_T is a linear birth process with
    immigration, so J_T ~ NegBin(a, e^{-2dT}) exactly (Kendall 1948) and one
    draw gives the count I0 + 2d J_T.  For m > 1 the path is simulated by
    approach4_run.  Runs past MAX_JUMPS jumps are refused either way.
    """
    check_horizon(T)
    m = step_count(d, p)
    if m > 1:
        return int(approach4_run(I0, d, p, T, rng).series.values[-1])
    if I0 <= 0:
        return 0
    try:
        jumps = int(rng.negative_binomial(I0 / (2 * d), math.exp(-2 * d * T)))
    except ValueError:  # numpy: "n too large or p too small", or p underflows
        raise _too_many_jumps(I0, d, m, T) from None
    if jumps > MAX_JUMPS:
        raise _too_many_jumps(I0, d, m, T)
    return I0 + 2 * d * jumps


def poisson_recursion_mean(series: UniformizedSeries, t: float, tol: float = 1e-10) -> float:
    """E|A_t| from the cached terms of a series, with the Poisson(nt)
    weights built upward from e^{-nt}, which must be a normal float (nt
    below about 708).  It stops once the Poisson mass left, times the bound
    n on |A_t|, is at most tol."""
    n = series.shape.n
    lam = n * t
    w = math.exp(-lam)
    if w < sys.float_info.min:
        raise ValueError(f"e^-{lam} is not a normal float")
    cum, total, k = w, w * series._term(0), 0
    while (1.0 - cum) * n > tol:
        k += 1
        w *= lam / k
        cum += w
        total += w * series._term(k)
    return total
