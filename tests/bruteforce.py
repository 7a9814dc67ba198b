"""Independent enumeration oracles used to check the closed-form module,
scalar references for vectorised statistics, the reference samplers
that only tests use (the rejection engine and the rightward-only path),
and the uniformized CTMC over all 2^n states that the orbit chain lumps."""

import itertools
import math

import numpy as np
from scipy import sparse

from torusvoter.ballgame import rightward_move
from torusvoter.observables import ObservableSeries, fluid
from torusvoter.oracle import UniformizedSeries, _check_capacity, _start_key
from torusvoter.spin import (FlipEvent, Trajectory, check_horizon, flip_and_count,
                             rate_rows, toggle_rows)
from torusvoter.torus import TorusShape, decode, encode, neighbor_lists, neighbors


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


def _exp_variate(rng, rate: float) -> float:
    # inverse CDF, as spin.DrawStream.exponential computes it
    return -math.log1p(-rng.random()) / rate


def rejection_run(cfg, kind: str, T: float, rng):
    """The rejection ("naive") engine: (trajectory, first ring per vertex).

    Every vertex rings at rate 1: the gap is Exp(n), the ringing vertex is
    uniform over all n, and a ring where the rate is 0 changes nothing.
    first_ring[x] is the time of x's first ring (math.inf if none).  The
    draws are _exp_variate(rng, n) then int(rng.integers(n)), as the
    engine's DrawStream serves them, and cfg ends in the final state.
    """
    initial = cfg.copy()
    n = cfg.shape.n
    rates = rate_rows(cfg.shape.d, kind)
    nbrs_of, w = neighbor_lists(cfg.shape)
    toggles = toggle_rows(cfg.shape.d, kind, w)
    bits, ones = memoryview(cfg.bits), memoryview(cfg.ones_nbr)
    first_ring = [math.inf] * n
    events, t = [], 0.0
    while True:
        t += _exp_variate(rng, n)
        if t >= T:
            break
        x = int(rng.integers(n))
        if first_ring[x] == math.inf:
            first_ring[x] = t
        if rates[bits[x]][ones[x]]:
            new = 1 - bits[x]
            flip_and_count(bits, ones, x, new, nbrs_of(x), w, toggles)
            events.append(FlipEvent(t, x, new))
    return Trajectory(initial, events, T), first_ring


def approach2_run(counts: np.ndarray, T: float, rng) -> ObservableSeries:
    """C_hat_t series from box counts b_0..b_2d: moves at rate C_hat_t,
    never moving balls left."""
    check_horizon(T)
    box = np.array(counts, dtype=np.int64)
    d = (len(box) - 1) // 2
    t = 0.0
    times, values = [0.0], [float(box[d:].sum())]
    while True:
        rate = int(box[d:].sum())
        if rate == 0:
            break  # frozen
        t += _exp_variate(rng, rate)
        if t >= T:
            break
        rightward_move(box, rng)
        new = int(box[d:].sum())
        assert new >= values[-1], "rightward process lost upper mass"
        if new != values[-1]:
            times.append(t)
            values.append(float(new))
        if box[:d].sum() == 0:
            break  # left region drained: moves only shuffle the right region
    return ObservableSeries(times, values, T)


def full_state_tables(shape: TorusShape):
    """Per-state vertex bits, ones-neighbor counts, and flip activity."""
    n = shape.n
    size = 1 << n
    states = np.arange(size, dtype=np.uint32)
    bits = np.empty((n, size), dtype=np.int8)
    for x in range(n):
        bits[x] = (states >> x) & 1
    nbrs_of, w = neighbor_lists(shape)
    ones_nbr = np.zeros((n, size), dtype=np.int16)
    for x in range(n):
        for y in nbrs_of(x):
            ones_nbr[x] += w * bits[y]
    d = shape.d
    disagree = np.where(bits == 0, ones_nbr, 2 * d - ones_nbr)
    return bits, disagree >= d


def full_uniformized_kernel(shape: TorusShape, active: np.ndarray) -> sparse.csr_matrix:
    """P = I + Q/n over all 2^n states, row s holding the moves out of s."""
    n = shape.n
    size = 1 << n
    rows, cols = [], []
    for x in range(n):
        src = np.nonzero(active[x])[0]
        rows.append(src)
        cols.append(src ^ (1 << x))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.full(rows.size, 1.0 / n)
    P = sparse.csr_matrix((data, (rows, cols)), shape=(size, size))
    diag = 1.0 - np.asarray(P.sum(axis=1)).ravel()
    return P + sparse.diags(diag)


class FullChainSeries(UniformizedSeries):
    """UniformizedSeries over all 2^n states: the unlumped reference.

    The start vector weighs every state by itself and each term is the
    row-vector step v @ P; the Poisson weights are UniformizedSeries'.
    """

    def __init__(self, shape: TorusShape, initial):
        _check_capacity(shape)
        self.shape = shape
        self.start = _start_key(shape, initial)
        n = shape.n
        bits, active = full_state_tables(shape)
        self._popcount = bits.sum(axis=0).astype(float)
        self._P = full_uniformized_kernel(shape, active)
        kind, value = self.start
        if kind == "state":
            v = np.zeros(1 << n)
            v[value] = 1.0
        else:
            k = self._popcount
            if value == 0.0:
                v = (k == 0).astype(float)
            elif value == 1.0:
                v = (k == n).astype(float)
            else:
                v = np.exp(k * math.log(value) + (n - k) * math.log1p(-value))
        self._v = v
        self._a = [self._ones(v)]

    def _term(self, k: int) -> float:
        while len(self._a) <= k:
            self._v = self._v @ self._P
            self._a.append(self._ones(self._v))
        return self._a[k]


def translation_orbits(shape: TorusShape) -> list[int]:
    """Least translate of every state, translating vertex coordinates one
    state and one translation vector at a time."""
    n, r = shape.n, shape.r
    coords = [decode(x, shape) for x in range(n)]
    moves = []
    for shift in itertools.product(range(r), repeat=shape.d):
        moves.append([encode(tuple((c - 1 + s) % r + 1 for c, s in zip(cx, shift)),
                             shape) for cx in coords])
    canon = []
    for s in range(1 << n):
        canon.append(min(sum(((s >> x) & 1) << move[x] for x in range(n))
                         for move in moves))
    return canon
