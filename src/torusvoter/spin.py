"""Configurations, flip rates, and the exact-in-law event-driven simulator.

Two dynamics share one engine, both with 0/1 flip rates:

* threshold dynamics: a vertex flips at rate 1 iff at least d of its 2d
  neighbors (counted with multiplicity) disagree with it;
* death dynamics: a 1 flips to 0 at rate 1 and freezes, 0s never flip.

The engine samples the next event from Exp(|active set|) and picks the
vertex uniformly over the active set, which is exactly the law of
independent unit-rate Poisson clocks with conditional flips (thinning).

Per event the work is scalar: the state arrays are read and written
through memoryviews taken once per run, since a memoryview item access
costs a fraction of a numpy scalar one.  flip_and_count sets x, adds +-w
to the count of each distinct neighbor in torus.neighbor_lists(x) (w = 2
on r = 2, 1 otherwise), and returns the neighbors whose rate toggled, read
off the cached toggle_rows table in the same pass.  The engine then
rechecks only what changed, in a fixed order: x leaves the active set iff
its new rate in rate_rows (the rows of rate_table as tuples of Python
ints) is 0, and each returned neighbor toggles its membership, in kernel
order.  That order fixes the active set's item order and so the draws;
the law does not depend on it, since the ringing vertex is uniform over
the set whatever its order.  The numpy arrays stay the live state, so
observers and verify_counts see every flip.

Every Gillespie loop (the engine here and both couplings) draws its
Exp(k) gap and uniform index through one DrawStream, which computes them
in pure Python from blocks of raw bit-generator words that it owns.  Only
from a Generator that holds no half-word, as after the random() draws of
an initial configuration, are they bit for bit what direct rng.random()
and rng.integers(k) calls would return.  The words left in a run's last
block are dropped, so a later run on the same Generator draws fresh
words.  All three loops take their next ring from one method,
_IndexedSet.ring: an Exp(k) gap over the k armed items, then a uniform
item.

On r = 2 tori of at least _CLOCK_MIN_VERTICES vertices, run() without
observers starts in _clock_phase instead: the graphical construction of
the same chain, applied in numpy windows of rings.  It samples the same
law from other draws, and hands the run to the engine once few rings flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .torus import TorusShape, neighbor_lists, slot_weight

THRESHOLD = "threshold"
DEATH = "death"


@dataclass(frozen=True)
class RngStream:
    """Counter-based RNG identity: (seed, stream_id) -> reproducible stream.

    An integer stream_id is the spawn key (stream_id,); a tuple is used as
    the spawn key itself, so (d, i) keys never collide across d.
    """

    seed: int
    stream_id: int | tuple[int, ...] = 0

    def generator(self) -> np.random.Generator:
        key = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(ss))


@dataclass
class Configuration:
    """Dense 0/1 state plus the maintained per-vertex ones-neighbor count."""

    shape: TorusShape
    bits: np.ndarray  # uint8, length r^d
    ones_nbr: np.ndarray  # int32, ones_nbr[x] = sum over neighbors (with mult.)

    def copy(self) -> "Configuration":
        return Configuration(self.shape, self.bits.copy(), self.ones_nbr.copy())

    def ones_count(self) -> int:
        return int(self.bits.sum())


class FlipEvent(NamedTuple):
    time: float
    vertex: int
    new_value: int


@dataclass
class Trajectory:
    initial: Configuration
    events: list[FlipEvent]
    horizon: float


class CountMismatchError(Exception):
    """ones_nbr inconsistent with bits; carries the first offending vertex."""

    def __init__(self, vertex, expected, found):
        self.vertex = vertex
        super().__init__(f"ones_nbr[{vertex}] = {found}, rebuild gives {expected}")


def build_ones_nbr(shape: TorusShape, bits: np.ndarray) -> np.ndarray:
    """Neighbor-sum array via axis rolls (multiplicity 2 per dim when r=2).

    bits may carry leading batch axes: (..., n) bits give (..., n) sums,
    each row summed on its own torus.
    """
    lead = bits.shape[:-1]
    grid = bits.reshape(lead + (shape.r,) * shape.d).astype(np.int32)
    total = np.zeros_like(grid)
    axes = range(len(lead), grid.ndim)
    if shape.r == 2:
        # on a size-2 axis the rolls by +1 and -1 are both the flip (a view):
        # add it once and count it twice
        for axis in axes:
            total += np.flip(grid, axis=axis)
        total *= 2
    else:
        for axis in axes:
            total += np.roll(grid, 1, axis=axis) + np.roll(grid, -1, axis=axis)
    return total.reshape(lead + (shape.n,))


def config_from_bits(shape: TorusShape, bits) -> Configuration:
    bits = np.asarray(bits, dtype=np.uint8).reshape(shape.n)
    return Configuration(shape, bits.copy(), build_ones_nbr(shape, bits))


def sample_product(shape: TorusShape, p: float, rng: np.random.Generator) -> Configuration:
    """I.i.d. Bernoulli(p) configuration."""
    bits, ones_nbr = sample_product_batch(shape, p, 1, rng)
    return Configuration(shape, bits[0], ones_nbr[0])


def sample_product_batch(shape: TorusShape, p: float, replicas: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Bits and neighbor sums of `replicas` i.i.d. Bernoulli(p) configurations.

    Both arrays are (replicas, n); row i is what the i-th of `replicas`
    successive sample_product calls would draw.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {p}")
    bits = (rng.random((replicas, shape.n)) < p).astype(np.uint8)
    return bits, build_ones_nbr(shape, bits)


def threshold_rate(cfg: Configuration, x: int) -> int:
    """1 iff >= d neighbors (with multiplicity) disagree with x's value."""
    d = cfg.shape.d
    disagree = cfg.ones_nbr[x] if cfg.bits[x] == 0 else 2 * d - cfg.ones_nbr[x]
    return 1 if disagree >= d else 0


def verify_counts(cfg: Configuration) -> None:
    """Rebuild ones_nbr from scratch; raise CountMismatchError on drift."""
    rebuilt = build_ones_nbr(cfg.shape, cfg.bits)
    bad = np.nonzero(rebuilt != cfg.ones_nbr)[0]
    if bad.size:
        v = int(bad[0])
        raise CountMismatchError(v, int(rebuilt[v]), int(cfg.ones_nbr[v]))


_U32 = 0xFFFFFFFF
_TWO_M53 = 2.0**-53
_FIRST_BLOCK, _MAX_BLOCK = 64, 1024  # raw words per block, doubling


class DrawStream:
    """Exp(rate) gaps and uniform indices from raw words of a Generator's
    bit generator, at a fraction of numpy's per-call cost.

    exponential(rate) is -log1p(-u) / rate (the inverse CDF, for
    cross-platform reproducibility), where u = (w >> 11) * 2**-53 of one
    raw 64-bit word w, as in numpy's random().  index(k), for
    1 <= k <= 2**32, is Lemire's bounded method on 32-bit draws (Lemire
    2019, ACM TOMACS 29(1)), as in numpy's integers(k): a word yields its
    low half and keeps the high half for the next 32-bit draw; k = 1 draws
    nothing, k = 2**32 returns the 32-bit draw itself.

    The stream owns the words it fetches, in
    bit_generator.random_raw(m).tolist() blocks (64 words, doubling to
    1024), and its half-word buffer starts empty.  So from a Generator that
    holds no half-word (has_uint32 = 0, as after random() or random_raw
    calls) the draws are exactly those of direct rng.random() and
    int(rng.integers(k)) calls.  The words left in the last block are
    dropped: the Generator has moved past them, so later draws from it,
    or from another stream on it, are independent of this one's.  MT19937,
    whose raw words are 32-bit, is refused with TypeError.
    """

    __slots__ = ("_bitgen", "_buf", "_i", "_has32", "_u32", "_block")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if isinstance(bitgen, np.random.MT19937):
            raise TypeError("MT19937 gives 32-bit raw words")
        self._bitgen = bitgen
        self._buf: list[int] = []
        self._i = 0  # next word in _buf
        self._has32 = self._u32 = 0  # the kept high half-word, if any
        self._block = _FIRST_BLOCK

    def _refill(self) -> int:
        """Fetch the next block; return its first word and consume it."""
        m = self._block
        self._block = min(2 * m, _MAX_BLOCK)
        self._buf = buf = self._bitgen.random_raw(m).tolist()
        self._i = 1
        return buf[0]

    def exponential(self, rate: float) -> float:
        """An Exp(rate) variate: -log1p(-rng.random()) / rate."""
        i = self._i
        try:
            u = self._buf[i]
            self._i = i + 1
        except IndexError:
            u = self._refill()
        return -math.log1p(-(u >> 11) * _TWO_M53) / rate

    def index(self, k: int) -> int:
        """A uniform index in [0, k): int(rng.integers(k)), 1 <= k <= 2**32."""
        if k <= 1 or k > _U32 + 1:
            if k == 1:  # numpy draws nothing either
                return 0
            raise ValueError(f"index bound must lie in [1, 2**32], got {k}")
        # at k = 2**32 this returns the 32-bit draw itself, as numpy does
        m = self._next32() * k
        if m & _U32 < k:
            threshold = (_U32 + 1 - k) % k  # 2**32 mod k
            while m & _U32 < threshold:
                m = self._next32() * k
        return m >> 32

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        i = self._i
        try:
            u = self._buf[i]
            self._i = i + 1
        except IndexError:
            u = self._refill()
        self._has32 = 1
        self._u32 = u >> 32
        return u & _U32


class _IndexedSet:
    """Set of vertex ids with O(1) add/remove and uniform sampling."""

    def __init__(self, n: int, items=()):
        """Empty set over n ids, or one holding `items` in the given order."""
        self.items: list[int] = list(items)
        pos = np.full(n, -1, dtype=np.int64)
        pos[self.items] = np.arange(len(self.items))
        self.pos: list[int] = pos.tolist()

    def __len__(self):
        return len(self.items)

    def add(self, x):
        if self.pos[x] < 0:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def remove(self, x):
        i = self.pos[x]
        if i >= 0:
            last = self.items[-1]
            self.items[i] = last
            self.pos[last] = i
            self.items.pop()
            self.pos[x] = -1

    def ring(self, draws: DrawStream, t: float, horizon: float):
        """The next ring of k unit-rate clocks, one per item, after time t.

        Returns (time, item), or None when the set is empty (no draw) or
        the Exp(k) gap reaches the horizon (no index drawn).
        """
        items = self.items
        k = len(items)
        if k == 0:
            return None
        t += draws.exponential(k)
        if t >= horizon:
            return None
        return t, items[draws.index(k)]


@cache
def rate_table(d: int, kind: str) -> np.ndarray:
    """table[b, k]: flip rate (0 or 1) of a vertex holding b with k one-neighbors.

    Built once per (d, kind) and read-only.
    """
    k = np.arange(2 * d + 1)
    if kind == THRESHOLD:  # k neighbors disagree with a 0, 2d - k with a 1
        rows = (k >= d, 2 * d - k >= d)
    elif kind == DEATH:  # ones die, zeros are frozen
        rows = (k < 0, k >= 0)
    else:
        raise ValueError(f"unknown dynamics kind {kind!r}")
    table = np.array(rows, dtype=np.uint8)
    table.flags.writeable = False
    return table


@cache
def rate_rows(d: int, kind: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two rows of rate_table(d, kind) as tuples of Python ints: rows[b][k].

    Cached like the table; tuples, so that no caller can change them.
    """
    return tuple(tuple(row) for row in rate_table(d, kind).tolist())


@cache
def toggle_rows(d: int, kind: str, w: int) -> tuple:
    """rows[new][b][k]: whether a vertex holding b changed its flip rate when
    its count just moved by w (up when new is 1, down when it is 0) to k.

    rows[1][b][k] is rate_table[b][k] != rate_table[b][k - w], rows[0][b][k]
    is rate_table[b][k] != rate_table[b][k + w]; counts that no move by w
    can reach read 0.  Cached per (d, kind, w), as tuples of Python ints.
    """
    rates = rate_rows(d, kind)
    width = 2 * d + 1

    def toggled(b, k, before):
        return int(0 <= before < width and rates[b][k] != rates[b][before])

    return tuple(tuple(tuple(toggled(b, k, k + (-w if new else w)) for k in range(width))
                       for b in (0, 1))
                 for new in (0, 1))


def flip_and_count(bits, ones_nbr, x: int, new: int, nbrs, w: int, toggles) -> list[int]:
    """Set bits[x] to `new`, move ones_nbr of each distinct neighbor by w, and
    return the neighbors whose flip rate toggled, in nbrs order.

    bits and ones_nbr are memoryviews of a Configuration's arrays; nbrs
    and w come from torus.neighbor_lists, and toggles is
    toggle_rows(d, kind, w) for the rate rule of the caller's dynamics.
    The rate of x itself is the caller's to read.
    """
    bits[x] = new
    if new != 1:
        w = -w
    moved = toggles[new]
    toggled = []
    for y in nbrs:
        k = ones_nbr[y] + w
        ones_nbr[y] = k
        if moved[bits[y]][k]:
            toggled.append(y)
    return toggled


class EventEngine:
    """Gillespie loop over the active set for one of the two dynamics.

    Draws go through a DrawStream on rng.
    """

    def __init__(self, cfg: Configuration, kind: str, rng: np.random.Generator):
        shape = cfg.shape
        self._rates = rate_rows(shape.d, kind)
        self.cfg = cfg
        # views of the live arrays: scalar reads and writes go through these
        self.bits_view = memoryview(cfg.bits)
        self.ones_view = memoryview(cfg.ones_nbr)
        self.draws = DrawStream(rng)
        self.time = 0.0
        self._nbrs, self._w = neighbor_lists(shape)
        self._toggles = toggle_rows(shape.d, kind, self._w)
        self.last_nbrs: list[int] = []  # distinct neighbors of the last flip
        # ascending vertex order, as adding them one by one would give
        active = np.flatnonzero(rate_table(shape.d, kind)[cfg.bits, cfg.ones_nbr])
        self.active = _IndexedSet(shape.n, active.tolist())

    def _apply_flip(self, x) -> int:
        """Flip x, update neighbor counts and the active set; return new value.

        Only x and the neighbors whose rate toggled change membership; they
        are walked in a fixed order, x first, then the kernel's.  That order
        fixes active.items, and with it every later draw.  The neighbor
        list stays in last_nbrs for the observers.
        """
        bits, ones = self.bits_view, self.ones_view
        self.last_nbrs = nbrs = self._nbrs(x)
        new = 1 - bits[x]
        toggled = flip_and_count(bits, ones, x, new, nbrs, self._w, self._toggles)
        active = self.active
        if not self._rates[new][ones[x]]:  # x rang, so it was in the set
            active.remove(x)
        pos = active.pos
        for y in toggled:
            if pos[y] < 0:
                active.add(y)
            else:
                active.remove(y)
        return new

    def step(self, horizon: float) -> FlipEvent | None:
        """Advance to the next flip event, or to the horizon if none occurs."""
        ring = self.active.ring(self.draws, self.time, horizon)
        if ring is None:
            self.time = horizon
            return None
        self.time, x = ring
        return FlipEvent(self.time, x, self._apply_flip(x))


def check_horizon(T: float) -> None:
    """ValueError unless T is finite and positive: a run to T = nan or inf
    would stop only when the chain absorbs."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon must be finite and positive, got {T}")


# The clock phase runs on r = 2 tori from this many vertices up, in chunks
# of this many rings, and hands the run to the engine at the end of the
# first chunk in which fewer than this share of the rings flip.  Chosen from
# the crossover table in the README ("Engine").
_CLOCK_MIN_VERTICES = 2**14
_CLOCK_CHUNK = 1024
_CLOCK_FLOOR = 1 / 64


def _clock_phase(cfg: Configuration, kind: str, T: float, rng: np.random.Generator,
                 events: list) -> float:
    """Run the graphical construction on an r = 2 torus from time 0, in place.

    Every vertex carries a unit-rate Poisson clock and flips when it rings
    iff rate_table says 1 at that instant.  The rings of all n clocks are
    drawn _CLOCK_CHUNK at a time: Exp(n) gaps, uniform vertices.  A chunk
    is applied in windows, each cut at the first ring whose vertex is, or
    neighbors, an earlier active ring of the window.  Every ring before the
    cut sees the window-start state, since no earlier flip of the window
    touched its bit or its count, so one vector write of bits and one
    np.add.at over the neighbor slots (x ^ 1 << i, weight w) apply the
    window exactly.  Flips are appended to events in time order.

    Returns T when the rings pass the horizon.  Otherwise it returns the
    time of the last ring of the first chunk in which fewer than
    _CLOCK_FLOOR of the rings flipped; by the strong Markov property the
    engine may take the run over from there.
    """
    shape = cfg.shape
    n, d = shape.n, shape.d
    width = 2 * d + 1
    rates = rate_table(d, kind).ravel()  # rates[b * width + k]; b * width < 64 fits uint8
    bits, ones = cfg.bits, cfg.ones_nbr
    closed = np.concatenate(([0], 1 << np.arange(d)))  # x ^ closed: x, then its neighbors
    w = np.int32(slot_weight(shape.r))
    # claim[y]: the first active ring of the window at or next to y, else _CLOCK_CHUNK
    claim = np.full(n, _CLOCK_CHUNK, dtype=np.int64)
    order = np.arange(_CLOCK_CHUNK)
    t = 0.0
    while True:
        times = t + np.cumsum(rng.standard_exponential(_CLOCK_CHUNK)) / n
        verts = rng.integers(n, size=_CLOCK_CHUNK)
        end = int(times.searchsorted(T))  # rings at or past T never happen
        flip_t, flip_x, flip_new = [], [], []
        start = 0
        while start < end:
            v = verts[start:end]
            active = rates[bits[v] * width + ones[v]].nonzero()[0]
            if active.size == 0:
                break
            keys = v[active, None] ^ closed
            np.minimum.at(claim, keys.ravel(), active.repeat(d + 1))
            late = (claim[v] < order[:v.size]).nonzero()[0]
            claim[keys.ravel()] = _CLOCK_CHUNK
            cut = int(late[0]) if late.size else v.size
            k = int(active.searchsorted(cut))
            x = v[active[:k]]
            new = 1 - bits[x]
            bits[x] = new
            moves = (2 * w) * new.astype(np.int32) - w  # +w on 0 -> 1, -w on 1 -> 0
            np.add.at(ones, keys[:k, 1:].ravel(), moves.repeat(d))
            flip_t.append(times[start + active[:k]])
            flip_x.append(x)
            flip_new.append(new)
            start += cut
        if flip_t:
            # tuple.__new__ builds each FlipEvent without the Python-level
            # NamedTuple constructor
            events.extend(map(tuple.__new__, repeat(FlipEvent), zip(
                np.concatenate(flip_t).tolist(), np.concatenate(flip_x).tolist(),
                np.concatenate(flip_new).tolist())))
        if end < _CLOCK_CHUNK:
            return T
        t = float(times[-1])
        if sum(map(len, flip_x)) < _CLOCK_FLOOR * _CLOCK_CHUNK:
            return t


def run(cfg: Configuration, kind: str, T: float, rng: np.random.Generator,
        observers=()) -> Trajectory:
    """Simulate the dynamics on [0, T], notifying observers at 0, events, T.

    Observers are callables observer(time, engine, event_or_None); they see
    the live post-flip state.  A run with no observers on an r = 2 torus of
    at least _CLOCK_MIN_VERTICES vertices starts in _clock_phase, and the
    engine runs whatever is left of [0, T] after it.
    """
    check_horizon(T)
    initial = cfg.copy()
    events: list[FlipEvent] = []
    start = 0.0
    if not observers and cfg.shape.r == 2 and cfg.shape.n >= _CLOCK_MIN_VERTICES:
        start = _clock_phase(cfg, kind, T, rng, events)
        if start >= T:
            return Trajectory(initial, events, T)
    engine = EventEngine(cfg, kind, rng)
    engine.time = start
    for obs in observers:
        obs(0.0, engine, None)
    while engine.time < T:
        ev = engine.step(T)
        if ev is None:
            break
        events.append(ev)
        for obs in observers:
            obs(ev.time, engine, ev)
    for obs in observers:
        obs(T, engine, None)
    return Trajectory(initial, events, T)


def replay(traj: Trajectory):
    """Yield (time, cfg) after each event, starting from (0, initial copy)."""
    cfg = traj.initial.copy()
    yield 0.0, cfg
    nbrs, w = neighbor_lists(cfg.shape)
    toggles = toggle_rows(cfg.shape.d, THRESHOLD, w)
    bits, ones = memoryview(cfg.bits), memoryview(cfg.ones_nbr)
    for ev in traj.events:
        flip_and_count(bits, ones, ev.vertex, ev.new_value, nbrs(ev.vertex), w, toggles)
        yield ev.time, cfg
