"""Exact and closed-form references the Monte Carlo engine is checked against.

Everything here is deterministic: binomial tails in log-space, neighbor-sum
tails from one Bin(m, p) law (m distinct neighbors, each filling w slots),
the variance of the initial |C_0| count by pair decomposition, the transient
solution of the 2^n-state chain by uniformization over one mode-anchored
Poisson window, and the exact law of the death process.  The chain is
solved on the orbits of its states under the r^d torus translations, about
2^n / n of them: the threshold rule, the product law and |A_t| are
translation invariant, so the lumped chain gives E|A_t| exactly
(UniformizedSeries).

scipy is imported inside the two functions that use it (binom_logtail and
the kernel of UniformizedSeries): importing it takes longer than importing
the rest of the package, and the simulate, couple, sweep and ballgame
modes never reach either function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spin import THRESHOLD, rate_table
from .torus import TorusShape, neighbor_lists, neighbors, slot_weight, two_hop_set

CTMC_MAX_VERTICES = 20
MAX_MATVECS = 10_000  # Poisson terms per uniformized series; E[terms] = n t


class CapacityError(Exception):
    """Too large to run: the exact solver's state space, or a torus whose
    per-vertex arrays would not fit in memory (harness.check_capacity)."""


def binom_logtail(n: int, p: float, k: int) -> float:
    """log P(Binomial(n, p) >= k), exact summation in log space."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 <= k <= n + 1:
        raise ValueError(f"threshold {k} outside [0, {n + 1}]")
    if k <= 0:
        return 0.0
    if k == n + 1:
        return -math.inf
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return 0.0
    from scipy.special import gammaln, logsumexp

    j = np.arange(k, n + 1)
    logpmf = (gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
              + j * math.log(p) + (n - j) * math.log1p(-p))
    return float(logsumexp(logpmf))


def binom_tail(n: int, p: float, k: int) -> float:
    """P(Binomial(n, p) >= k)."""
    return math.exp(binom_logtail(n, p, k))


@dataclass(frozen=True)
class LdpConstants:
    """Cramer rate K = -log[4p(1-p)] and growth constant C = (log r - K)/2."""

    K: float
    C: float
    admissible: bool  # log r - K > 0, i.e. 4p(1-p) > 1/r


def ldp_constants(p: float, r: int) -> LdpConstants:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    K = -math.log(4.0 * p * (1.0 - p))
    C = (math.log(r) - K) / 2.0
    return LdpConstants(K=K, C=C, admissible=C > 0.0)


def vertex_tail(shape: TorusShape, p: float, k: int) -> float:
    """P(sum of one-neighbors of a fixed vertex >= k) under the product law.

    The sum counts multiplicity, so it is Binomial(2d, p) for r >= 3 but
    2 * Binomial(d, p) on the r=2 multigraph.
    """
    return neighbor_tail(shape.d, shape.r, p, k)


def neighbor_tail(d: int, r: int, p: float, k: int) -> float:
    """vertex_tail from (d, r) alone, for tori too large to index.

    A vertex has m distinct neighbors, each filling w of its 2d slots: m = d
    and w = 2 when r = 2 (both slots per dimension hit the same vertex), and
    m = 2d, w = 1 for r >= 3.  So the tail is P(Bin(m, p) >= ceil(k/w)).
    """
    if d < 1 or r < 2:
        raise ValueError(f"need d >= 1 and r >= 2, got d={d}, r={r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {p}")
    w = slot_weight(r)
    return _binomial_tail(2 * d // w, p, -(-k // w))


def expected_suffix_count(shape: TorusShape, p: float, k: int) -> float:
    """E|I_0(k)| = r^d P(sum of one-neighbors of a vertex >= k)."""
    if not 0 <= k <= 2 * shape.d:
        raise ValueError(f"threshold {k} outside [0, {2 * shape.d}]")
    return shape.n * vertex_tail(shape, p, k)


def expected_C0(shape: TorusShape, p: float) -> float:
    """E|C_0| = E|I_0(d)|."""
    return expected_suffix_count(shape, p, shape.d)


@lru_cache(maxsize=None)
def _binomial_pmf(m: int, p: float) -> tuple[float, ...]:
    """P(Bin(m, p) = j) for j = 0..m, by m Bernoulli(p) convolutions."""
    dist = [1.0]
    for _ in range(m):
        new = [0.0] * (len(dist) + 1)
        for j, w in enumerate(dist):
            new[j] += w * (1.0 - p)
            new[j + 1] += w * p
        dist = new
    return tuple(dist)


def _binomial_tail(m: int, p: float, j: int) -> float:
    """P(Bin(m, p) >= j), summed upward from the cached pmf."""
    if j <= 0:
        return 1.0
    return float(sum(_binomial_pmf(m, p)[j:]))


def joint_tail_C0(shape: TorusShape, p: float, x1: int, x2: int) -> float:
    """P(both x1 and x2 have >= d one-neighbors under the product law).

    Conditions on how many of the shared distinct neighbors hold a one
    (|S| + 1 binomial terms), then multiplies the independent tails of the
    two disjoint remainders, which have equal size.  Every distinct neighbor
    fills w slots, so x needs ceil(d/w) of them to be ones.  Valid for
    every r, including the r=2 multigraph.
    """
    d = shape.d
    if x1 == x2:
        return vertex_tail(shape, p, d)
    n1 = set(neighbors(shape, x1))
    shared = len(n1 & set(neighbors(shape, x2)))
    rest = len(n1) - shared
    need = -(-d // slot_weight(shape.r))
    return sum(q * _binomial_tail(rest, p, need - j) ** 2
               for j, q in enumerate(_binomial_pmf(shared, p)))


def exact_var_C0(shape: TorusShape, p: float) -> float:
    """Var(|C_0|) under the product law, by pair decomposition.

    Pairs with no shared neighbor are independent and contribute nothing;
    the remaining displacement classes (at most 2d^2 per vertex) are summed
    with exact joint tails, using vertex transitivity.
    """
    q = vertex_tail(shape, p, shape.d)
    var = shape.n * q * (1.0 - q)
    for z in two_hop_set(shape, 0):
        var += shape.n * (joint_tail_C0(shape, p, 0, z) - q * q)
    return var


@dataclass(frozen=True)
class DeathLaw:
    """|G_t| ~ Binomial(n, p e^{-t}): sites survive independently."""

    n: int
    success: float
    mean: float
    variance: float


def death_law(shape: TorusShape, p: float, t: float) -> DeathLaw:
    if not t >= 0:  # nan fails too; t = inf is the all-dead limit
        raise ValueError(f"time must be nonnegative, got {t}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {p}")
    q = p * math.exp(-t)
    return DeathLaw(shape.n, q, shape.n * q, shape.n * q * (1.0 - q))


class _StateTables(NamedTuple):
    """The translation orbits of the 2^n states, and the flip activity of
    each orbit's least state.

    reps[j] is the least state of orbit j, orbit[s] the orbit of state s
    and sizes[j] the number of states in orbit j; bits[x, j] is vertex x
    of reps[j], and active[x, j] whether x may flip there.
    """

    reps: np.ndarray
    orbit: np.ndarray
    sizes: np.ndarray
    bits: np.ndarray
    active: np.ndarray


def _unit_shift(shape: TorusShape, axis: int):
    """The translation x -> x + e_axis as a bit permutation of states:
    s -> ((s & low) << stride) | ((s & top) >> wrap), with top the vertices
    on the last layer along axis, which wrap to the first."""
    stride = shape.r ** axis
    wrap = (shape.r - 1) * stride
    top = sum(1 << x for x in range(shape.n) if x // stride % shape.r == shape.r - 1)
    return (1 << shape.n) - 1 - top, top, stride, wrap


def _canonical_states(shape: TorusShape) -> np.ndarray:
    """The least translate of every state.

    A running minimum over the r^d translations, each reached from the one
    before by a unit shift, so at most d + 1 images exist at once.
    """
    states = np.arange(1 << shape.n, dtype=np.uint32)
    canon = states.copy()
    shifts = [_unit_shift(shape, axis) for axis in range(shape.d)]

    def visit(image, axis):
        low, top, stride, wrap = shifts[axis]
        for step in range(shape.r):
            if step:
                moved = image & top
                moved >>= wrap
                image = image & low
                image <<= stride
                image |= moved
            if axis + 1 < shape.d:
                visit(image, axis + 1)
            else:
                np.minimum(canon, image, out=canon)

    visit(states, 0)
    return canon


def _state_tables(shape: TorusShape) -> _StateTables:
    """Translation orbits, and per-representative vertex bits, ones-neighbor
    counts and flip activity."""
    reps, orbit, sizes = np.unique(_canonical_states(shape), return_inverse=True,
                                   return_counts=True)
    n = shape.n
    bits = np.empty((n, reps.size), dtype=np.int8)
    for x in range(n):
        bits[x] = (reps >> x) & 1
    nbrs_of, w = neighbor_lists(shape)
    ones_nbr = np.zeros((n, reps.size), dtype=np.int16)
    for x in range(n):
        for y in nbrs_of(x):
            ones_nbr[x] += w * bits[y]
    active = rate_table(shape.d, THRESHOLD)[bits, ones_nbr]
    return _StateTables(reps, orbit, sizes, bits, active)


def _uniformized_kernel(shape: TorusShape, tables: _StateTables):
    """The transpose of the lumped kernel P = I + Q/n on the orbits.

    Row B, column A holds the chance that one step from reps[A] lands in
    orbit B: 1/n for each active vertex whose flip lands there (two flips
    may land in one orbit, and their entries sum), and on the diagonal
    what is left.  A flip changes |A|, so no flip stays in its orbit.
    Returned as a scipy.sparse CSR matrix.
    """
    from scipy import sparse

    n = shape.n
    size = tables.reps.size
    src, dst = [], []
    for x in range(n):
        flips = np.flatnonzero(tables.active[x])
        src.append(flips)
        dst.append(tables.orbit[tables.reps[flips] ^ (1 << x)])
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    moves = sparse.csr_matrix((np.full(src.size, 1.0 / n), (dst, src)),
                              shape=(size, size))
    stay = 1.0 - np.asarray(moves.sum(axis=0)).ravel()
    return (moves + sparse.diags(stay)).tocsr()


def _check_capacity(shape: TorusShape) -> None:
    if shape.n > CTMC_MAX_VERTICES:
        raise CapacityError(f"{shape.n} vertices means 2^{shape.n} states; "
                            f"limit is 2^{CTMC_MAX_VERTICES}")


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")


def _start_key(shape: TorusShape, initial):
    """("state", s) for a Configuration on shape, ("density", p) for a density."""
    if hasattr(initial, "bits"):
        if initial.shape != shape:
            raise ValueError(f"start configuration is on {initial.shape}, not {shape}")
        return "state", int(sum(int(b) << x for x, b in enumerate(initial.bits)))
    p = float(initial)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {p}")
    return "density", p


class UniformizedSeries:
    """The uniformized chain of one (shape, start), lumped onto translation
    orbits and shared by every time t.

    With P = I + Q/n, E|A_t| = sum_k Pois(k; n t) a_k, where
    a_k = v_0 P^k . popcount does not depend on t.  The threshold rule
    reads only the neighborhood of a vertex, so a translation of the torus
    maps the moves out of s to the moves out of its translate: every state
    of an orbit has the same chance to step into each orbit.  The chain is
    strongly lumpable onto the orbits (Kemeny & Snell 1960, sec. 6.3), and
    the orbit masses v_k evolve by the lumped kernel, exactly and for any
    start; the product law and |A| are constant on orbits, so a_k is read
    off the orbit masses.  A density start gives orbit j the mass
    sizes[j] p^k (1-p)^(n-k); a fixed state puts mass 1 on its orbit,
    which is the orbit-mass vector of the delta law.  The orbits and
    kernel are built once; a_k is cached and the series extends by one
    matvec per new k, so a grid of times costs the matvecs of its largest
    time.
    """

    def __init__(self, shape: TorusShape, initial):
        _check_capacity(shape)
        self.shape = shape
        self.start = _start_key(shape, initial)
        n = shape.n
        tables = _state_tables(shape)
        self._popcount = tables.bits.sum(axis=0).astype(float)
        self._PT = _uniformized_kernel(shape, tables)
        kind, value = self.start
        if kind == "state":
            v = np.zeros(tables.reps.size)
            v[tables.orbit[value]] = 1.0
        else:
            k = self._popcount
            if value == 0.0:
                v = (k == 0).astype(float)
            elif value == 1.0:
                v = (k == n).astype(float)
            else:
                v = tables.sizes * np.exp(k * math.log(value)
                                          + (n - k) * math.log1p(-value))
        self._v = v
        self._a = [self._ones(v)]

    def _ones(self, v: np.ndarray) -> float:
        # numpy's pairwise sum, not a BLAS dot: its order, and so every
        # output byte, does not depend on the BLAS thread count
        return float(np.add.reduce(v * self._popcount))

    def _term(self, k: int) -> float:
        while len(self._a) <= k:
            self._v = self._PT @ self._v
            self._a.append(self._ones(self._v))
        return self._a[k]

    def mean_ones(self, t: float, tol: float = 1e-10) -> float:
        """E|A_t| to within tol; ValueError past MAX_MATVECS Poisson terms.

        The Poisson(nt) weights are relative to the mode (Fox & Glynn 1988,
        "Computing Poisson probabilities", CACM 31(4)), so none underflows.
        Past the left and right truncation points they fall faster than a
        geometric series of ratio q < 1, so w q/(1 - q) bounds each dropped
        tail; both stop below tol/(2n) of the weight kept.  At t = 0 the
        window is [1.0], and the mean is a_0 exactly.
        """
        _check_time(t)
        n = self.shape.n
        lam = n * t
        mode = math.floor(lam)
        if mode > MAX_MATVECS:
            raise _too_many_terms(t, n)
        cut = tol / (2 * n)
        total = 1.0
        below, w, k = [], 1.0, mode  # w_{mode-1}, w_{mode-2}, ... / w_mode
        while k > 0 and not (k < lam and w * k / (lam - k) <= cut * total):
            w *= k / lam
            k -= 1
            below.append(w)
            total += w
        above, w, k = [], 1.0, mode  # w_{mode+1}, w_{mode+2}, ... / w_mode
        while w * lam / (k + 1 - lam) > cut * total:
            if k >= MAX_MATVECS:
                raise _too_many_terms(t, n)
            w *= lam / (k + 1)
            k += 1
            above.append(w)
            total += w
        first = mode - len(below)
        weights = below[::-1] + [1.0] + above
        return sum(w * self._term(first + i) for i, w in enumerate(weights)) / total


def _too_many_terms(t: float, n: int) -> ValueError:
    return ValueError(f"t={t} needs more than {MAX_MATVECS} uniformization "
                      f"steps at n={n} (about n*t); shorten the horizon")


def ctmc_mean_ones(shape: TorusShape, initial, t: float, tol: float = 1e-10, *,
                   series: UniformizedSeries | None = None) -> float:
    """Exact E|A_t| for the voter model by uniformization over the
    translation orbits of the 2^n states.

    initial may be a Configuration (delta start) or a density p in [0, 1]
    (product-law start, handled by the product weights on states).  A
    series built for the same shape and start is reused; with none, a
    fresh one is built.
    """
    _check_capacity(shape)
    _check_time(t)
    if series is None:
        series = UniformizedSeries(shape, initial)
    else:
        start = _start_key(shape, initial)
        if (series.shape, series.start) != (shape, start):
            raise ValueError(f"series was built for {series.shape} from "
                             f"{series.start}, not {shape} from {start}")
    return series.mean_ones(t, tol)


def ldp_convergence(p: float, d_max: int):
    """Exact -(1/d) log P(Bin(2d, p) >= d) for d = 1..d_max, with drift from K(p)."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"p must lie in (0, 1/2), got {p}")
    K = -math.log(4.0 * p * (1.0 - p))
    ds = np.arange(1, d_max + 1)
    rates = np.array([-binom_logtail(2 * d, p, d) / d for d in ds])
    return ds, rates, np.abs(rates - K)
