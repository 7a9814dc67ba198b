"""Box/ball auxiliary processes and the empirical dominance-chain experiment.

2d+1 boxes hold one ball per vertex, box k holding the vertices with exactly
k one-neighbors.  Four progressively faster processes bound how quickly mass
can accumulate in boxes d..2d:

1. replay: balls move with the real dynamics (one flip moves 2d balls);
2. rightward-only moves at rate C_hat = balls in boxes >= d, always moving
   the 2d balls nearest to box d from the left region;
3. same, after lumping boxes floor(2d*p0)..d-1 into box d at time 0;
4. a single box that gains 2d balls after every m = floor(d(1-2p0))
   exponential steps at the current count's rate.  At m = 1 its final count
   is drawn in closed form (single_box_count); otherwise its path is
   simulated (approach4_run).

Here p0 = 1/4 + p/2, sitting strictly between p and 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import EAccumulator, ObservableSeries, neighbor_histogram
from .spin import THRESHOLD, _exp_variate, flip_and_count, sample_product, run
from .torus import TorusShape, neighbor_kernel


@dataclass
class BoxState:
    """Ball counts per box b_0..b_2d; total is conserved by every move."""

    counts: np.ndarray  # int64, length 2d+1

    @property
    def d(self) -> int:
        return (len(self.counts) - 1) // 2

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def upper_mass(self) -> int:
        """Balls in boxes d..2d (the C_hat statistic)."""
        return int(self.counts[self.d:].sum())

    def copy(self) -> "BoxState":
        return BoxState(self.counts.copy())


def boxes_from_config(cfg) -> BoxState:
    return BoxState(neighbor_histogram(cfg).counts.copy())


def replay_boxes(traj):
    """Yield (time, BoxState) along a trajectory, moving balls per flip.

    A flip at x moves the ball of each distinct neighbor of x by its slot
    weight w (torus.neighbor_kernel): right on a 0->1 flip, left on a 1->0
    flip.  Matches boxes_from_config of the replayed configuration at every
    event (tested).
    """
    cfg = traj.initial.copy()
    box = boxes_from_config(cfg)
    yield 0.0, box.copy()
    nbrs_of, w = neighbor_kernel(cfg.shape)
    for ev in traj.events:
        nbrs = nbrs_of(ev.vertex)
        k = cfg.ones_nbr[nbrs]
        np.subtract.at(box.counts, k, 1)
        np.add.at(box.counts, k + (w if ev.new_value == 1 else -w), 1)
        flip_and_count(cfg, ev.vertex, ev.new_value, nbrs, w)
        yield ev.time, box.copy()


def rightward_move(box: BoxState, rng: np.random.Generator) -> None:
    """One move of the rightward-only process: relocate 2d balls.

    Drain the nonempty boxes below d from the top down, partially draining
    the last one.  If the whole left region holds fewer than 2d balls, shift
    every left box one step right, then top up b_2d with balls drawn one at
    a time from boxes d..2d weighted by their current counts.
    """
    counts = box.counts
    d = box.d
    need = 2 * d
    left_total = int(counts[:d].sum())
    if left_total >= need:
        for k in range(d - 1, -1, -1):
            if need == 0:
                break
            take = min(int(counts[k]), need)
            counts[k] -= take
            counts[k + 1] += take
            need -= take
    else:
        # shift the left region, then draw the remainder from the right region
        old_left = counts[:d].copy()
        counts[d] += old_left[d - 1]
        counts[1:d] = old_left[: d - 1]
        counts[0] = 0
        remainder = 2 * d - left_total
        for _ in range(remainder):
            weights = counts[d:].astype(float)
            total = weights.sum()
            if total <= 0:
                break
            src = d + int(rng.choice(len(weights), p=weights / total))
            counts[src] -= 1
            counts[2 * d] += 1


def approach2_run(box: BoxState, T: float, rng: np.random.Generator) -> ObservableSeries:
    """C_hat_t series: moves at rate C_hat_t, never moving balls left."""
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    box = box.copy()
    t = 0.0
    times, values = [0.0], [float(box.upper_mass)]
    while True:
        rate = box.upper_mass
        if rate == 0:
            break  # frozen
        t += _exp_variate(rng, rate)
        if t >= T:
            break
        rightward_move(box, rng)
        new = box.upper_mass
        assert new >= values[-1], "rightward process lost upper mass"
        if new != values[-1]:
            times.append(t)
            values.append(float(new))
        if box.counts[:box.d].sum() == 0:
            break  # left region drained: moves only shuffle the right region
    return ObservableSeries(times, values, T)


def p_zero(p: float) -> float:
    """p0 = 1/4 + p/2, strictly between p and 1/2 whenever p < 1/2."""
    if not 0.0 <= p < 0.5:
        raise ValueError(f"density must lie in [0, 1/2), got {p}")
    return 0.25 + p / 2.0


def approach3_init(box: BoxState, p: float) -> BoxState:
    """Lump boxes floor(2d*p0)..d-1 into b_d; evolution then follows approach 2."""
    d = box.d
    lo = math.floor(2 * d * p_zero(p))
    out = box.copy()
    moved = int(out.counts[lo:d].sum())
    out.counts[lo:d] = 0
    out.counts[d] += moved
    return out


def step_count(d: int, p: float) -> int:
    """m = floor(d(1 - 2 p0)) = floor(d(1/2 - p)); steps per 2d-ball gain."""
    p_zero(p)  # validates the density range
    # d(1 - 2 p0) = d(1/2 - p); the direct form plus a tolerance keeps the
    # floor stable when d(1/2 - p) is an integer up to float noise
    m = math.floor(d * (0.5 - p) + 1e-9)
    if m < 1:
        d_min = math.ceil(1.0 / (0.5 - p))
        while d_min > 1 and math.floor((d_min - 1) * (0.5 - p) + 1e-9) >= 1:
            d_min -= 1
        raise ValueError(
            f"degenerate single-box process: floor(d(1/2-p)) = 0 at d={d}, p={p}; "
            f"need d >= {d_min}")
    return m


MAX_JUMPS = 5_000_000  # the count grows like exp(2dT/m); refuse to chase it


def _too_many_jumps(I0: int, d: int, m: int, T: float) -> ValueError:
    return ValueError(
        f"single-box run needs more than {MAX_JUMPS} jumps before "
        f"T={T} (I0={I0}, d={d}, m={m}); shorten the horizon")


@dataclass
class SingleBoxRun:
    """C_tilde series plus the per-jump ratio statistics tau_j / E[tau_j]."""

    series: ObservableSeries
    taus: list[float]
    tau_ratios: list[float]


def approach4_run(I0: int, d: int, p: float, T: float,
                  rng: np.random.Generator) -> SingleBoxRun:
    """Single-box process: count I0 + 2d*j after j jumps, jump j taking the
    sum of m unit exponentials divided by the pre-jump count."""
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    m = step_count(d, p)
    times, values = [0.0], [float(I0)]
    if I0 <= 0:
        return SingleBoxRun(ObservableSeries(times, values, T), [], [])
    gammas = np.empty(0)
    cum = np.empty(0)
    block = 1024
    while cum.size == 0 or cum[-1] < T:
        if gammas.size > MAX_JUMPS:  # all of them come before T
            raise _too_many_jumps(I0, d, m, T)
        more = rng.standard_gamma(m, size=block)
        gammas = np.concatenate([gammas, more])
        j = np.arange(1, gammas.size + 1)
        cum = np.cumsum(gammas / (I0 + 2 * d * (j - 1)))
        block *= 2
    jumps = int(np.searchsorted(cum, T))  # jumps strictly before T
    if jumps > MAX_JUMPS:
        raise _too_many_jumps(I0, d, m, T)
    taus = gammas[:jumps] / (I0 + 2 * d * np.arange(jumps))
    times += list(cum[:jumps])
    values += [float(I0 + 2 * d * j) for j in range(1, jumps + 1)]
    ratios = gammas[:jumps] / m  # tau_j / E[tau_j]
    return SingleBoxRun(ObservableSeries(times, values, T),
                        list(taus), list(ratios))


def single_box_count(I0: int, d: int, p: float, T: float,
                     rng: np.random.Generator) -> int:
    """Count of the single-box process at time T, started from I0.

    At m = 1, jump j comes at rate I0 + 2d(j-1) = 2d(j-1 + a) with
    a = I0/(2d): the jump count J_T is a linear birth process with
    immigration, so J_T ~ NegBin(a, e^{-2dT}) exactly (Kendall 1948) and one
    draw gives the count I0 + 2d J_T.  For m > 1 the path is simulated by
    approach4_run.  Runs past MAX_JUMPS jumps are refused either way.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
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


APPROACHES = ("E_T", "C_hat", "C_bar", "C_tilde")


@dataclass
class DominanceReport:
    """Empirical survival functions of the four processes on a common M grid."""

    shape: TorusShape
    p: float
    T: float
    replicas: int
    M_grid: np.ndarray
    survival: dict[str, np.ndarray]  # approach -> survival per M
    stderr: dict[str, np.ndarray]
    samples: dict[str, np.ndarray]
    violations: list  # (left, right, M, gap, combined_se) where ordering failed

    def rows(self):
        for name in APPROACHES:
            for i, M in enumerate(self.M_grid):
                yield (name, float(M), float(self.survival[name][i]),
                       float(self.stderr[name][i]), self.replicas)


def _sample_E_T(shape, p, T, replicas, rng):
    out = np.empty(replicas, dtype=np.int64)
    for i in range(replicas):
        cfg = sample_product(shape, p, rng)
        acc = EAccumulator()
        run(cfg, THRESHOLD, T, rng, observers=(acc,))
        out[i] = acc.size
    return out


def _sample_C_hat(shape, p, T, replicas, rng):
    out = np.empty(replicas, dtype=np.int64)
    for i in range(replicas):
        cfg = sample_product(shape, p, rng)
        series = approach2_run(boxes_from_config(cfg), T, rng)
        out[i] = int(series.values[-1])
    return out


def _sample_C_bar(shape, p, T, replicas, rng):
    out = np.empty(replicas, dtype=np.int64)
    for i in range(replicas):
        cfg = sample_product(shape, p, rng)
        box = approach3_init(boxes_from_config(cfg), p)
        series = approach2_run(box, T, rng)
        out[i] = int(series.values[-1])
    return out


def _sample_C_tilde(shape, p, T, replicas, rng):
    d = shape.d
    lo = math.floor(2 * d * p_zero(p))
    out = np.empty(replicas, dtype=np.int64)
    for i in range(replicas):
        cfg = sample_product(shape, p, rng)
        I0 = neighbor_histogram(cfg).suffix(lo)
        out[i] = single_box_count(I0, d, p, T, rng)
    return out


def dominance_experiment(shape: TorusShape, p: float, T: float, replicas: int,
                         M_grid, rng_streams) -> DominanceReport:
    """Estimate the four survival functions and check the dominance chain.

    rng_streams: four independent generators, one per process (each process
    draws its own initial configurations).  Adjacent orderings in
    E_T <= C_hat <= C_bar <= C_tilde (distributionally) are checked at every
    M; failures beyond 2 combined standard errors are recorded, not raised.
    """
    from .oracle import ldp_constants

    if not 0.0 < p < 0.5:
        raise ValueError(f"density must lie in (0, 1/2), got {p}")
    if not ldp_constants(p, shape.r).admissible:
        raise ValueError(f"inadmissible (p={p}, r={shape.r}): need 4p(1-p) > 1/r")
    step_count(shape.d, p)  # raises when the single-box process degenerates
    if replicas < 1:
        raise ValueError("need at least one replica")
    samplers = {
        "E_T": _sample_E_T,
        "C_hat": _sample_C_hat,
        "C_bar": _sample_C_bar,
        "C_tilde": _sample_C_tilde,
    }
    samples = {name: samplers[name](shape, p, T, replicas, rng)
               for name, rng in zip(APPROACHES, rng_streams)}
    if M_grid is None:
        top = max(s.max() for s in samples.values())
        M_grid = np.linspace(0.0, float(top), 20)
    M_grid = np.asarray(M_grid, dtype=float)
    survival, stderr = {}, {}
    for name, s in samples.items():
        surv = np.array([(s > M).mean() for M in M_grid])
        survival[name] = surv
        stderr[name] = np.sqrt(surv * (1.0 - surv) / replicas)
    violations = []
    for left, right in zip(APPROACHES[:-1], APPROACHES[1:]):
        gap = survival[left] - survival[right]  # should be <= 0 up to noise
        combined = np.sqrt(stderr[left] ** 2 + stderr[right] ** 2)
        for i, M in enumerate(M_grid):
            if gap[i] > 2.0 * combined[i]:
                violations.append((left, right, float(M), float(gap[i]),
                                   float(combined[i])))
    return DominanceReport(shape, p, T, replicas, M_grid, survival, stderr,
                           samples, violations)


def write_report_csv(report: DominanceReport, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["approach", "M", "survival", "stderr", "replicas"])
        for row in report.rows():
            w.writerow([row[0], format(row[1], ".17g"), format(row[2], ".17g"),
                        format(row[3], ".17g"), row[4]])
