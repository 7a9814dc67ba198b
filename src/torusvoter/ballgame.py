"""Box/ball auxiliary processes and the empirical dominance-chain experiment.

2d+1 boxes hold one ball per vertex, box k holding the vertices with exactly
k one-neighbors; a box state is the int64 count array b_0..b_2d.  Four
progressively faster processes bound how quickly mass can accumulate in
boxes d..2d:

1. replay: balls move with the real dynamics (one flip moves 2d balls);
2. rightward-only moves at rate C_hat = balls in boxes >= d, always moving
   the 2d balls nearest to box d from the left region;
3. same, after lumping boxes floor(2d*p0)..d-1 into box d at time 0;
4. a single box that gains 2d balls after every m = floor(d(1-2p0))
   exponential steps at the current count's rate (approach4_run).

Here p0 = 1/4 + p/2, sitting strictly between p and 1/2.

The dominance experiment draws its replicas in batches.  Initial
configurations come in (replicas, n) blocks of at most BLOCK_SLOTS vertex
slots, and only their box histograms are kept.  The upper mass of processes
2 and 3 follows a sequence fixed by the initial boxes, so those run as one
exact jump chain over all replicas (rightward_counts) that draws only the
holding times.  Process 4 takes one vector NegBin draw at m = 1 and runs
approach4_run per replica at m > 1 (single_box_counts).  The path sampler
rightward_move remains as the reference the chain is tested against; the
ball replay, the scalar single-box count and the path of process 2 are
test references in tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import EAccumulator, ObservableSeries, neighbor_histograms
from .spin import THRESHOLD, Configuration, check_horizon, run, sample_product_batch
from .torus import TorusShape


def rightward_move(counts: np.ndarray, rng: np.random.Generator) -> None:
    """One rightward-only move on box counts b_0..b_2d, in place: relocate 2d balls.

    Drain the nonempty boxes below d from the top down, partially draining
    the last one.  If the whole left region holds fewer than 2d balls, shift
    every left box one step right, then top up b_2d with balls drawn one at
    a time from boxes d..2d weighted by their current counts.
    """
    d = (len(counts) - 1) // 2
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


def rightward_move_rows(left: np.ndarray) -> np.ndarray:
    """rightward_move on many left regions at once: rows of b_0..b_{d-1}.

    Updates `left` in place and returns the balls each row moves into box
    d.  The top-up of b_2d is left out, since it only moves balls among
    boxes d..2d and so never changes the upper mass.
    """
    need = 2 * left.shape[1]
    total = left.sum(axis=1)
    above = total[:, None] - np.cumsum(left, axis=1)  # balls in boxes k+1..d-1
    drain = (total >= need)[:, None]
    # drain: box k gives what the boxes above it leave of the 2d; shift: all
    moved = np.where(drain, np.minimum(left, np.maximum(need - above, 0)), left)
    left -= moved
    left[:, 1:] += moved[:, :-1]
    return moved[:, -1]


def rightward_counts(counts: np.ndarray, T: float, rng: np.random.Generator) -> np.ndarray:
    """C_hat_T of the rightward-only process from each row of box counts.

    Exact in law with the rightward-only path, one rightward_move per
    Exp(C_hat) holding time.  The left region moves by fixed
    arithmetic, so the upper masses u_0 <= u_1 <= ... are fixed by the
    initial boxes and only the holding times are random: move j waits
    Exp(u_j).  Each move draws one standard_exponential block over the
    replicas still live.  A replica retires when its clock passes T, its
    left region is empty, or its upper mass is 0.
    """
    d = (counts.shape[1] - 1) // 2
    left = counts[:, :d].copy()
    upper = counts[:, d:].sum(axis=1)
    clock = np.zeros(len(counts))
    live = np.flatnonzero((upper > 0) & left.any(axis=1))
    while live.size:
        clock[live] += rng.standard_exponential(live.size) / upper[live]
        live = live[clock[live] < T]
        rows = left[live]
        upper[live] += rightward_move_rows(rows)
        left[live] = rows
        live = live[rows.any(axis=1)]
    return upper


def p_zero(p: float) -> float:
    """p0 = 1/4 + p/2, strictly between p and 1/2 whenever p < 1/2."""
    if not 0.0 <= p < 0.5:
        raise ValueError(f"density must lie in [0, 1/2), got {p}")
    return 0.25 + p / 2.0


def lump_boxes(counts: np.ndarray, p: float) -> np.ndarray:
    """Copy of box counts (last axis b_0..b_2d) with boxes
    floor(2d*p0)..d-1 lumped into b_d."""
    d = (counts.shape[-1] - 1) // 2
    lo = math.floor(2 * d * p_zero(p))
    out = counts.copy()
    out[..., d] += out[..., lo:d].sum(axis=-1)
    out[..., lo:d] = 0
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
    check_horizon(T)
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


def single_box_counts(I0: np.ndarray, d: int, p: float, T: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Count of the single-box process at time T from each entry of I0.

    At m = 1, jump j comes at rate I0 + 2d(j-1) = 2d(j-1 + a) with
    a = I0/(2d): the jump count J_T is a linear birth process with
    immigration, so J_T ~ NegBin(a, e^{-2dT}) exactly (Kendall 1948), and
    the count is I0 + 2d J_T.  The entries with I0 > 0 share one vector
    NegBin draw, and I0 = 0 draws nothing.  At m > 1 each entry runs
    approach4_run in turn.  Runs past MAX_JUMPS jumps are refused either way.
    """
    check_horizon(T)
    m = step_count(d, p)
    if m > 1:
        return np.array([approach4_run(int(i), d, p, T, rng).series.values[-1] for i in I0],
                        dtype=np.int64)
    out = np.zeros(len(I0), dtype=np.int64)
    occupied = I0 > 0
    start = I0[occupied]
    if start.size == 0:
        return out
    try:
        jumps = rng.negative_binomial(start / (2 * d), math.exp(-2 * d * T))
    except ValueError:  # numpy: "n too large or p too small", or p underflows
        raise _too_many_jumps(int(start.max()), d, m, T) from None
    over = jumps > MAX_JUMPS
    if over.any():
        raise _too_many_jumps(int(start[over][0]), d, m, T)
    out[occupied] = start + 2 * d * jumps
    return out


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


# Vertex slots per block of initial configurations.  2^16 is one d=16
# configuration, so from d=16 up a block holds what sample_product would.
BLOCK_SLOTS = 2 ** 16


def _initial_blocks(shape, p, replicas, rng):
    """(bits, ones_nbr) of `replicas` product configurations, drawn in
    blocks of at most BLOCK_SLOTS vertex slots (one configuration if n is
    larger)."""
    size = max(1, BLOCK_SLOTS // shape.n)
    for start in range(0, replicas, size):
        yield sample_product_batch(shape, p, min(size, replicas - start), rng)


def _initial_boxes(shape, p, replicas, rng):
    """(replicas, 2d+1) box histograms of product configurations; only one
    block of configurations is held at a time."""
    return np.concatenate([neighbor_histograms(ones_nbr, shape.d)
                           for _, ones_nbr in _initial_blocks(shape, p, replicas, rng)])


def _sample_E_T(shape, p, T, replicas, rng):
    out = np.empty(replicas, dtype=np.int64)
    i = 0
    for bits, ones_nbr in _initial_blocks(shape, p, replicas, rng):
        for row_bits, row_nbr in zip(bits, ones_nbr):
            acc = EAccumulator()
            run(Configuration(shape, row_bits, row_nbr), THRESHOLD, T, rng,
                observers=(acc,))
            out[i] = acc.size
            i += 1
    return out


def _sample_C_hat(shape, p, T, replicas, rng):
    return rightward_counts(_initial_boxes(shape, p, replicas, rng), T, rng)


def _sample_C_bar(shape, p, T, replicas, rng):
    return rightward_counts(lump_boxes(_initial_boxes(shape, p, replicas, rng), p), T, rng)


def _sample_C_tilde(shape, p, T, replicas, rng):
    d = shape.d
    lo = math.floor(2 * d * p_zero(p))
    I0 = _initial_boxes(shape, p, replicas, rng)[:, lo:].sum(axis=1)
    return single_box_counts(I0, d, p, T, rng)


def dominance_experiment(shape: TorusShape, p: float, T: float, replicas: int,
                         M_grid, rng_streams) -> DominanceReport:
    """Estimate the four survival functions and check the dominance chain.

    rng_streams: four independent generators, one per process (each process
    draws its own initial configurations).  Adjacent orderings in
    E_T <= C_hat <= C_bar <= C_tilde (distributionally) are checked at every
    M; failures beyond 2 combined standard errors are recorded, not raised.

    M_grid=None takes 20 points over [0, n], where E_T, C_hat and C_bar
    live, together with 20 over [0, max of all samples] for the tail of
    C_tilde, which has no box capacity and can run far past n.
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
        M_grid = np.union1d(np.linspace(0.0, float(shape.n), 20),
                            np.linspace(0.0, float(top), 20))
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
