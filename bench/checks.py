"""Exact output checks, one family per workload.

Every check is an identity the program must satisfy for any law-preserving
implementation, so a change in RNG consumption cannot trip it.  Each
function returns a list of failure messages (empty when the output is
right) and takes plain values, so the self-test can hand it corrupted ones.
"""

from __future__ import annotations

import numpy as np


def simulate_replica(spin, traj, final) -> list[str]:
    """Replay a threshold-dynamics Trajectory against the engine's final state.

    Every flip must hit a vertex whose threshold rate was 1 just before it
    and must change that vertex's value; the replayed counts must survive a
    from-scratch rebuild; the replayed end state must equal `final`.
    """
    errors = []
    last = 0.0
    steps = spin.replay(traj)
    _, cfg = next(steps)
    for i, ev in enumerate(traj.events):
        if not last <= ev.time <= traj.horizon:
            errors.append(f"event {i}: time {ev.time} out of order")
        last = ev.time
        x = ev.vertex
        if spin.threshold_rate(cfg, x) != 1:
            errors.append(f"event {i}: vertex {x} flipped at rate 0")
        if ev.new_value != 1 - int(cfg.bits[x]):
            errors.append(f"event {i}: vertex {x} 'flipped' to its own value")
        if errors:
            return errors
        next(steps)
    try:
        spin.verify_counts(cfg)
    except spin.CountMismatchError as exc:
        errors.append(f"replayed counts drift: {exc}")
    if not np.array_equal(cfg.bits, final.bits):
        errors.append("replayed final bits differ from the engine's")
    if not np.array_equal(cfg.ones_nbr, final.ones_nbr):
        errors.append("replayed final counts differ from the engine's")
    return errors


def couple_replica(traj, grid) -> list[str]:
    """lower <= upper (in |ones|) at every grid time of a CoupledTrajectory."""
    lower, upper = traj.lower_sizes(), traj.upper_sizes()
    errors = []
    for t in grid:
        lo, up = lower.value_at(float(t)), upper.value_at(float(t))
        if lo > up:
            errors.append(f"lower {lo} > upper {up} at t={t}")
    return errors


def ballgame_samples(samples: dict, n: int) -> list[str]:
    """E_T, C_hat, C_bar lie in [0, n]; C_tilde (no box capacity) is >= 0."""
    errors = []
    for name in ("E_T", "C_hat", "C_bar"):
        s = samples[name]
        if s.min() < 0 or s.max() > n:
            errors.append(f"{name} outside [0, {n}]: [{s.min()}, {s.max()}]")
    if samples["C_tilde"].min() < 0:
        errors.append(f"C_tilde negative: {samples['C_tilde'].min()}")
    return errors


def oracle_initial(mean: float, n: int, p: float) -> list[str]:
    """The t=0 CTMC mean under the product law is exactly n*p."""
    if abs(mean - n * p) > 1e-9:
        return [f"t=0 mean {mean!r} != n*p = {n * p!r}"]
    return []


def generator_mean(torus, shape, p: float, t: float) -> float:
    """E|A_t| from scipy's expm_multiply on a generator built from torus.neighbors.

    Independent of the oracle module: the 2^n x 2^n rate matrix is assembled
    here from the threshold rule, then exp(tQ^T) acts on the product law.
    """
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    n, d = shape.n, shape.d
    states = np.arange(1 << n, dtype=np.int64)
    bits = [(states >> x) & 1 for x in range(n)]
    src, dst = [], []
    for x in range(n):
        ones = sum(bits[y] for y in torus.neighbors(shape, x))
        disagree = np.where(bits[x] == 0, ones, 2 * d - ones)
        flips = states[disagree >= d]
        src.append(flips)
        dst.append(flips ^ (1 << x))
    src, dst = np.concatenate(src), np.concatenate(dst)
    Q = sparse.csr_matrix((np.ones(src.size), (src, dst)), shape=(1 << n, 1 << n))
    Q = Q - sparse.diags(np.asarray(Q.sum(axis=1)).ravel())
    popcount = np.sum(bits, axis=0).astype(float)
    law = np.exp(popcount * np.log(p) + (n - popcount) * np.log1p(-p))
    return float(expm_multiply(Q.T.tocsr() * t, law) @ popcount)


def oracle_reference(mean: float, reference: float) -> list[str]:
    if abs(mean - reference) > 1e-8:
        return [f"CTMC mean {mean!r} != generator reference {reference!r}"]
    return []
