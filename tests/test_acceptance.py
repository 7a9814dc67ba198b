"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package at pinned parameters
and tolerances, prints a single live PASS/FAIL line (bypassing capture), and
enforces its runtime budget.  Statistical checks use 3 standard errors for
means and medians-of-200 style order statistics, 4 for variances.
"""

import math
import time

import numpy as np
import pytest

from torusvoter.ballgame import dominance_experiment
from torusvoter.coupling import coupled_run_eta_zeta, coupled_run_monotone
from torusvoter.observables import EAccumulator, FractionObserver, fluid, sup_deviation
from torusvoter.oracle import (exact_var_C0, expected_C0,
                               expected_suffix_count, ldp_constants,
                               ldp_convergence, neighbor_tail)
from torusvoter.spin import THRESHOLD, RngStream, config_from_bits, run, sample_product
from torusvoter.torus import TorusShape, two_hop_set

from bruteforce import enumerate_C0_moments, enumerate_suffix_count
from reference import sample_death_counts

pytestmark = pytest.mark.acceptance

SEED = 20260826


def _stream(stream_id):
    return RngStream(SEED, stream_id).generator()


def _report(capsys, name, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    line = (f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _final_ones(traj):
    count = traj.initial.ones_count()
    for ev in traj.events:
        count += 1 if ev.new_value == 1 else -1
    return count


def test_monte_carlo_mean_matches_exact_chain(capsys):
    # d=1, r=3, fixed start (1,1,0): the exact mean ones count at t=1 is
    # 1.8 + 0.2 e^{-5} by lumping the chain to its ones count
    start = time.perf_counter()
    shape = TorusShape(1, 3)
    exact = 1.8 + 0.2 * math.exp(-5.0)
    replicas = 100_000
    counts = np.empty(replicas)
    for i in range(replicas):
        rng = _stream(i)
        cfg = config_from_bits(shape, [1, 1, 0])
        counts[i] = _final_ones(run(cfg, THRESHOLD, 1.0, rng))
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(replicas)
    ok = abs(mean - exact) < 3 * se
    _report(capsys, "monte-carlo mean vs exact chain", ok,
            f"mean={mean:.6f} exact={exact:.6f} se={se:.2g}",
            time.perf_counter() - start, 30.0)


def test_exact_moments_match_enumeration(capsys):
    start = time.perf_counter()
    shapes = [TorusShape(1, 3), TorusShape(1, 4), TorusShape(1, 5),
              TorusShape(2, 2)]
    densities = [round(0.1 * k, 1) for k in range(1, 10)]
    worst = 0.0
    for shape in shapes:
        for p in densities:
            mean, var = enumerate_C0_moments(shape, p)
            worst = max(worst, abs(expected_C0(shape, p) - mean),
                        abs(exact_var_C0(shape, p) - var))
            for k in range(2 * shape.d + 1):
                worst = max(worst, abs(expected_suffix_count(shape, p, k)
                                       - enumerate_suffix_count(shape, p, k)))
    hops_ok = all(len(two_hop_set(TorusShape(d, 5), 0)) == 2 * d * d
                  for d in range(1, 6))
    ok = worst < 1e-12 and hops_ok
    _report(capsys, "exact moments vs enumeration", ok,
            f"max |diff|={worst:.2g}, two-hop growth 2d^2 on r=5: {hops_ok}",
            time.perf_counter() - start, 10.0)


def test_pathwise_domination_never_violated(capsys):
    start = time.perf_counter()
    shape = TorusShape(6, 2)
    violations = 0
    for i in range(1000):
        try:
            coupled_run_eta_zeta(shape, 0.4, 2.0, _stream(i))
        except AssertionError:
            violations += 1
    for i in range(1000):
        try:
            coupled_run_monotone(shape, 0.3, 0.45, 2.0, _stream(100_000 + i))
        except AssertionError:
            violations += 1
    ok = violations == 0
    _report(capsys, "pathwise domination", ok,
            f"{violations} violations over 2000 coupled trajectories",
            time.perf_counter() - start, 60.0)


def test_death_process_law_and_martingale(capsys):
    start = time.perf_counter()
    shape = TorusShape(10, 2)
    p, replicas = 0.4, 10_000
    ts = [0.5, 1.0, 2.0]
    counts = sample_death_counts(shape, p, ts, replicas, _stream(0)).astype(float)
    n = shape.n
    notes, ok = [], True
    for j, t in enumerate(ts):
        s = p * math.exp(-t)
        mean, var = n * s, n * s * (1 - s)
        col = counts[:, j]
        se = math.sqrt(var / replicas)
        mean_ok = abs(col.mean() - mean) < 3 * se
        var_se = var * math.sqrt(2.0 / (replicas - 1))
        var_ok = abs(col.var(ddof=1) - var) < 4 * var_se
        scaled = col / s
        mart_se = scaled.std(ddof=1) / math.sqrt(replicas)
        mart_ok = abs(scaled.mean() - n) < 3 * mart_se
        ok = ok and mean_ok and var_ok and mart_ok
        notes.append(f"t={t}: mean {'ok' if mean_ok else 'BAD'} "
                     f"var {'ok' if var_ok else 'BAD'} "
                     f"martingale {'ok' if mart_ok else 'BAD'}")
    _report(capsys, "death-process law", ok, "; ".join(notes),
            time.perf_counter() - start, 60.0)


def _median_sup_deviations(p, T, replicas, dims, base_stream):
    medians = []
    for d in dims:
        shape = TorusShape(d, 2)
        sups = []
        for i in range(replicas):
            rng = _stream(base_stream + (d << 20) + i)
            cfg = sample_product(shape, p, rng)
            obs = FractionObserver()
            run(cfg, THRESHOLD, T, rng, observers=(obs,))
            sups.append(sup_deviation(obs.series(), p, T))
        medians.append(float(np.median(sups)))
    return medians


def test_subcritical_fluid_convergence(capsys):
    start = time.perf_counter()
    dims = (6, 8, 10, 12, 14)
    medians = _median_sup_deviations(0.2, 2.0, 200, dims, 1_000_000)
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    ok = decreasing and medians[-1] < 0.05
    _report(capsys, "fluid limit below critical density", ok,
            "medians " + ", ".join(f"d={d}:{m:.4f}" for d, m in
                                   zip(dims, medians)),
            time.perf_counter() - start, 600.0)


def test_supercritical_fluid_convergence(capsys):
    start = time.perf_counter()
    dims = (6, 8, 10, 12, 14)
    medians = _median_sup_deviations(0.8, 2.0, 200, dims, 2_000_000)
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    ok = decreasing and medians[-1] < 0.05
    _report(capsys, "fluid limit above critical density", ok,
            "medians " + ", ".join(f"d={d}:{m:.4f}" for d, m in
                                   zip(dims, medians)),
            time.perf_counter() - start, 600.0)


def test_critical_density_stays_balanced(capsys):
    start = time.perf_counter()
    shape = TorusShape(10, 2)
    replicas = 1000
    ts = [0.5, 1.0, 2.0]
    fracs = np.empty((replicas, len(ts)))
    for i in range(replicas):
        rng = _stream(3_000_000 + i)
        cfg = sample_product(shape, 0.5, rng)
        obs = FractionObserver()
        run(cfg, THRESHOLD, 2.0 + 1e-9, rng, observers=(obs,))
        series = obs.series()
        fracs[i] = [series.value_at(t) for t in ts]
    ok = True
    notes = []
    for j, t in enumerate(ts):
        se = fracs[:, j].std(ddof=1) / math.sqrt(replicas)
        good = abs(fracs[:, j].mean() - 0.5) < 3 * se
        ok = ok and good
        notes.append(f"t={t}: mean={fracs[:, j].mean():.4f}"
                     f"{'' if good else ' BAD'}")
    _report(capsys, "symmetry at the critical density", ok, "; ".join(notes),
            time.perf_counter() - start, 120.0)


def _mean_se(values):
    values = np.asarray(values)
    se = values.std(ddof=1) / math.sqrt(values.size)
    return float(values.mean()), float(se)


def test_flip_enabled_set_vanishes(capsys):
    # E_T contains C_0, whose exact mean fraction on the r=2 multigraph is
    # floor_d = P(2 Bin(d, p) >= d); the floor itself falls to 0 with d.
    # Checked against it: E_T starts at C_0 (within 3 SE), the growth
    # beyond C_0 relative to floor_d falls by more than 3 combined SE per
    # step in d, and the mean fraction of E_T falls with d.
    start = time.perf_counter()
    dims = (6, 10, 14)
    p, T, replicas = 0.2, 1.0, 200
    starts_ok, means, ratios, parts = True, [], [], []
    for d in dims:
        shape = TorusShape(d, 2)
        floor_d = neighbor_tail(d, 2, p, d)
        initial, final = [], []
        for i in range(replicas):
            rng = _stream(4_000_000 + (d << 20) + i)
            cfg = sample_product(shape, p, rng)
            acc = EAccumulator()
            run(cfg, THRESHOLD, T, rng, observers=(acc,))
            initial.append(acc.sizes[0] / shape.n)
            final.append(acc.size / shape.n)
        m0, se0 = _mean_se(initial)
        starts_ok = starts_ok and abs(m0 - floor_d) < 3 * se0
        g, g_se = _mean_se(np.subtract(final, initial))
        means.append(float(np.mean(final)))
        ratios.append((g / floor_d, g_se / floor_d))
        parts.append(f"d={d}: start={m0:.5f} floor={floor_d:.5f} "
                     f"E={means[-1]:.5f} growth/floor={g / floor_d:.3f}"
                     f"+-{g_se / floor_d:.3f}")
    shrinking = all(a - b > 3 * math.hypot(sa, sb)
                    for (a, sa), (b, sb) in zip(ratios, ratios[1:]))
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ok = starts_ok and shrinking and decreasing
    _report(capsys, "ever-enabled set vanishes with dimension", ok,
            "; ".join(parts),
            time.perf_counter() - start, 300.0)


def test_survival_dominance_chain(capsys):
    start = time.perf_counter()
    p, T, replicas = 0.3, 0.5, 10_000
    all_violations = []
    for d in (6, 8):
        shape = TorusShape(d, 2)
        streams = [_stream(5_000_000 + (d << 4) + k) for k in range(4)]
        report = dominance_experiment(shape, p, T, replicas, None, streams)
        all_violations.extend((d,) + v for v in report.violations)
    ok = not all_violations
    detail = ("no ordering violations at 2 combined SE" if ok else
              "; ".join(f"d={v[0]} {v[1]}>{v[2]} at M={v[3]:.1f} "
                        f"gap={v[4]:.4f} se={v[5]:.4f}"
                        for v in all_violations))
    _report(capsys, "auxiliary-process dominance chain", ok, detail,
            time.perf_counter() - start, 600.0)


def test_binomial_tail_rate_convergence(capsys):
    start = time.perf_counter()
    _, rates, drift = ldp_convergence(0.3, 200)
    K = ldp_constants(0.3, 2).K
    close = abs(rates[-1] - K) < 0.03
    tail = drift[19:]
    shrinking = all(b < a for a, b in zip(tail, tail[1:]))
    ok = close and abs(K - 0.1743534) < 1e-6 and shrinking
    _report(capsys, "binomial tail decay rate", ok,
            f"rate(d=200)={rates[-1]:.6f} K={K:.7f} "
            f"drift monotone for d>=20: {shrinking}",
            time.perf_counter() - start, 1.0)


def test_high_threshold_fraction_shrinks(capsys):
    start = time.perf_counter()
    p, q = 0.3, 0.45
    exact = {d: neighbor_tail(d, 2, p, math.floor(2 * d * q))
             for d in (10, 20, 40)}
    vals = [exact[d] for d in (10, 20, 40)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    shape = TorusShape(10, 2)
    k = math.floor(20 * q)
    replicas = 1000
    fracs = np.empty(replicas)
    for i in range(replicas):
        cfg = sample_product(shape, p, _stream(6_000_000 + i))
        fracs[i] = np.count_nonzero(cfg.ones_nbr >= k) / shape.n
    se = fracs.std(ddof=1) / math.sqrt(replicas)
    mc_ok = abs(fracs.mean() - exact[10]) < 3 * se
    ok = decreasing and mc_ok
    _report(capsys, "crowded-neighborhood fraction shrinks", ok,
            f"exact {vals[0]:.4f} > {vals[1]:.4f} > {vals[2]:.4f}; "
            f"mc(d=10)={fracs.mean():.4f} vs {exact[10]:.4f}",
            time.perf_counter() - start, 60.0)


def test_threshold_set_outgrows_exponential(capsys):
    start = time.perf_counter()
    p = 0.45
    C = ldp_constants(p, 2).C
    medians = []
    for d in (8, 12, 16):
        shape = TorusShape(d, 2)
        vals = []
        for i in range(200):
            cfg = sample_product(shape, p, _stream(7_000_000 + (d << 20) + i))
            vals.append(np.count_nonzero(cfg.ones_nbr >= d) / math.exp(C * d))
        medians.append(float(np.median(vals)))
    ok = medians[0] < medians[1] < medians[2]
    _report(capsys, "enabled-set growth beats its exponential scale", ok,
            "medians " + ", ".join(f"d={d}:{m:.2f}" for d, m in
                                   zip((8, 12, 16), medians)),
            time.perf_counter() - start, 120.0)
