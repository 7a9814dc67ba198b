"""The clock phase of spin.run, judged by the exact oracles.

spin.run applies the graphical construction in vector windows on r = 2 tori
of at least spin._CLOCK_MIN_VERTICES vertices when no observer is attached,
and hands the rest of the run to the scalar engine once few rings flip.
Most tests patch the dispatch constants so that the phase runs on tori
small enough for the exact orbit chain; the rest run it where it runs by
itself (d = 14) and compare it with the scalar engine.
"""

import importlib.util
import math
import os

import numpy as np
import pytest

from torusvoter import spin
from torusvoter.oracle import ctmc_mean_ones, death_law
from torusvoter.spin import (DEATH, THRESHOLD, RngStream, config_from_bits, run,
                             sample_product, verify_counts)
from torusvoter.torus import TorusShape

BENCH_CHECKS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "checks.py")


def _bench_checks():
    """bench/checks.py, the benchmark's exact output checks, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH_CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


@pytest.fixture
def clock(monkeypatch):
    """Run the clock phase on every r = 2 torus; returns a counter of the
    scalar engine's steps, so a test can tell whether a run left the phase."""
    monkeypatch.setattr(spin, "_CLOCK_MIN_VERTICES", 1)
    steps = [0]
    step = spin.EventEngine.step

    def counting(self, horizon):
        steps[0] += 1
        return step(self, horizon)

    monkeypatch.setattr(spin.EventEngine, "step", counting)
    return steps


def _ones_at(traj, ts):
    """|A_t| of a trajectory at each time in ts."""
    times = np.array([ev.time for ev in traj.events])
    moves = np.array([2 * ev.new_value - 1 for ev in traj.events], dtype=np.int64)
    count = traj.initial.ones_count()
    return [count + int(moves[times <= t].sum()) for t in ts]


def _z(values, mean, var=None):
    """(sample mean - mean) / standard error; the sample variance unless var is given."""
    values = np.asarray(values, dtype=float)
    if var is None:
        var = values.var(ddof=1)
    return (values.mean() - mean) / math.sqrt(var / values.size)


START_BITS = {(4, 2): [1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0],
              (3, 2): [1, 1, 1, 0, 0, 0, 0, 0]}
TS = (0.25, 0.5, 1.0)


def _exact_and_runs(shape, start, seed, reps):
    """Exact E|A_t| at TS and `reps` sampled ones counts at TS from start,
    a density or a list of bits."""
    exact = [ctmc_mean_ones(shape, start if isinstance(start, float)
                            else config_from_bits(shape, start), t) for t in TS]
    counts = []
    for i in range(reps):
        g = rng(seed, i)
        cfg = (sample_product(shape, start, g) if isinstance(start, float)
               else config_from_bits(shape, start))
        counts.append(_ones_at(run(cfg, THRESHOLD, TS[-1], g), TS))
    return exact, np.array(counts)


@pytest.mark.parametrize("dr", [(4, 2), (3, 2)], ids=["d4", "d3"])
@pytest.mark.parametrize("start", ["density", "fixed"])
def test_mean_ones_matches_exact_chain(clock, dr, start):
    shape = TorusShape(*dr)
    init = 0.3 if start == "density" else START_BITS[dr]
    seed = 60 + 2 * shape.d + (start == "fixed")
    exact, counts = _exact_and_runs(shape, init, seed, 4000)
    assert clock[0] == 0  # n * T rings never fill a chunk: no scalar tail
    for j, t in enumerate(TS):
        assert abs(_z(counts[:, j], exact[j])) < 3, (t, counts[:, j].mean(), exact[j])


def test_death_kind_matches_death_law(clock):
    shape, p, T, reps = TorusShape(10, 2), 0.4, 1.0, 300
    law = death_law(shape, p, T)
    finals = []
    for i in range(reps):
        g = rng(45, i)
        cfg = sample_product(shape, p, g)
        start = cfg.ones_count()
        traj = run(cfg, DEATH, T, g)
        verify_counts(cfg)
        assert all(ev.new_value == 0 for ev in traj.events)
        finals.append(cfg.ones_count())
        assert len(traj.events) == start - finals[-1]  # each one dies once
    assert clock[0] == 0
    assert abs(_z(finals, law.mean, law.variance)) < 3


def test_handoff_to_the_engine_keeps_the_law(clock, monkeypatch):
    """With a floor no chunk can reach, every run that outlasts its first
    chunk of 8 rings ends in the scalar engine, and E|A_t| still matches."""
    monkeypatch.setattr(spin, "_CLOCK_CHUNK", 8)
    monkeypatch.setattr(spin, "_CLOCK_FLOOR", 2.0)
    shape = TorusShape(4, 2)
    checks = _bench_checks()
    exact = [ctmc_mean_ones(shape, 0.3, t) for t in TS]
    counts, tails = [], 0
    for i in range(3000):
        g = rng(46, i)
        cfg = sample_product(shape, 0.3, g)
        before = clock[0]
        traj = run(cfg, THRESHOLD, TS[-1], g)
        tails += clock[0] > before
        if i < 200:
            assert checks.simulate_replica(spin, traj, cfg) == []
        counts.append(_ones_at(traj, TS))
    assert tails > 2500  # 16 rings per unit time: the first chunk rarely reaches T
    counts = np.array(counts)
    for j, t in enumerate(TS):
        assert abs(_z(counts[:, j], exact[j])) < 3, (t, counts[:, j].mean(), exact[j])


def test_matches_scalar_engine_at_d14(monkeypatch):
    """Two-sample test at d = 14, where the phase runs unpatched: from the
    same 8 starts, 10 runs each with and without it, on the final ones count
    and the flip count."""
    shape, T = TorusShape(14, 2), 1.0
    assert shape.n >= spin._CLOCK_MIN_VERTICES
    starts = [sample_product(shape, 0.25, rng(47, s)) for s in range(8)]
    samples = {}
    for mode, least in (("clock", spin._CLOCK_MIN_VERTICES), ("scalar", 2 * shape.n)):
        monkeypatch.setattr(spin, "_CLOCK_MIN_VERTICES", least)
        finals, flips = [], []
        for s, start in enumerate(starts):
            for i in range(10):
                cfg = start.copy()
                traj = run(cfg, THRESHOLD, T, rng(48 if mode == "clock" else 49, 10 * s + i))
                finals.append(cfg.ones_count())
                flips.append(len(traj.events))
        samples[mode] = np.array(finals), np.array(flips)
    for a, b in zip(samples["clock"], samples["scalar"]):
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(a.size)
        assert abs(a.mean() - b.mean()) < 3 * se, (a.mean(), b.mean(), se)


class TestBenchReplayCheck:
    """bench/checks.simulate_replica, the benchmark's exact replay of a
    threshold trajectory, run on trajectories of the clock phase."""

    def test_clock_phase_to_the_horizon(self):
        checks = _bench_checks()
        shape = TorusShape(14, 2)
        for i in range(3):
            g = rng(50, i)
            cfg = sample_product(shape, 0.2, g)
            traj = run(cfg, THRESHOLD, 1.0, g)
            assert traj.events
            assert checks.simulate_replica(spin, traj, cfg) == []

    def test_small_torus_with_many_cut_windows(self, clock):
        checks = _bench_checks()
        shape = TorusShape(3, 2)
        for i in range(300):
            g = rng(51, i)
            cfg = sample_product(shape, 0.5, g)
            traj = run(cfg, THRESHOLD, 2.0, g)
            assert checks.simulate_replica(spin, traj, cfg) == []

    def test_scalar_tail(self, clock, monkeypatch):
        monkeypatch.setattr(spin, "_CLOCK_FLOOR", 2.0)  # hand off after one chunk
        checks = _bench_checks()
        g = rng(52)
        cfg = sample_product(TorusShape(14, 2), 0.2, g)
        traj = run(cfg, THRESHOLD, 1.0, g)
        # the engine steps once per flip and once more to end the run, so
        # no more steps than flips means that the clock phase flipped too
        assert 0 < clock[0] <= len(traj.events)
        assert checks.simulate_replica(spin, traj, cfg) == []

    def test_death_run_absorbs_and_returns(self, clock):
        shape = TorusShape(14, 2)
        g = rng(53)
        cfg = sample_product(shape, 0.2, g)
        start = cfg.ones_count()
        traj = run(cfg, DEATH, 1e9, g)
        assert traj.horizon == 1e9
        assert cfg.ones_count() == 0
        assert len(traj.events) == start
        assert 0 < clock[0] <= start  # the phase handed the dying tail to the engine
        verify_counts(cfg)
