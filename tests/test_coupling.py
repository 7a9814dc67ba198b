import math

import numpy as np
import pytest

from torusvoter.coupling import (DominationError, coupled_run_eta_zeta,
                                 coupled_run_monotone)
from torusvoter.oracle import ctmc_mean_ones, death_law
from torusvoter.spin import THRESHOLD, RngStream, config_from_bits, run, sample_product
from torusvoter.torus import TorusShape

from bruteforce import rejection_run
from reference import sample_death_counts, survival_times


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


class TestEtaZetaCoupling:
    def test_p0_trivially_frozen(self):
        traj = coupled_run_eta_zeta(TorusShape(2, 3), 0.0, 2.0, rng())
        assert traj.events == []

    def test_p1_upper_frozen_lower_dies(self):
        shape = TorusShape(2, 3)
        traj = coupled_run_eta_zeta(shape, 1.0, 50.0, rng(1))
        assert all(ev.upper_new is None for ev in traj.events)
        assert sum(ev.lower_new == 0 for ev in traj.events) == shape.n
        assert traj.lower_sizes().value_at(50.0) == 0
        assert traj.upper_sizes().value_at(50.0) == shape.n

    def test_domination_holds_pathwise(self):
        shape = TorusShape(4, 2)
        for stream in range(50):
            coupled_run_eta_zeta(shape, 0.4, 2.0, rng(2, stream))  # checks every event

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="finite and positive"):
            coupled_run_eta_zeta(TorusShape(2, 3), 0.4, T, rng())

    def test_rejects_unequal_starts(self):
        from torusvoter.coupling import _run_eta_zeta
        shape = TorusShape(1, 4)
        upper = config_from_bits(shape, [1, 1, 0, 0])
        lower = config_from_bits(shape, [1, 0, 0, 0])
        with pytest.raises(ValueError):
            _run_eta_zeta(upper, lower, 1.0, rng())

    def test_final_scan_catches_violation_away_from_x(self, monkeypatch):
        # one event: the lone 1 at vertex 0 dies in both marginals; a
        # corruption at vertex 15 (no neighbor of 0) is left for the end scan
        from torusvoter import coupling

        shape = TorusShape(4, 2)
        upper = config_from_bits(shape, [1] + [0] * 15)
        lower = upper.copy()
        real_flip, real_check = coupling._flip, coupling._check_domination
        flips, checks = [], []

        def corrupting_flip(cfg, x, nbrs, w, toggles):
            flips.append(x)
            lower.bits[15], upper.bits[15] = 1, 0
            return real_flip(cfg, x, nbrs, w, toggles)

        def spy(low, up, x=None):
            checks.append(x)
            real_check(low, up, x)
        monkeypatch.setattr(coupling, "_flip", corrupting_flip)
        monkeypatch.setattr(coupling, "_check_domination", spy)
        with pytest.raises(DominationError, match=r"lower\(15\)"):
            coupling._run_eta_zeta(upper, lower, 5.0, rng())
        assert flips == [0]  # the upper marginal flips at the one event
        assert lower.bits[0] == 0  # the death marginal clears its bit in place
        assert checks == [None, 0, None]  # start scan, event at x=0, end scan

    def test_check_domination_per_vertex_and_full(self):
        from torusvoter.coupling import _check_domination

        shape = TorusShape(1, 4)
        upper = config_from_bits(shape, [1, 0, 0, 1])
        lower = config_from_bits(shape, [1, 0, 1, 1])
        _check_domination(lower, upper, 3)  # vertex 2 is not looked at
        for x in (2, None):
            with pytest.raises(DominationError, match=r"lower\(2\)"):
                _check_domination(lower, upper, x)

    def test_lower_marginal_is_exact_death_law(self):
        shape = TorusShape(6, 2)
        p, t, reps = 0.4, 1.0, 600
        sizes = [coupled_run_eta_zeta(shape, p, t + 0.01, rng(3, i))
                 .lower_sizes().value_at(t) for i in range(reps)]
        law = death_law(shape, p, t)
        se = math.sqrt(law.variance / reps)
        assert abs(np.mean(sizes) - law.mean) < 3 * se

    @pytest.mark.slow
    def test_upper_marginal_matches_uncoupled_chain(self):
        shape = TorusShape(1, 4)
        p, reps = 0.5, 8000
        t_grid = [0.5, 1.5]
        for t in t_grid:
            sizes = np.array([
                coupled_run_eta_zeta(shape, p, t + 0.01, rng(4, i))
                .upper_sizes().value_at(t) for i in range(reps)])
            exact = ctmc_mean_ones(shape, p, t)
            se = sizes.std(ddof=1) / math.sqrt(reps)
            assert abs(sizes.mean() - exact) < 3.5 * se


class TestMonotoneCoupling:
    def test_equal_densities_identical_paths(self):
        shape = TorusShape(3, 2)
        traj = coupled_run_monotone(shape, 0.4, 0.4, 2.0, rng(5))
        for ev in traj.events:
            assert ev.upper_new == ev.lower_new

    def test_extreme_densities_frozen(self):
        traj = coupled_run_monotone(TorusShape(2, 3), 0.0, 1.0, 2.0, rng(6))
        assert traj.events == []

    def test_rejects_unordered_densities(self):
        with pytest.raises(ValueError):
            coupled_run_monotone(TorusShape(2, 2), 0.5, 0.3, 1.0, rng())

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="finite and positive"):
            coupled_run_monotone(TorusShape(2, 3), 0.3, 0.45, T, rng())

    def test_order_preserved_pathwise(self):
        shape = TorusShape(4, 2)
        for stream in range(50):
            coupled_run_monotone(shape, 0.3, 0.45, 2.0, rng(7, stream))

    def test_no_simultaneous_discordant_flip(self):
        shape = TorusShape(3, 2)
        for stream in range(30):
            traj = coupled_run_monotone(shape, 0.2, 0.8, 1.0, rng(8, stream))
            lower = traj.lower_initial.bits.copy()
            upper = traj.upper_initial.bits.copy()
            for ev in traj.events:
                was_discordant = lower[ev.vertex] != upper[ev.vertex]
                if was_discordant:
                    assert ev.upper_new is None or ev.lower_new is None
                if ev.lower_new is not None:
                    lower[ev.vertex] = ev.lower_new
                if ev.upper_new is not None:
                    upper[ev.vertex] = ev.upper_new

    @pytest.mark.slow
    def test_marginals_match_uncoupled_chain(self):
        shape = TorusShape(1, 4)
        p1, p2, t, reps = 0.3, 0.6, 1.0, 8000
        lo = np.empty(reps)
        up = np.empty(reps)
        for i in range(reps):
            traj = coupled_run_monotone(shape, p1, p2, t + 0.01, rng(9, i))
            lo[i] = traj.lower_sizes().value_at(t)
            up[i] = traj.upper_sizes().value_at(t)
        for vals, p in ((lo, p1), (up, p2)):
            exact = ctmc_mean_ones(shape, p, t)
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - exact) < 3.5 * se


class TestDeathLawStatistics:
    def test_mean_variance_and_martingale(self):
        shape = TorusShape(8, 2)
        p, reps = 0.4, 4000
        ts = [0.5, 1.0, 2.0]
        counts = sample_death_counts(shape, p, ts, reps, rng(10))
        normalized_means = []
        for j, t in enumerate(ts):
            law = death_law(shape, p, t)
            col = counts[:, j].astype(float)
            se = math.sqrt(law.variance / reps)
            assert abs(col.mean() - law.mean) < 3 * se
            var_se = law.variance * math.sqrt(2.0 / (reps - 1))
            assert abs(col.var(ddof=1) - law.variance) < 4 * var_se
            scaled = col / (p * math.exp(-t))
            normalized_means.append((scaled.mean(),
                                     scaled.std(ddof=1) / math.sqrt(reps)))
        for mean, se in normalized_means:
            assert abs(mean - shape.n) < 3 * se


class TestSurvival:
    def test_all_one_initial_never_dies(self):
        shape = TorusShape(2, 3)
        r = rng(11)
        cfg = sample_product(shape, 1.0, r)
        traj = run(cfg, THRESHOLD, 2.0, r)
        record = survival_times(traj)
        assert record.surviving(2.0) == record.vertices
        series = record.F_series()
        assert series.values == [float(shape.n)]

    def test_F_series_nonincreasing(self):
        shape = TorusShape(3, 2)
        r = rng(12)
        cfg = sample_product(shape, 0.6, r)
        traj = run(cfg, THRESHOLD, 2.0, r)
        series = survival_times(traj).F_series()
        assert series.values == sorted(series.values, reverse=True)

    def test_tau_at_least_first_ring(self):
        shape = TorusShape(2, 3)
        for stream in range(20):
            r = rng(13, stream)
            cfg = sample_product(shape, 0.5, r)
            traj, first_ring = rejection_run(cfg, THRESHOLD, 2.0, r)
            record = survival_times(traj)
            for x in record.vertices:
                assert record.tau[x] >= first_ring[x]

    def test_censoring(self):
        shape = TorusShape(1, 4)
        r = rng(14)
        cfg = config_from_bits(shape, [1, 0, 0, 0])
        traj = run(cfg, THRESHOLD, 1e-6, r)
        record = survival_times(traj)
        assert record.tau[0] == math.inf
        assert record.surviving(1e-6) == [0]
