import contextlib
import itertools
import math
import signal
import time

import numpy as np
import pytest
from scipy import sparse

from torusvoter import oracle
from torusvoter.oracle import (CapacityError, UniformizedSeries, binom_logtail,
                               binom_tail, ctmc_mean_ones, death_law, exact_var_C0,
                               expected_C0, expected_suffix_count,
                               joint_tail_C0, ldp_constants, ldp_convergence,
                               vertex_tail)
from torusvoter.spin import config_from_bits
from torusvoter.torus import TorusShape, neighbors

from bruteforce import (FullChainSeries, enumerate_C0_moments,
                        enumerate_suffix_count, full_state_tables,
                        full_uniformized_kernel, translation_orbits)
from reference import poisson_recursion_mean


class TestBinomialTail:
    def test_hand_values(self):
        assert binom_tail(2, 0.4, 1) == pytest.approx(0.64, abs=1e-12)
        assert binom_tail(4, 0.5, 2) == pytest.approx(0.6875, abs=1e-12)
        assert binom_tail(6, 0.3, 0) == 1.0
        assert binom_tail(6, 0.3, 7) == 0.0

    def test_edge_probabilities(self):
        assert binom_tail(5, 0.0, 1) == 0.0
        assert binom_tail(5, 0.0, 0) == 1.0
        assert binom_tail(5, 1.0, 5) == 1.0

    def test_matches_scipy(self):
        from scipy.stats import binom
        for n in (4, 9, 20):
            for p in (0.1, 0.5, 0.73):
                for k in range(n + 2):
                    assert binom_tail(n, p, k) == pytest.approx(
                        float(binom.sf(k - 1, n, p)), rel=1e-10, abs=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binom_logtail(4, 1.5, 2)
        with pytest.raises(ValueError):
            binom_logtail(4, 0.5, 6)


class TestLdpConstants:
    def test_symmetric_point(self):
        out = ldp_constants(0.5, 2)
        assert out.K == pytest.approx(0.0, abs=1e-15)
        assert out.C == pytest.approx(math.log(2) / 2, abs=1e-12)
        assert out.admissible

    def test_hand_values(self):
        assert ldp_constants(0.4, 2).K == pytest.approx(-math.log(0.96),
                                                        abs=1e-12)
        out = ldp_constants(0.45, 2)
        assert out.K == pytest.approx(0.0100503358535014, abs=1e-12)
        assert out.C == pytest.approx(0.3415484223532220, abs=1e-12)

    def test_admissibility_boundary(self):
        # 4p(1-p) > 1/r fails for extreme p on r=2
        assert not ldp_constants(0.06, 2).admissible
        assert ldp_constants(0.2, 2).admissible
        # larger r admits more extreme densities
        assert ldp_constants(0.06, 10).admissible

    def test_symmetry_in_p(self):
        a, b = ldp_constants(0.3, 5), ldp_constants(0.7, 5)
        assert a.K == pytest.approx(b.K, abs=1e-14)

    def test_convergence_to_rate(self):
        ds, rates, drift = ldp_convergence(0.3, 200)
        K = ldp_constants(0.3, 2).K
        assert K == pytest.approx(0.1743533871447778, abs=1e-10)
        assert abs(rates[-1] - K) < 0.03
        tail = drift[19:]  # d >= 20
        assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))

    def test_convergence_rejects_supercritical(self):
        with pytest.raises(ValueError):
            ldp_convergence(0.5, 10)


class TestVertexTail:
    def test_simple_cycle_is_binomial(self):
        shape = TorusShape(1, 5)
        for k in range(0, 3):
            assert vertex_tail(shape, 0.3, k) == pytest.approx(
                binom_tail(2, 0.3, k), abs=1e-14)

    def test_doubled_edges_force_even_sums(self):
        # r=2: both neighbor slots in each dimension hit the same vertex,
        # so the neighbor sum is 2 * Binomial(d, p) and odd thresholds
        # round up to the next even value
        shape = TorusShape(2, 2)
        p = 0.3
        assert vertex_tail(shape, p, 1) == pytest.approx(
            vertex_tail(shape, p, 2), abs=1e-14)
        assert vertex_tail(shape, p, 2) == pytest.approx(
            binom_tail(2, p, 1), abs=1e-12)
        assert vertex_tail(shape, p, 4) == pytest.approx(p * p, abs=1e-12)

    def test_shape_free_form_agrees(self):
        from torusvoter.oracle import neighbor_tail
        for d, r in ((1, 5), (2, 2), (3, 2), (2, 4)):
            shape = TorusShape(d, r)
            for k in (0, d, 2 * d):
                assert neighbor_tail(d, r, 0.35, k) == pytest.approx(
                    vertex_tail(shape, 0.35, k), abs=1e-15)
        # usable far beyond the indexable range
        assert 0 < neighbor_tail(64, 2, 0.3, 100) < 1e-10

    def test_monotone_in_threshold(self):
        shape = TorusShape(3, 2)
        tails = [vertex_tail(shape, 0.4, k) for k in range(7)]
        assert tails[0] == 1.0
        assert all(tails[i + 1] <= tails[i] + 1e-15 for i in range(6))


class TestExactMomentsAgainstEnumeration:
    # (2, 3): r >= 3 with two shared neighbors and nonempty remainders;
    # (3, 2): r = 2 at odd d, where ceil(d/2) distinct neighbors are needed
    GRID = [TorusShape(1, 3), TorusShape(1, 4), TorusShape(1, 5),
            TorusShape(2, 2), TorusShape(2, 3), TorusShape(3, 2)]
    DENSITIES = [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_expected_C0(self):
        for shape in self.GRID:
            for p in self.DENSITIES:
                mean, _ = enumerate_C0_moments(shape, p)
                assert expected_C0(shape, p) == pytest.approx(mean, abs=1e-12)

    def test_var_C0(self):
        for shape in self.GRID:
            for p in self.DENSITIES:
                _, var = enumerate_C0_moments(shape, p)
                assert exact_var_C0(shape, p) == pytest.approx(var, abs=1e-12)

    def test_suffix_counts(self):
        for shape in self.GRID:
            for p in (0.2, 0.6):
                for k in range(2 * shape.d + 1):
                    exact = enumerate_suffix_count(shape, p, k)
                    assert expected_suffix_count(shape, p, k) == pytest.approx(
                        exact, abs=1e-12)

    def test_joint_tail_consistency(self):
        # independent vertices (no shared neighbors, disjoint from each
        # other's neighborhoods) factorize
        shape = TorusShape(1, 6)
        p = 0.35
        q = vertex_tail(shape, p, 1)
        assert joint_tail_C0(shape, p, 0, 3) == pytest.approx(q * q, abs=1e-12)
        assert joint_tail_C0(shape, p, 2, 2) == pytest.approx(q, abs=1e-14)


class TestDeathLaw:
    def test_fields(self):
        shape = TorusShape(10, 2)
        law = death_law(shape, 0.4, 1.0)
        s = 0.4 * math.exp(-1.0)
        assert law.n == 1024
        assert law.success == pytest.approx(s, abs=1e-15)
        assert law.mean == pytest.approx(1024 * s, abs=1e-10)
        assert law.variance == pytest.approx(1024 * s * (1 - s), abs=1e-10)

    def test_time_zero(self):
        law = death_law(TorusShape(2, 3), 0.5, 0.0)
        assert law.success == 0.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            death_law(TorusShape(2, 2), 0.5, -1.0)
        with pytest.raises(ValueError):
            death_law(TorusShape(2, 2), 1.5, 1.0)

    def test_refuses_nan_time_keeps_infinite_limit(self):
        with pytest.raises(ValueError):
            death_law(TorusShape(2, 3), 0.4, math.nan)
        law = death_law(TorusShape(2, 3), 0.4, math.inf)  # every one has died
        assert (law.success, law.mean, law.variance) == (0.0, 0.0, 0.0)


class TestCtmcMeanOnes:
    def test_closed_form_three_cycle(self):
        # d=1, r=3, start (1,1,0): by symmetry the chain lumps to the ones
        # count, and E|A_t| = 1.8 + 0.2 e^{-5t}
        shape = TorusShape(1, 3)
        init = config_from_bits(shape, [1, 1, 0])
        for t in (0.0, 0.3, 1.0, 4.0):
            assert ctmc_mean_ones(shape, init, t) == pytest.approx(
                1.8 + 0.2 * math.exp(-5 * t), abs=1e-8)

    def test_absorbing_states(self):
        shape = TorusShape(1, 4)
        ones = config_from_bits(shape, [1, 1, 1, 1])
        zeros = config_from_bits(shape, [0, 0, 0, 0])
        assert ctmc_mean_ones(shape, ones, 3.0) == pytest.approx(4.0, abs=1e-9)
        assert ctmc_mean_ones(shape, zeros, 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_density_input_averages_over_starts(self):
        # law of total expectation over the product initial law
        shape = TorusShape(1, 3)
        p, t = 0.4, 0.7
        total = 0.0
        for mask in range(8):
            bits = [(mask >> i) & 1 for i in range(3)]
            w = math.prod(p if b else 1 - p for b in bits)
            total += w * ctmc_mean_ones(shape, config_from_bits(shape, bits), t)
        assert ctmc_mean_ones(shape, p, t) == pytest.approx(total, abs=1e-9)

    def test_symmetric_density_stays_half(self):
        shape = TorusShape(2, 2)
        for t in (0.2, 1.0):
            assert ctmc_mean_ones(shape, 0.5, t) == pytest.approx(2.0, abs=1e-9)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            ctmc_mean_ones(TorusShape(5, 3), 0.4, 1.0)

    def test_rejects_bad_arguments(self):
        shape = TorusShape(1, 3)
        with pytest.raises(ValueError):
            ctmc_mean_ones(shape, 0.4, -1.0)
        with pytest.raises(ValueError):
            ctmc_mean_ones(shape, 1.4, 1.0)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the body after `seconds`, so a hang fails."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestUnderflowedPoissonStart:
    """n*t past about 708, where e^{-nt} is no longer a normal float: the
    mode-anchored Poisson window still sums there."""

    def test_returns_after_absorption(self):
        # the 4-vertex chain has absorbed long before t = 180
        shape = TorusShape(1, 4)
        with _deadline(20):
            start = time.perf_counter()
            late = ctmc_mean_ones(shape, 0.4, 190.0)
            elapsed = time.perf_counter() - start
            early = ctmc_mean_ones(shape, 0.4, 180.0)
        assert elapsed < 1.0
        assert abs(late - early) <= 1e-10

    def test_agrees_with_recursion_below_switch(self):
        # the sum from e^{-nt} is exact while that is a normal float;
        # t = 170 on (1, 4) gives n*t = 680, near its end
        for shape, p, times in ((TorusShape(2, 3), 0.3, (0.5, 2.0, 20.0)),
                                (TorusShape(1, 4), 0.4, (170.0,))):
            series = UniformizedSeries(shape, p)
            with _deadline(20):
                for t in times:
                    assert abs(series.mean_ones(t)
                               - poisson_recursion_mean(series, t)) <= 1e-10

    def test_term_cap(self, monkeypatch):
        shape = TorusShape(1, 4)
        with _deadline(20), pytest.raises(ValueError, match="uniformization steps"):
            ctmc_mean_ones(shape, 0.4, 1e6)  # refused before any matvec
        monkeypatch.setattr(oracle, "MAX_MATVECS", 950)
        # right truncation points: 906 terms at t = 180, 996 at t = 200
        assert ctmc_mean_ones(shape, 0.4, 180.0) == pytest.approx(1.664, abs=1e-9)
        with _deadline(20), pytest.raises(ValueError, match="more than 950"):
            ctmc_mean_ones(shape, 0.4, 200.0)
        monkeypatch.setattr(oracle, "MAX_MATVECS", 10)
        with pytest.raises(ValueError, match="more than 10"):
            ctmc_mean_ones(shape, 0.4, 5.0)  # the Poisson mode is term 20


def _delta_start(shape):
    return config_from_bits(shape, [int(x % 3 == 0) for x in range(shape.n)])


class TestUniformizedSeries:
    TIMES = {"ascending": (0.0, 0.25, 0.8, 2.0),
             "descending": (2.0, 0.8, 0.25, 0.0),
             "repeated": (0.8, 0.8, 0.25, 2.0, 0.25, 2.0)}

    @pytest.mark.parametrize("d,r", [(3, 2), (2, 3), (2, 4)])
    @pytest.mark.parametrize("start", ["density", "delta"])
    def test_matches_fresh_solve_bitwise(self, d, r, start):
        shape = TorusShape(d, r)
        init = 0.3 if start == "density" else _delta_start(shape)
        fresh = {t: ctmc_mean_ones(shape, init, t) for t in self.TIMES["ascending"]}
        for times in self.TIMES.values():
            series = UniformizedSeries(shape, init)
            for t in times:
                assert series.mean_ones(t) == fresh[t]
                assert ctmc_mean_ones(shape, init, t, series=series) == fresh[t]

    def test_rejects_other_shape_or_start(self):
        shape = TorusShape(2, 3)
        series = UniformizedSeries(shape, 0.3)
        for other_shape, other_init in ((TorusShape(3, 2), 0.3), (shape, 0.4),
                                        (shape, _delta_start(shape))):
            with pytest.raises(ValueError, match="series was built for"):
                ctmc_mean_ones(other_shape, other_init, 1.0, series=series)
        delta = UniformizedSeries(shape, _delta_start(shape))
        with pytest.raises(ValueError, match="series was built for"):
            ctmc_mean_ones(shape, config_from_bits(shape, [1] + [0] * 8), 1.0,
                           series=delta)

    def test_rejects_start_from_other_torus(self):
        # (2, 4) and (4, 2) both have 16 vertices; (1, 4) has one more than (1, 3)
        for shape, other in ((TorusShape(4, 2), TorusShape(2, 4)),
                             (TorusShape(1, 3), TorusShape(1, 4))):
            init = _delta_start(other)
            with pytest.raises(ValueError, match="start configuration is on"):
                UniformizedSeries(shape, init)
            with pytest.raises(ValueError, match="start configuration is on"):
                ctmc_mean_ones(shape, init, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(CapacityError):
            UniformizedSeries(TorusShape(5, 3), 0.4)
        with pytest.raises(ValueError):
            UniformizedSeries(TorusShape(1, 3), 1.4)
        with pytest.raises(ValueError):
            UniformizedSeries(TorusShape(1, 3), 0.4).mean_ones(-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        shape = TorusShape(1, 4)
        with pytest.raises(ValueError, match="finite"):
            UniformizedSeries(shape, 0.4).mean_ones(t)
        with pytest.raises(ValueError, match="finite"):
            ctmc_mean_ones(shape, 0.4, t)

    @pytest.mark.parametrize("d,r", [(3, 2), (2, 3), (1, 5)])
    def test_state_tables_match_slot_counts(self, d, r):
        # one +1 per neighbor slot, r=2 counting each distinct neighbor twice;
        # the tables hold one column per orbit, for its least state
        shape = TorusShape(d, r)
        tables = oracle._state_tables(shape)
        bits, active = tables.bits, tables.active
        assert np.array_equal(bits, [(tables.reps >> x) & 1 for x in range(shape.n)])
        ones = np.array([sum(bits[y].astype(int) for y in neighbors(shape, x))
                         for x in range(shape.n)])
        disagree = np.where(bits == 0, ones, 2 * d - ones)
        assert np.array_equal(active, disagree >= d)
        _, full_active = full_state_tables(shape)
        assert np.array_equal(active, full_active[:, tables.reps])


class TestFullChainAgreement:
    """The orbit chain against the uniformized chain over all 2^n states."""

    TIMES = (0.0, 0.25, 0.8, 2.0)

    @pytest.mark.parametrize("d,r", [(1, 4), (1, 5), (2, 3), (3, 2), (2, 4)])
    @pytest.mark.parametrize("start", ["density", "delta"])
    def test_mean_ones_matches(self, d, r, start):
        shape = TorusShape(d, r)
        init = 0.3 if start == "density" else _delta_start(shape)
        full = FullChainSeries(shape, init)
        for t in self.TIMES:
            assert abs(ctmc_mean_ones(shape, init, t) - full.mean_ones(t)) <= 1e-12

    @pytest.mark.parametrize("start", ["density", "delta"])
    def test_poisson_mode_branch_matches(self, start):
        # n*t = 760: e^{-nt} underflows, and the window is anchored at the mode
        shape = TorusShape(1, 4)
        init = 0.4 if start == "density" else config_from_bits(shape, [1, 0, 1, 1])
        full = FullChainSeries(shape, init)
        with _deadline(20):
            assert abs(ctmc_mean_ones(shape, init, 190.0)
                       - full.mean_ones(190.0)) <= 1e-12

    def test_every_single_state_start(self):
        shape = TorusShape(2, 3)
        for s in range(0, 1 << shape.n, 7):
            init = config_from_bits(shape, [(s >> x) & 1 for x in range(shape.n)])
            lumped = UniformizedSeries(shape, init)
            full = FullChainSeries(shape, init)
            for t in (0.3, 1.5):
                assert abs(lumped.mean_ones(t) - full.mean_ones(t)) <= 1e-12


def _burnside_orbits(shape):
    """Number of translation orbits (Burnside): the mean over translations g
    of 2^(cycles of g), where g of order o splits the n vertices into n/o
    cycles.  4156 on the 4x4 torus."""
    total = 0
    for g in itertools.product(range(shape.r), repeat=shape.d):
        order = math.lcm(*(shape.r // math.gcd(shape.r, gi) for gi in g))
        total += 2 ** (shape.n // order)
    return total // shape.n


class TestTranslationOrbits:
    @pytest.mark.parametrize("d,r", [(1, 5), (2, 3), (3, 2), (1, 6), (2, 2)])
    def test_orbits_are_the_coordinate_translates(self, d, r):
        shape = TorusShape(d, r)
        tables = oracle._state_tables(shape)
        canon = np.array(translation_orbits(shape))
        assert np.array_equal(tables.reps[tables.orbit], canon)
        assert np.array_equal(tables.reps, np.unique(canon))

    @pytest.mark.parametrize("d,r", [(1, 4), (1, 5), (2, 3), (3, 2), (2, 4), (4, 2)])
    def test_orbit_count_and_sizes(self, d, r):
        shape = TorusShape(d, r)
        tables = oracle._state_tables(shape)
        assert tables.reps.size == _burnside_orbits(shape)
        assert tables.sizes.sum() == 1 << shape.n
        assert np.array_equal(np.bincount(tables.orbit), tables.sizes)
        assert np.all(shape.n % tables.sizes == 0)
        # popcount is constant on each orbit
        states = np.arange(1 << shape.n)
        popcount = sum((states >> x) & 1 for x in range(shape.n))
        assert np.array_equal(popcount, tables.bits.sum(axis=0)[tables.orbit])

    @pytest.mark.parametrize("d,r", [(1, 5), (2, 3), (3, 2)])
    def test_strongly_lumpable(self, d, r):
        # for every state s and every orbit B, sum_{u in B} P(s, u) is the
        # same across the orbit of s, and is the lumped kernel's entry
        shape = TorusShape(d, r)
        tables = oracle._state_tables(shape)
        _, active = full_state_tables(shape)
        P = full_uniformized_kernel(shape, active)
        size = 1 << shape.n
        member = sparse.csr_matrix((np.ones(size), (np.arange(size), tables.orbit)),
                                   shape=(size, tables.reps.size))
        to_orbits = (P @ member).toarray()
        np.testing.assert_allclose(to_orbits, to_orbits[tables.reps[tables.orbit]],
                                   rtol=0, atol=1e-15)
        lumped = oracle._uniformized_kernel(shape, tables).T.toarray()
        np.testing.assert_allclose(lumped, to_orbits[tables.reps], rtol=0, atol=1e-15)
