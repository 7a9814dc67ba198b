import math

import numpy as np
import pytest

from torusvoter import observables
from torusvoter.observables import (EAccumulator, FractionObserver, ObservableSeries,
                                    fluid, fluid_in_scope, fraction_series,
                                    neighbor_histograms, sup_deviation)
from torusvoter.spin import (DEATH, THRESHOLD, RngStream, config_from_bits,
                             replay, run, sample_product)
from torusvoter.torus import TorusShape, neighbors

from bruteforce import sup_deviation_loop
from reference import classify, survival_times


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


class TestClassify:
    def test_hand_example(self):
        cfg = config_from_bits(TorusShape(1, 4), [1, 0, 0, 0])
        cls = classify(cfg)
        assert set(np.nonzero(cls.A)[0]) == {0}
        assert set(np.nonzero(cls.C)[0]) == {1, 3}
        assert set(np.nonzero(cls.D)[0]) == {0, 1, 2, 3}

    def test_constant_configurations(self):
        shape = TorusShape(2, 3)
        ones = sample_product(shape, 1.0, rng())
        cls = classify(ones)
        assert cls.sizes == {"A": 9, "B": 0, "C": 9, "D": 0}
        zeros = sample_product(shape, 0.0, rng())
        cls = classify(zeros)
        assert cls.sizes == {"A": 0, "B": 9, "C": 0, "D": 9}

    def test_partition_and_overlap(self):
        cfg = sample_product(TorusShape(3, 3), 0.5, rng(1))
        cls = classify(cfg)
        n, d = cfg.shape.n, cfg.shape.d
        assert cls.sizes["A"] + cls.sizes["B"] == n
        overlap = cls.C & cls.D
        assert np.array_equal(overlap, cfg.ones_nbr == d)


def histogram(cfg):
    """The neighbor-sum histogram of one configuration."""
    return neighbor_histograms(cfg.ones_nbr[None], cfg.shape.d)[0]


class TestHistogram:
    def test_hand_example(self):
        cfg = config_from_bits(TorusShape(1, 4), [1, 0, 0, 0])
        h = histogram(cfg)
        assert list(h) == [2, 2, 0]

    def test_all_zero(self):
        cfg = sample_product(TorusShape(2, 4), 0.0, rng())
        h = histogram(cfg)
        assert h[0] == 16 and h[1:].sum() == 0

    def test_sums_to_vertex_count(self):
        cfg = sample_product(TorusShape(3, 3), 0.3, rng(2))
        assert histogram(cfg).sum() == cfg.shape.n

    def test_suffix_prefix(self):
        # |I(k)| = h[k:].sum() and |J(k)| = h[:k + 1].sum()
        cfg = config_from_bits(TorusShape(1, 4), [1, 0, 0, 0])
        h = histogram(cfg)
        assert h[1:].sum() == 2 and h[:2].sum() == 4 and h[0:].sum() == 4

    def test_binomial_expectation(self):
        shape = TorusShape(5, 3)
        p, reps, k = 0.3, 200, 4
        from torusvoter.oracle import vertex_tail
        vals = []
        for i in range(reps):
            h = histogram(sample_product(shape, p, rng(3, i)))
            vals.append(h[k:].sum() - h[k + 1:].sum())
        exact = shape.n * (vertex_tail(shape, p, k) - vertex_tail(shape, p, k + 1))
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(vals) - exact) < 3 * se + 1e-9


class TestFluid:
    def test_values(self):
        assert fluid(0.3, 0.0) == pytest.approx(0.3)
        assert fluid(0.3, 1.0) == pytest.approx(0.3 * math.exp(-1))
        assert fluid(0.7, 1.0) == pytest.approx(1 - 0.3 * math.exp(-1))
        assert fluid(0.5, 3.7) == 0.5

    def test_scope_flag(self):
        assert fluid_in_scope(0.3)
        assert fluid_in_scope(0.8)
        assert not fluid_in_scope(0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            fluid(1.2, 0.0)
        with pytest.raises(ValueError):
            fluid(0.3, -1.0)


class TestSupDeviation:
    def test_constant_fraction_closed_form(self):
        p, T = 0.3, 2.0
        series = ObservableSeries([0.0], [p], T)
        assert sup_deviation(series, p, T) == pytest.approx(p * (1 - math.exp(-T)))

    def test_exact_match_gives_zero(self):
        p, T = 0.3, 1.0
        series = ObservableSeries([0.0], [fluid(p, 0.0)], 1e-12)
        assert sup_deviation(series, p, 1e-12) < 1e-12

    def test_single_drop(self):
        p, t1, T = 0.4, 0.7, 2.0
        v1 = p * math.exp(-t1)
        series = ObservableSeries([0.0, t1], [p, v1], T)
        # after the drop the fraction tracks below the curve; the sup is at t1-
        expected = max(p * (1 - math.exp(-t1)), v1 - p * math.exp(-T))
        assert sup_deviation(series, p, T) == pytest.approx(expected)

    def test_fluid_once_per_breakpoint(self, monkeypatch):
        calls = []

        def counted(p, t):
            calls.append(np.array(t, copy=True))
            return fluid(p, t)

        times = [0.0, 0.3, 0.5, 1.1]
        series = ObservableSeries(times, [0.3, 0.28, 0.25, 0.2], 2.0)
        expected = sup_deviation(series, 0.3, 2.0)
        monkeypatch.setattr(observables, "fluid", counted)
        assert sup_deviation(series, 0.3, 2.0) == expected
        # one vectorised call over every breakpoint, then T
        assert len(calls) == 1
        assert calls[0].tolist() == times + [2.0]

    @staticmethod
    def _random_series(gen, size, T):
        times = np.concatenate([[0.0], np.sort(gen.uniform(0.0, 1.5 * T, size - 1))])
        return ObservableSeries(times.tolist(), gen.uniform(0.0, 1.0, size).tolist(), T)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_matches_scalar_loop_bitwise(self, p):
        gen = np.random.default_rng(5)
        T = 2.0
        for size in (1, 2, 7, 200):
            for _ in range(20):
                series = self._random_series(gen, size, T)
                for horizon in (T, T / 3, float(gen.uniform(0.0, T))):
                    got = sup_deviation(series, p, horizon)
                    want = sup_deviation_loop(series, p, horizon)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_horizon_between_breakpoints_and_past_the_last(self):
        series = ObservableSeries([0.0, 0.4, 0.9, 1.7], [0.3, 0.26, 0.21, 0.1], 2.0)
        for T in (0.0, 0.4, 0.65, 0.9, 1.2, 1.7, 2.0, 5.0):
            for p in (0.3, 0.5, 0.7):
                assert (sup_deviation(series, p, T)
                        == float(sup_deviation_loop(series, p, T)))

    def test_breakpoints_past_T_are_ignored(self):
        series = ObservableSeries([0.0, 0.5, 3.0], [0.3, 0.2, 0.9], 4.0)
        # the jump to 0.9 at t = 3 lies past T = 1
        assert sup_deviation(series, 0.3, 1.0) == float(sup_deviation_loop(series, 0.3, 1.0))
        assert sup_deviation(series, 0.3, 1.0) < 0.2


class TestFractionSeries:
    @pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
    @pytest.mark.parametrize("shape,p", [(TorusShape(6, 2), 0.3), (TorusShape(3, 3), 0.6)])
    def test_equals_observer_series(self, kind, shape, p):
        for stream in range(3):
            r = rng(12, stream)
            obs = FractionObserver()
            traj = run(sample_product(shape, p, r), kind, 1.5, r, observers=(obs,))
            assert traj.events
            want, got = obs.series(), fraction_series(traj)
            assert got.times == want.times
            assert got.values == want.values
            assert got.horizon == want.horizon
            assert all(type(v) is float for v in got.values)

    def test_run_without_events(self):
        shape = TorusShape(2, 3)
        cfg = config_from_bits(shape, [1] * shape.n)  # all ones: frozen
        obs = FractionObserver()
        traj = run(cfg, THRESHOLD, 2.0, rng(13), observers=(obs,))
        assert traj.events == []
        want, got = obs.series(), fraction_series(traj)
        assert (got.times, got.values, got.horizon) == (want.times, want.values,
                                                       want.horizon)
        assert got.values == [1.0] and got.horizon == 2.0


class TestEAccumulator:
    def test_all_zero_stays_empty(self):
        shape = TorusShape(2, 3)
        r = rng(4)
        cfg = sample_product(shape, 0.0, r)
        acc = EAccumulator()
        run(cfg, THRESHOLD, 1.0, r, observers=(acc,))
        assert acc.size == 0

    # r=2 is the multigraph: each distinct neighbor counts twice
    SHAPES = (TorusShape(2, 3), TorusShape(4, 2))

    def test_initial_size_is_C0(self):
        for shape in self.SHAPES:
            r = rng(5)
            cfg = sample_product(shape, 0.5, r)
            c0 = int(classify(cfg).C.sum())
            by_hand = sum(sum(int(cfg.bits[y]) for y in neighbors(shape, x))
                          >= shape.d for x in range(shape.n))
            acc = EAccumulator()
            run(cfg, THRESHOLD, 0.5, r, observers=(acc,))
            assert acc.sizes[0] == c0 == by_hand

    def test_monotone_and_matches_full_recompute(self):
        for shape in self.SHAPES:
            r = rng(6)
            cfg = sample_product(shape, 0.5, r)
            acc = EAccumulator()
            traj = run(cfg, THRESHOLD, 1.0, r, observers=(acc,))
            assert acc.sizes == sorted(acc.sizes)
            # recompute E_T from scratch by replay
            d = shape.d
            ever = None
            for _, state in replay(traj):
                mask = state.ones_nbr >= d
                ever = mask if ever is None else (ever | mask)
            assert acc.size == int(ever.sum())
            assert np.array_equal(acc.in_E, ever)


class TestFlipStructure:
    def test_moves_are_plus_minus_one_from_the_right_sets(self):
        shape = TorusShape(2, 4)
        r = rng(7)
        cfg = sample_product(shape, 0.5, r)
        traj = run(cfg, THRESHOLD, 1.0, r)
        states = replay(traj)
        _, prev = next(states)
        prev = prev.copy()
        for _, state in states:
            ev_vertex = np.nonzero(prev.bits != state.bits)[0]
            assert ev_vertex.size == 1
            x = int(ev_vertex[0])
            cls = classify(prev)
            if state.bits[x] == 1:
                assert cls.B[x] and cls.C[x]  # up-moves only from B intersect C
            else:
                assert cls.A[x] and cls.D[x]  # down-moves only from A intersect D
            prev = state.copy()


class TestSurvivalDecomposition:
    def test_state_vs_survival_decomposition(self):
        shape = TorusShape(2, 3)
        for stream in range(5):
            r = rng(8, stream)
            cfg = sample_product(shape, 0.45, r)
            acc = EAccumulator()
            traj = run(cfg, THRESHOLD, 1.0, r, observers=(acc,))
            record = survival_times(traj)
            E_T = acc.in_E
            A0 = traj.initial.bits.astype(bool)
            for t, state in replay(traj):
                At = state.bits.astype(bool)
                core = A0 & ~E_T & At
                # ones now are either initial survivors outside E_T, or in E_T
                assert not np.any(At & ~(core | E_T))
                alive = np.zeros(shape.n, dtype=bool)
                for x in record.vertices:
                    alive[x] = record.tau[x] > t
                assert np.array_equal(core, A0 & ~E_T & alive)
