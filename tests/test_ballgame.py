import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from torusvoter import ballgame
from torusvoter.ballgame import (APPROACHES, MAX_JUMPS, BoxState,
                                 approach2_run, approach3_init, approach4_run,
                                 boxes_from_config, dominance_experiment,
                                 p_zero, replay_boxes, rightward_move,
                                 single_box_count, step_count)
from torusvoter.observables import neighbor_histogram
from torusvoter.spin import (THRESHOLD, RngStream, config_from_bits, run,
                             sample_product)
from torusvoter.torus import TorusShape


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


def box(counts):
    return BoxState(np.asarray(counts, dtype=np.int64))


class TestBoxState:
    def test_from_config(self):
        shape = TorusShape(1, 4)
        cfg = config_from_bits(shape, [1, 0, 0, 0])
        b = boxes_from_config(cfg)
        # ones_nbr = (0, 1, 0, 1): two vertices see one 1-neighbor
        assert list(b.counts) == [2, 2, 0]
        assert b.d == 1 and b.total == 4 and b.upper_mass == 2

    def test_all_ones(self):
        shape = TorusShape(2, 3)
        cfg = config_from_bits(shape, [1] * 9)
        b = boxes_from_config(cfg)
        assert list(b.counts) == [0, 0, 0, 0, 9]
        assert b.upper_mass == 9

    def test_copy_is_independent(self):
        b = box([1, 2, 3])
        c = b.copy()
        c.counts[0] = 99
        assert b.counts[0] == 1


class TestReplay:
    def test_matches_histogram_at_every_event(self):
        shape = TorusShape(2, 3)
        for stream in range(10):
            r = rng(1, stream)
            cfg = sample_product(shape, 0.5, r)
            traj = run(cfg, THRESHOLD, 1.5, r)
            states = list(replay_boxes(traj))
            assert len(states) == len(traj.events) + 1
            live = traj.initial.copy()
            for (t, b), pair in zip(states[1:], traj.events):
                live.bits[pair.vertex] = pair.new_value
                from torusvoter.spin import build_ones_nbr
                live.ones_nbr[:] = build_ones_nbr(live.shape, live.bits)
                expect = neighbor_histogram(live).counts
                assert list(b.counts) == list(expect)

    def test_conserves_total(self):
        shape = TorusShape(3, 2)
        r = rng(2)
        cfg = sample_product(shape, 0.4, r)
        traj = run(cfg, THRESHOLD, 2.0, r)
        n = shape.n
        for _, b in replay_boxes(traj):
            assert b.total == n


class TestRightwardMove:
    def test_drain_top_down(self):
        # d=2: need 4 balls; left region holds [1, 5] -> take 4 from box 1
        b = box([1, 5, 0, 9, 2])
        rightward_move(b, rng())
        assert list(b.counts) == [1, 1, 4, 9, 2]

    def test_drain_spans_boxes(self):
        # d=2: move 3 balls from box 1 to box 2, then 1 from box 0 to box 1
        b = box([2, 3, 0, 0, 0])
        rightward_move(b, rng())
        assert list(b.counts) == [1, 1, 3, 0, 0]

    def test_shift_branch(self):
        # d=2: left region holds 3 < 4 balls -> shift left region right,
        # then draw 1 ball from boxes 2..4 into box 4
        b = box([1, 2, 0, 3, 1])
        rightward_move(b, rng(3))
        assert b.counts[0] == 0
        assert b.counts[1] == 1
        assert int(b.counts[2:].sum()) == 6
        # the drawn ball lands in b_4 (a draw from b_4 itself is a no-op)
        assert b.counts[4] >= 1

    def test_drain_with_gap(self):
        # d=2, left [0, 5]: 5 >= 4 balls, so drain 4 from box 1
        b = box([0, 5, 0, 9, 2])
        rightward_move(b, rng(4))
        assert list(b.counts) == [0, 1, 4, 9, 2]

    def test_never_decreases_upper_mass(self):
        g = rng(5)
        for _ in range(200):
            counts = g.integers(0, 6, size=7)
            b = box(counts)
            before = b.upper_mass
            rightward_move(b, g)
            assert b.upper_mass >= before
            assert b.total == counts.sum()


class TestApproach2:
    def test_series_nondecreasing_and_terminates(self):
        shape = TorusShape(6, 2)
        g = rng(6)
        cfg = sample_product(shape, 0.3, g)
        series = approach2_run(boxes_from_config(cfg), 2.0, g)
        assert series.values == sorted(series.values)
        assert series.times[0] == 0.0

    def test_empty_upper_region_frozen(self):
        series = approach2_run(box([3, 4, 0, 0, 0]), 5.0, rng(7))
        # first move occurs, after which mass can only grow; but with zero
        # initial upper mass the rate is zero and nothing ever happens
        assert series.values == [0.0]

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            approach2_run(box([0, 0, 1]), 0.0, rng())


class TestApproach3:
    def test_p_zero(self):
        assert p_zero(0.3) == pytest.approx(0.4)
        assert p_zero(0.0) == 0.25
        with pytest.raises(ValueError):
            p_zero(0.5)

    def test_lump_d5_p03(self):
        # 2d*p0 = 4.0 -> lump boxes 4..4 into box 5
        b = box([1] * 11)
        out = approach3_init(b, 0.3)
        assert list(out.counts[:6]) == [1, 1, 1, 1, 0, 2]
        assert list(out.counts[6:]) == [1] * 5

    def test_lump_d10_p03(self):
        # 2d*p0 = 8.0 -> lump boxes 8..9 into box 10
        b = box(list(range(21)))
        out = approach3_init(b, 0.3)
        assert out.counts[8] == 0 and out.counts[9] == 0
        assert out.counts[10] == 10 + 8 + 9
        assert out.total == sum(range(21))

    def test_identity_when_band_empty(self):
        b = box([5, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0])  # d=5, nothing in 4..4
        out = approach3_init(b, 0.3)
        assert list(out.counts) == list(b.counts)

    def test_dominates_plain_upper_mass(self):
        g = rng(8)
        for _ in range(50):
            counts = g.integers(0, 5, size=13)  # d=6
            b = box(counts)
            assert approach3_init(b, 0.2).upper_mass >= b.upper_mass


class TestApproach4:
    def test_step_count(self):
        assert step_count(10, 0.3) == 2
        assert step_count(6, 0.2) == 1
        with pytest.raises(ValueError, match="d >= 20"):
            step_count(5, 0.45)

    def test_deterministic_jump_sizes(self):
        out = approach4_run(100, 10, 0.3, 0.5, rng(9))
        vals = out.series.values
        assert vals[0] == 100.0
        for j, v in enumerate(vals[1:], start=1):
            assert v == 100.0 + 20.0 * j

    def test_zero_start_frozen(self):
        out = approach4_run(0, 10, 0.3, 1.0, rng(10))
        assert out.series.values == [0.0]
        assert out.taus == []

    def test_first_holding_time_mean(self):
        # m=2, I0=100: E[tau_1] = m / I0 = 0.02
        reps = 4000
        g = rng(11)
        first = np.array([approach4_run(100, 10, 0.3, 0.3, g).taus[0]
                          for _ in range(reps)])
        se = first.std(ddof=1) / math.sqrt(reps)
        assert abs(first.mean() - 0.02) < 3 * se

    def test_jump_cap_counts_every_jump(self, monkeypatch):
        # equal Gamma draws put jump j at about j/6000.5 of T, so 6000 jumps
        # come before T: one block of 7168 draws holds them all
        class EqualGammas:
            def standard_gamma(self, shape, size):
                return np.full(size, 10**12 / 6000.5)

        monkeypatch.setattr(ballgame, "MAX_JUMPS", 6000)
        assert len(approach4_run(10**12, 10, 0.3, 1.0, EqualGammas()).taus) == 6000
        monkeypatch.setattr(ballgame, "MAX_JUMPS", 5999)
        with pytest.raises(ValueError, match="more than 5999 jumps"):
            approach4_run(10**12, 10, 0.3, 1.0, EqualGammas())

    def test_tau_ratio_moments(self):
        # tau_j / E[tau_j] ~ Gamma(m, 1)/m: mean 1, variance 1/m
        m = step_count(10, 0.3)
        g = rng(12)
        ratios = np.concatenate([approach4_run(50, 10, 0.3, 0.5, g).tau_ratios
                                 for _ in range(300)])
        n = ratios.size
        assert n > 1000
        assert abs(ratios.mean() - 1.0) < 3 / math.sqrt(n * m)
        var_se = (1.0 / m) * math.sqrt(2.0 / (n - 1))
        assert abs(ratios.var(ddof=1) - 1.0 / m) < 4 * var_se


class TestSingleBoxCount:
    def test_law_matches_path_sampler(self):
        # m = 1 at d=8, p=0.3: the NegBin draw against the simulated path
        assert step_count(8, 0.3) == 1
        for I0 in (1, 4, 16):
            g, h = rng(15, I0), rng(16, I0)
            closed = [single_box_count(I0, 8, 0.3, 0.5, g) for _ in range(2000)]
            path = [approach4_run(I0, 8, 0.3, 0.5, h).series.values[-1]
                    for _ in range(2000)]
            assert ks_2samp(closed, path).pvalue > 0.01, I0

    def test_counts_on_jump_lattice(self):
        g = rng(17)
        for _ in range(200):
            c = single_box_count(7, 6, 0.3, 0.5, g)
            assert c >= 7 and (c - 7) % 12 == 0

    def test_zero_start_draws_nothing(self):
        g, twin = rng(18), rng(18)
        assert single_box_count(0, 8, 0.3, 0.5, g) == 0
        assert g.random() == twin.random()

    def test_m_above_one_uses_path_sampler(self):
        assert step_count(10, 0.3) == 2
        g, h = rng(19), rng(19)
        got = single_box_count(50, 10, 0.3, 0.5, g)
        want = approach4_run(50, 10, 0.3, 0.5, h).series.values[-1]
        assert got == want
        assert g.random() == h.random()  # same draws consumed

    def test_jump_cap(self):
        msg = f"more than {MAX_JUMPS} jumps"
        with pytest.raises(ValueError, match=msg):
            single_box_count(40, 6, 0.3, 3.0, rng(20))  # draw ~1e16 jumps
        with pytest.raises(ValueError, match=msg):
            single_box_count(40, 6, 0.3, 40.0, rng(20))  # numpy refuses
        with pytest.raises(ValueError, match=msg):
            single_box_count(40, 6, 0.3, 70.0, rng(20))  # e^{-2dT} underflows

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            single_box_count(5, 8, 0.3, 0.0, rng())


class TestDominance:
    def test_rejects_bad_parameters(self):
        shape = TorusShape(6, 2)
        streams = [rng(13, i) for i in range(4)]
        with pytest.raises(ValueError):
            dominance_experiment(shape, 0.6, 1.0, 10, None, streams)
        with pytest.raises(ValueError):
            dominance_experiment(TorusShape(6, 2), 0.45, 1.0, 10, None, streams)

    @pytest.mark.slow
    def test_small_chain_ordering(self):
        shape = TorusShape(6, 2)
        streams = [rng(14, i) for i in range(4)]
        report = dominance_experiment(shape, 0.3, 0.5, 400, None, streams)
        assert report.violations == []
        for name in APPROACHES:
            s = report.survival[name]
            assert s[0] >= s[-1]  # survival functions decrease in M
        rows = list(report.rows())
        assert len(rows) == 4 * len(report.M_grid)
