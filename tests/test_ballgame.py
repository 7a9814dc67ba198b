import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from torusvoter import ballgame
from torusvoter.ballgame import (APPROACHES, MAX_JUMPS, approach4_run,
                                 dominance_experiment, lump_boxes, p_zero,
                                 rightward_counts, rightward_move,
                                 rightward_move_rows, single_box_counts, step_count)
from torusvoter.observables import neighbor_histograms
from torusvoter.spin import (THRESHOLD, RngStream, build_ones_nbr,
                             config_from_bits, run, sample_product,
                             sample_product_batch)
from torusvoter.torus import TorusShape, neighbors

from bruteforce import approach2_run
from reference import replay_boxes, single_box_count


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


def box(counts):
    """A box state: an int64 array b_0..b_2d of its own."""
    return np.array(counts, dtype=np.int64)


def boxes(cfg):
    """The box state of a configuration, by a plain bincount of its sums."""
    return np.bincount(cfg.ones_nbr, minlength=2 * cfg.shape.d + 1)


def upper_mass(b):
    """Balls in boxes d..2d (the C_hat statistic)."""
    return int(b[(len(b) - 1) // 2:].sum())


class TestBoxState:
    def test_from_config(self):
        shape = TorusShape(1, 4)
        cfg = config_from_bits(shape, [1, 0, 0, 0])
        b = boxes(cfg)
        # ones_nbr = (0, 1, 0, 1): two vertices see one 1-neighbor
        assert list(b) == [2, 2, 0]
        assert (len(b) - 1) // 2 == 1 and b.sum() == 4 and upper_mass(b) == 2

    def test_all_ones(self):
        shape = TorusShape(2, 3)
        cfg = config_from_bits(shape, [1] * 9)
        b = boxes(cfg)
        assert list(b) == [0, 0, 0, 0, 9]
        assert upper_mass(b) == 9

    def test_copy_is_independent(self):
        b = box([1, 2, 3])
        c = b.copy()
        c[0] = 99
        assert b[0] == 1


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
                live.ones_nbr[:] = build_ones_nbr(live.shape, live.bits)
                expect = boxes(live)
                assert list(b) == list(expect)

    def test_conserves_total(self):
        shape = TorusShape(3, 2)
        r = rng(2)
        cfg = sample_product(shape, 0.4, r)
        traj = run(cfg, THRESHOLD, 2.0, r)
        n = shape.n
        for _, b in replay_boxes(traj):
            assert b.sum() == n


class TestRightwardMove:
    def test_drain_top_down(self):
        # d=2: need 4 balls; left region holds [1, 5] -> take 4 from box 1
        b = box([1, 5, 0, 9, 2])
        rightward_move(b, rng())
        assert list(b) == [1, 1, 4, 9, 2]

    def test_drain_spans_boxes(self):
        # d=2: move 3 balls from box 1 to box 2, then 1 from box 0 to box 1
        b = box([2, 3, 0, 0, 0])
        rightward_move(b, rng())
        assert list(b) == [1, 1, 3, 0, 0]

    def test_shift_branch(self):
        # d=2: left region holds 3 < 4 balls -> shift left region right,
        # then draw 1 ball from boxes 2..4 into box 4
        b = box([1, 2, 0, 3, 1])
        rightward_move(b, rng(3))
        assert b[0] == 0
        assert b[1] == 1
        assert int(b[2:].sum()) == 6
        # the drawn ball lands in b_4 (a draw from b_4 itself is a no-op)
        assert b[4] >= 1

    def test_drain_with_gap(self):
        # d=2, left [0, 5]: 5 >= 4 balls, so drain 4 from box 1
        b = box([0, 5, 0, 9, 2])
        rightward_move(b, rng(4))
        assert list(b) == [0, 1, 4, 9, 2]

    def test_never_decreases_upper_mass(self):
        g = rng(5)
        for _ in range(200):
            counts = g.integers(0, 6, size=7)
            b = box(counts)
            before = upper_mass(b)
            rightward_move(b, g)
            assert upper_mass(b) >= before
            assert b.sum() == counts.sum()


class TestApproach2:
    def test_series_nondecreasing_and_terminates(self):
        shape = TorusShape(6, 2)
        g = rng(6)
        cfg = sample_product(shape, 0.3, g)
        series = approach2_run(boxes(cfg), 2.0, g)
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
        out = lump_boxes(b, 0.3)
        assert list(out[:6]) == [1, 1, 1, 1, 0, 2]
        assert list(out[6:]) == [1] * 5

    def test_lump_d10_p03(self):
        # 2d*p0 = 8.0 -> lump boxes 8..9 into box 10
        b = box(list(range(21)))
        out = lump_boxes(b, 0.3)
        assert out[8] == 0 and out[9] == 0
        assert out[10] == 10 + 8 + 9
        assert out.sum() == sum(range(21))

    def test_identity_when_band_empty(self):
        b = box([5, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0])  # d=5, nothing in 4..4
        out = lump_boxes(b, 0.3)
        assert list(out) == list(b)

    def test_dominates_plain_upper_mass(self):
        g = rng(8)
        for _ in range(50):
            counts = g.integers(0, 5, size=13)  # d=6
            b = box(counts)
            assert upper_mass(lump_boxes(b, 0.2)) >= upper_mass(b)


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

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="finite and positive"):
            approach4_run(5, 10, 0.3, T, rng())

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

    def test_default_grid_covers_zero_to_n(self):
        # C_tilde runs to ~10^4 at d=6, far past n = 64; the orderings
        # among E_T, C_hat and C_bar are only visible on (0, n]
        shape = TorusShape(6, 2)
        streams = [rng(15, i) for i in range(4)]
        report = dominance_experiment(shape, 0.3, 0.5, 20, None, streams)
        grid = report.M_grid
        assert report.samples["C_tilde"].max() > 10 * shape.n
        assert np.count_nonzero((grid > 0) & (grid <= shape.n)) >= 19
        assert grid[0] == 0.0 and grid[-1] == report.samples["C_tilde"].max()
        assert np.all(np.diff(grid) > 0)

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


class TestBatchedInitialBoxes:
    @pytest.mark.parametrize("d,r", [(5, 2), (3, 3), (2, 5)])
    def test_neighbor_sums_match_row_by_row(self, d, r):
        shape = TorusShape(d, r)
        bits = (rng(30, r).random((7, shape.n)) < 0.4).astype(np.uint8)
        batched = build_ones_nbr(shape, bits)
        assert batched.shape == bits.shape
        for row_bits, row in zip(bits, batched):
            assert np.array_equal(row, build_ones_nbr(shape, row_bits))
            slots = [sum(int(row_bits[y]) for y in neighbors(shape, x))
                     for x in range(shape.n)]  # one term per neighbor slot
            assert list(row) == slots

    def test_rows_are_successive_product_draws(self):
        shape = TorusShape(4, 3)
        g, h = rng(31), rng(31)
        bits, ones_nbr = sample_product_batch(shape, 0.3, 6, g)
        for row_bits, row_nbr in zip(bits, ones_nbr):
            cfg = sample_product(shape, 0.3, h)
            assert np.array_equal(row_bits, cfg.bits)
            assert np.array_equal(row_nbr, cfg.ones_nbr)
        assert g.random() == h.random()

    @pytest.mark.parametrize("d,r", [(6, 2), (3, 3)])
    def test_histograms_match_boxes_from_config(self, d, r):
        shape = TorusShape(d, r)
        bits, ones_nbr = sample_product_batch(shape, 0.4, 9, rng(32, d))
        hist = neighbor_histograms(ones_nbr, d)
        for row_bits, row in zip(bits, hist):
            assert np.array_equal(row, boxes(config_from_bits(shape, row_bits)))

    def test_blocks_split_one_draw(self, monkeypatch):
        shape = TorusShape(4, 2)
        whole, _ = sample_product_batch(shape, 0.3, 7, rng(33))
        monkeypatch.setattr(ballgame, "BLOCK_SLOTS", 3 * shape.n + 1)
        blocks = list(ballgame._initial_blocks(shape, 0.3, 7, rng(33)))
        assert [len(b) for b, _ in blocks] == [3, 3, 1]
        assert np.array_equal(np.concatenate([b for b, _ in blocks]), whole)

    @pytest.mark.parametrize("name", ["C_hat", "C_bar", "C_tilde"])
    def test_block_size_leaves_samples_unchanged(self, name, monkeypatch):
        shape = TorusShape(6, 2)
        sampler = getattr(ballgame, "_sample_" + name)
        whole = sampler(shape, 0.3, 0.5, 40, rng(35))
        monkeypatch.setattr(ballgame, "BLOCK_SLOTS", 3 * shape.n)
        assert np.array_equal(sampler(shape, 0.3, 0.5, 40, rng(35)), whole)

    def test_lump_rows_match_approach3_init(self):
        counts = rng(34).integers(0, 9, size=(20, 17))  # d=8
        lumped = lump_boxes(counts, 0.3)
        for row, out in zip(counts, lumped):
            assert np.array_equal(out, lump_boxes(box(row), 0.3))


class ConstantClock:
    """Every holding time is the same unit exponential c = -log1p(-u), for
    both approach2_run (random()) and the chain (standard_exponential);
    the top-up draws of rightward_move go to a real generator."""

    def __init__(self, u, seed):
        self.u, self.g = u, rng(seed)

    def random(self):
        return self.u

    def standard_exponential(self, size):
        return np.full(size, -math.log1p(-self.u))

    def choice(self, *args, **kwargs):
        return self.g.choice(*args, **kwargs)


def _sampled_boxes(d, replicas, seed):
    shape = TorusShape(d, 2)
    _, ones_nbr = sample_product_batch(shape, 0.3, replicas, rng(seed))
    return neighbor_histograms(ones_nbr, d)


class TestRightwardChain:
    @pytest.mark.parametrize("counts", [[1, 5, 0, 9, 2], [2, 3, 0, 0, 0],
                                        [1, 2, 0, 3, 1], [0, 5, 0, 9, 2],
                                        [0, 0, 0, 7, 1]])
    def test_move_rows_match_rightward_move(self, counts):
        b = box(counts)
        before = upper_mass(b)
        rightward_move(b, rng(35))
        left = np.array([counts[:2]], dtype=np.int64)
        gained = rightward_move_rows(left)
        assert list(left[0]) == list(b[:2])
        assert int(gained[0]) == upper_mass(b) - before

    def test_upper_mass_sequence_fixed_by_initial_boxes(self):
        # repeated rightward_move under two seeds against the batched move:
        # the upper masses agree move for move, through both branches
        d = 8
        boxes = _sampled_boxes(d, 40, 36)
        boxes = boxes[boxes[:, d:].sum(axis=1) > 0]
        left = boxes[:, :d].copy()
        upper = boxes[:, d:].sum(axis=1)
        batched = [upper.copy()]
        while left.any():
            upper = upper + rightward_move_rows(left)
            batched.append(upper.copy())
        branches = set()
        for seed in (37, 38):
            g = rng(seed)
            for i, counts in enumerate(boxes):
                b = box(counts)
                masses = [upper_mass(b)]
                while b[:d].any():
                    branches.add(int(b[:d].sum()) >= 2 * d)
                    rightward_move(b, g)
                    masses.append(upper_mass(b))
                steps = len(masses)
                assert masses == [int(u[i]) for u in batched[:steps]]
                assert all(int(u[i]) == masses[-1] for u in batched[steps:])
        assert branches == {True, False}

    @pytest.mark.parametrize("u,T", [(0.3, 0.5), (0.9, 1.0), (0.6, 0.5), (0.99, 0.5)])
    def test_chain_matches_path_under_constant_clock(self, u, T):
        # (0.3, 0.5) lets nearly every row drain its left region; at
        # (0.99, 0.5) the clock stops every row, after 1 to 18 moves
        boxes = np.vstack([_sampled_boxes(8, 30, 39),
                           [[3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]])
        for counts in (boxes, lump_boxes(boxes, 0.3)):
            got = rightward_counts(counts, T, ConstantClock(u, 40))
            want = [approach2_run(box(row), T, ConstantClock(u, 41)).values[-1]
                    for row in counts]
            assert list(got) == want

    def test_frozen_rows_draw_nothing(self):
        # no upper mass: rate 0; empty left region: nothing left to move
        counts = np.array([[3, 4, 0, 0, 0], [0, 0, 2, 1, 3]], dtype=np.int64)
        g, twin = rng(42), rng(42)
        assert list(rightward_counts(counts, 5.0, g)) == [0, 6]
        assert g.random() == twin.random()


class TestSingleBoxCounts:
    @pytest.mark.parametrize("d", [8, 10])  # m = 1 and m = 2 at p = 0.3
    def test_matches_scalar_draw_for_draw(self, d):
        I0 = np.array([3, 0, 17, 40, 1, 0, 9])
        g, h = rng(43, d), rng(43, d)
        got = single_box_counts(I0, d, 0.3, 0.5, g)
        assert list(got) == [single_box_count(int(i), d, 0.3, 0.5, h) for i in I0]
        assert g.random() == h.random()

    def test_zero_starts_draw_nothing(self):
        g, twin = rng(44), rng(44)
        assert list(single_box_counts(np.zeros(5, dtype=np.int64), 8, 0.3, 0.5, g)) == [0] * 5
        assert g.random() == twin.random()

    def test_jump_cap_kept(self):
        msg = f"more than {MAX_JUMPS} jumps"
        I0 = np.array([40, 0, 12])
        for T in (3.0, 40.0, 70.0):  # too many jumps, numpy refuses, underflow
            with pytest.raises(ValueError, match=msg):
                single_box_counts(I0, 6, 0.3, T, rng(45))
        with pytest.raises(ValueError, match=msg):
            ballgame._sample_C_tilde(TorusShape(6, 2), 0.3, 3.0, 5, rng(45))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            single_box_counts(np.array([5]), 8, 0.3, 0.0, rng())

    @pytest.mark.parametrize("d", [8, 10])  # m = 1 and m = 2 at p = 0.3
    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, T, d):
        with pytest.raises(ValueError, match="finite and positive"):
            single_box_counts(np.array([5]), d, 0.3, T, rng())


def _path_samples(shape, p, T, replicas, g, process):
    """The per-replica path samplers the batched ones replace."""
    lo = math.floor(2 * shape.d * p_zero(p))
    out = []
    for _ in range(replicas):
        cfg = sample_product(shape, p, g)
        if process == "C_tilde":
            out.append(single_box_count(int(np.count_nonzero(cfg.ones_nbr >= lo)),
                                        shape.d, p, T, g))
            continue
        b = boxes(cfg)
        if process == "C_bar":
            b = lump_boxes(b, p)
        out.append(approach2_run(b, T, g).values[-1])
    return np.array(out)


@pytest.mark.slow
class TestBatchedLaw:
    """Two-sample KS at alpha = 0.01 against the path samplers at d=8,
    p=0.3.  At T=0.5 most rows drain their left region before the clock
    stops them; at T=0.1 nearly all are stopped by the clock, so there a
    wrong move count or holding rate shifts the law."""

    SIZES = {("C_hat", 0.5): (3000, 30000), ("C_bar", 0.5): (1000, 10000),
             ("C_tilde", 0.5): (2000, 20000), ("C_hat", 0.1): (10000, 100000),
             ("C_bar", 0.1): (10000, 100000), ("C_tilde", 0.1): (10000, 100000)}

    @pytest.mark.parametrize("process,T", list(SIZES))
    def test_matches_path_sampler(self, process, T):
        shape, p = TorusShape(8, 2), 0.3
        n_path, n_batch = self.SIZES[process, T]
        path = _path_samples(shape, p, T, n_path, rng(46, n_path), process)
        batched = getattr(ballgame, f"_sample_{process}")(shape, p, T, n_batch,
                                                           rng(47, n_batch))
        assert ks_2samp(path, batched).pvalue > 0.01
