import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvoter.oracle import ctmc_mean_ones
from torusvoter.spin import (DEATH, THRESHOLD, Configuration, CountMismatchError,
                             EventEngine, RngStream, build_ones_nbr,
                             config_from_bits, flip_and_count,
                             rate_rows, rate_table, replay, run,
                             sample_product, sample_product_batch,
                             threshold_rate, toggle_rows, verify_counts)
from torusvoter.torus import TorusShape, neighbors

from bruteforce import rejection_run
from reference import death_rate, sample_death_counts


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


class TestSampling:
    def test_extreme_densities(self):
        shape = TorusShape(2, 3)
        assert sample_product(shape, 0.0, rng()).bits.sum() == 0
        assert sample_product(shape, 1.0, rng()).bits.sum() == shape.n

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            sample_product(TorusShape(1, 3), 1.5, rng())

    def test_mean_fraction_binomial(self):
        shape = TorusShape(10, 2)
        fracs = [sample_product(shape, 0.3, rng(1, i)).bits.mean()
                 for i in range(100)]
        se = math.sqrt(0.3 * 0.7 / shape.n / 100)
        assert abs(np.mean(fracs) - 0.3) < 4 * se

    def test_counts_built_consistently(self):
        cfg = sample_product(TorusShape(3, 3), 0.4, rng(2))
        verify_counts(cfg)

    @pytest.mark.parametrize("d,r", [(1, 2), (4, 2), (2, 3), (2, 5)])
    def test_ones_nbr_is_the_slot_sum(self, d, r):
        """Rows of a batch, each the sum over the 2d slots of neighbors()."""
        shape = TorusShape(d, r)
        bits = (rng(15).random((3, shape.n)) < 0.4).astype(np.uint8)
        got = build_ones_nbr(shape, bits)
        assert got.dtype == np.int32
        assert got.tolist() == [[sum(int(row[y]) for y in neighbors(shape, x))
                                 for x in range(shape.n)] for row in bits]


class TestRates:
    def test_threshold_cases(self):
        shape = TorusShape(2, 3)
        cfg = sample_product(shape, 0.0, rng())
        cfg.bits[0] = 0
        cfg.ones_nbr[0] = 2
        assert threshold_rate(cfg, 0) == 1
        cfg.bits[0] = 1
        cfg.ones_nbr[0] = 3  # one disagreeing neighbor < d=2
        assert threshold_rate(cfg, 0) == 0

    def test_constant_configurations_frozen(self):
        for d, r in [(1, 3), (2, 3), (3, 2)]:
            shape = TorusShape(d, r)
            for p in (0.0, 1.0):
                cfg = sample_product(shape, p, rng())
                assert all(threshold_rate(cfg, x) == 0 for x in range(shape.n))

    def test_death_rate_is_current_bit(self):
        cfg = config_from_bits(TorusShape(1, 4), [1, 0, 1, 0])
        assert [death_rate(cfg, x) for x in range(4)] == [1, 0, 1, 0]


class TestRateTable:
    @pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
    def test_cached_read_only_and_unchanged(self, kind):
        for d in (1, 4, 16):
            table = rate_table(d, kind)
            assert rate_table(d, kind) is table
            assert rate_rows(d, kind) is rate_rows(d, kind)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
            k = np.arange(2 * d + 1)
            if kind == THRESHOLD:  # a 0 flips at >= d one-neighbors, a 1 at <= d
                want = np.array([k >= d, k <= d], dtype=np.uint8)
            else:  # ones die, zeros are frozen
                want = np.array([k < 0, k >= 0], dtype=np.uint8)
            assert table.dtype == np.uint8
            assert np.array_equal(table, want)
            assert rate_rows(d, kind) == tuple(map(tuple, want.tolist()))

    def test_rows_match_rate_functions(self):
        shape = TorusShape(2, 3)
        cfg = sample_product(shape, 0.5, rng(14))
        for kind, rate in ((THRESHOLD, threshold_rate), (DEATH, death_rate)):
            rows = rate_rows(shape.d, kind)
            assert [rows[cfg.bits[x]][cfg.ones_nbr[x]] for x in range(shape.n)] == \
                [rate(cfg, x) for x in range(shape.n)]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rate_table(3, "voter")


class TestFlipAndCount:
    def test_scalar_update_through_views(self):
        shape = TorusShape(3, 3)
        cfg = config_from_bits(shape, [0] * shape.n)
        bits, ones = memoryview(cfg.bits), memoryview(cfg.ones_nbr)
        nbrs = [1, 2, 3]
        toggles = toggle_rows(3, THRESHOLD, 2)
        assert flip_and_count(bits, ones, 0, 1, nbrs, 2, toggles) == []  # 0 -> 2 < d
        assert cfg.bits[0] == 1 and cfg.ones_nbr[:5].tolist() == [0, 2, 2, 2, 0]
        assert flip_and_count(bits, ones, 0, 0, nbrs, 2, toggles) == []
        assert cfg.bits[0] == 0 and not cfg.ones_nbr.any()

    @pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
    @pytest.mark.parametrize("w", [1, 2])
    def test_toggle_rows_match_rate_table(self, kind, w):
        for d in range(1, 7):
            rows = toggle_rows(d, kind, w)
            assert toggle_rows(d, kind, w) is rows
            table = rate_table(d, kind)
            for new, sign in ((1, -1), (0, 1)):  # the count came from k -+ w
                for b in (0, 1):
                    for k in range(2 * d + 1):
                        before = k + sign * w
                        want = 0 <= before <= 2 * d and table[b][k] != table[b][before]
                        assert rows[new][b][k] == want, (d, new, b, k)

    @pytest.mark.parametrize("d,r", [(5, 2), (2, 2), (3, 3), (2, 4)])
    @pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
    def test_returns_brute_force_rate_diff(self, d, r, kind):
        from torusvoter.torus import neighbor_lists

        shape = TorusShape(d, r)
        nbrs_of, w = neighbor_lists(shape)
        toggles, table = toggle_rows(d, kind, w), rate_table(d, kind)
        g = rng(16, d * 10 + r)
        seen = 0
        for p in (0.2, 0.5, 0.8):
            cfg = sample_product(shape, p, g)
            bits, ones = memoryview(cfg.bits), memoryview(cfg.ones_nbr)
            for x in g.integers(shape.n, size=60).tolist():
                before = table[cfg.bits, cfg.ones_nbr]
                nbrs = nbrs_of(x)
                toggled = flip_and_count(bits, ones, x, 1 - bits[x], nbrs, w, toggles)
                after = table[cfg.bits, cfg.ones_nbr]
                assert toggled == [y for y in nbrs if before[y] != after[y]]
                if kind == DEATH:
                    assert toggled == []
                seen += len(toggled)
            verify_counts(cfg)
        assert (seen > 0) == (kind == THRESHOLD)

    def test_run_writes_through_block_rows(self):
        # _sample_E_T runs the engine on rows of one (R, n) block
        shape = TorusShape(5, 2)
        g = rng(15)
        block_bits, block_nbr = sample_product_batch(shape, 0.4, 3, g)
        before = block_bits.copy()
        for i in range(3):
            traj = run(Configuration(shape, block_bits[i], block_nbr[i]),
                       THRESHOLD, 1.0, g)
            assert traj.events
            *_, (_, end) = replay(traj)
            assert np.array_equal(block_bits[i], end.bits)
            assert np.array_equal(block_nbr[i], end.ones_nbr)
        assert not np.array_equal(block_bits, before)
        verify_counts(Configuration(shape, block_bits[0], block_nbr[0]))


class TestActiveSet:
    def test_hand_counted_active_sets(self):
        shape = TorusShape(1, 4)
        eng = EventEngine(config_from_bits(shape, [1, 0, 0, 0]), THRESHOLD, rng())
        assert sorted(eng.active.items) == [0, 1, 3]
        eng = EventEngine(config_from_bits(shape, [1, 0, 1, 0]), THRESHOLD, rng())
        assert sorted(eng.active.items) == [0, 1, 2, 3]

    def test_absorbed_immediately(self):
        shape = TorusShape(1, 4)
        traj = run(config_from_bits(shape, [0, 0, 0, 0]), THRESHOLD, 1.0, rng())
        assert traj.events == []

    def test_all_one_absorbing(self):
        traj = run(sample_product(TorusShape(2, 3), 1.0, rng()), THRESHOLD, 5.0, rng())
        assert traj.events == []


class TestDeathProcess:
    def test_every_site_dies_exactly_once(self):
        shape = TorusShape(2, 4)
        cfg = sample_product(shape, 1.0, rng(3))
        traj = run(cfg, DEATH, 1e9, rng(3))
        assert len(traj.events) == shape.n
        assert all(ev.new_value == 0 for ev in traj.events)
        assert cfg.bits.sum() == 0

    def test_event_count_binomial(self):
        shape = TorusShape(3, 2)
        p, T, reps = 0.6, 1.0, 400
        counts = []
        for i in range(reps):
            r = rng(4, i)
            traj = run(sample_product(shape, p, r), DEATH, T, r)
            counts.append(len(traj.events))
        q = p * (1 - math.exp(-T))
        se = math.sqrt(shape.n * q * (1 - q) / reps)
        assert abs(np.mean(counts) - shape.n * q) < 4 * se


class TestCountMaintenance:
    def test_audit_after_long_run(self):
        shape = TorusShape(6, 2)
        r = rng(5)
        cfg = sample_product(shape, 0.5, r)
        eng = EventEngine(cfg, THRESHOLD, r)
        for _ in range(10_000):
            if eng.step(1e9) is None:
                break
        verify_counts(cfg)

    def test_corruption_detected(self):
        cfg = sample_product(TorusShape(2, 3), 0.5, rng(6))
        cfg.bits[4] ^= 1
        with pytest.raises(CountMismatchError):
            verify_counts(cfg)


class TestDeterminism:
    def test_identical_streams_identical_events(self):
        shape = TorusShape(4, 2)
        trajs = []
        for _ in range(2):
            r = rng(7, 3)
            traj = run(sample_product(shape, 0.4, r), THRESHOLD, 2.0, r)
            trajs.append([(ev.time, ev.vertex, ev.new_value) for ev in traj.events])
        assert trajs[0] == trajs[1]

    def test_tuple_stream_ids(self):
        # the old sweep ids (d << 20) + i gave (2, 2**20) and (3, 0) one stream
        assert (2 << 20) + 2**20 == (3 << 20) + 0
        a = RngStream(4, (2, 2**20)).generator().random(4)
        b = RngStream(4, (3, 0)).generator().random(4)
        assert not np.array_equal(a, b)
        # an integer id keeps its one-element spawn key
        assert np.array_equal(RngStream(4, 7).generator().random(4),
                              RngStream(4, (7,)).generator().random(4))

    @pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, kind, T):
        # a run to nan or inf would stop only when the chain absorbs
        cfg = sample_product(TorusShape(3, 2), 0.4, rng())
        with pytest.raises(ValueError, match="finite and positive"):
            run(cfg, kind, T, rng())

    def test_distinct_streams_differ(self):
        shape = TorusShape(4, 2)
        out = []
        for s in (0, 1):
            r = rng(7, s)
            traj = run(sample_product(shape, 0.4, r), THRESHOLD, 2.0, r)
            out.append([ev.vertex for ev in traj.events])
        assert out[0] != out[1]


class TestReplay:
    def test_replay_reproduces_states(self):
        shape = TorusShape(2, 3)
        r = rng(8)
        cfg = sample_product(shape, 0.5, r)
        traj = run(cfg, THRESHOLD, 1.0, r)
        for _, state in replay(traj):
            verify_counts(state)
        assert np.array_equal(state.bits, cfg.bits)


def _mc_mean_ones(shape, bits, t_grid, reps, seed):
    sums = np.zeros(len(t_grid))
    for i in range(reps):
        r = rng(seed, i)
        cfg = config_from_bits(shape, bits)
        eng = EventEngine(cfg, THRESHOLD, r)
        count = cfg.ones_count()
        j = 0
        while j < len(t_grid):
            ev = eng.step(t_grid[-1] + 1e-9)
            t_ev = eng.time if ev is None else ev.time
            while j < len(t_grid) and t_grid[j] < t_ev:
                sums[j] += count
                j += 1
            if ev is None:
                break
            count += 1 if ev.new_value == 1 else -1
        while j < len(t_grid):
            sums[j] += count
            j += 1
    return sums / reps


@pytest.mark.slow
@pytest.mark.parametrize("r_side,bits", [(3, [1, 1, 0]), (4, [1, 0, 1, 0])])
def test_thinning_equivalence_against_exact_chain(r_side, bits):
    shape = TorusShape(1, r_side)
    t_grid = [0.5, 1.0, 2.0]
    reps = 20_000
    mc = _mc_mean_ones(shape, bits, t_grid, reps, seed=9)
    for t, est in zip(t_grid, mc):
        exact = ctmc_mean_ones(shape, config_from_bits(shape, bits), t)
        se = math.sqrt(shape.n**2 / 4 / reps)  # crude bound on sd(|A_t|)
        assert abs(est - exact) < 3 * se


@pytest.mark.slow
def test_naive_variant_matches_active_set():
    shape = TorusShape(1, 4)
    bits = [1, 0, 1, 0]
    t_grid = [0.5, 1.0, 2.0]
    reps = 20_000
    exact = [ctmc_mean_ones(shape, config_from_bits(shape, bits), t) for t in t_grid]
    sums = np.zeros(len(t_grid))
    for i in range(reps):
        r = rng(10, i)
        cfg = config_from_bits(shape, bits)
        count = cfg.ones_count()
        traj, _ = rejection_run(cfg, THRESHOLD, t_grid[-1] + 1e-9, r)
        j = 0
        for ev in traj.events:
            while j < len(t_grid) and t_grid[j] < ev.time:
                sums[j] += count
                j += 1
            count += 1 if ev.new_value == 1 else -1
        while j < len(t_grid):
            sums[j] += count
            j += 1
    naive_mc = sums / reps
    se = math.sqrt(shape.n**2 / 4 / reps)
    for est, ex in zip(naive_mc, exact):
        assert abs(est - ex) < 3 * se


def test_vectorized_death_counts_law():
    shape = TorusShape(8, 2)
    p, reps = 0.4, 2000
    ts = [0.5, 1.0, 2.0]
    counts = sample_death_counts(shape, p, ts, reps, rng(11))
    for j, t in enumerate(ts):
        q = p * math.exp(-t)
        se = math.sqrt(shape.n * q * (1 - q) / reps)
        assert abs(counts[:, j].mean() - shape.n * q) < 4 * se


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=4),
       st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=99))
@settings(max_examples=25, deadline=None)
def test_counts_stay_consistent_property(d, r_side, p, seed):
    shape = TorusShape(d, r_side)
    r = rng(seed)
    cfg = sample_product(shape, p, r)
    run(cfg, THRESHOLD, 0.5, r)
    verify_counts(cfg)


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=3),
       st.sampled_from([THRESHOLD, DEATH]), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=99))
@settings(max_examples=40, deadline=None)
def test_active_set_matches_rebuild_property(r_side, d, kind, p, seed):
    shape = TorusShape(d, r_side)
    g = rng(seed)
    cfg = sample_product(shape, p, g)
    engine = EventEngine(cfg, kind, g)
    rate = threshold_rate if kind == THRESHOLD else death_rate
    for _ in range(200):
        ev = engine.step(1.0)
        verify_counts(cfg)
        rebuilt = {x for x in range(shape.n) if rate(cfg, x)}
        assert set(engine.active.items) == rebuilt
        assert all(engine.active.pos[x] == k
                   for k, x in enumerate(engine.active.items))
        if ev is None:
            break
