"""DrawStream against the live numpy Generator: draw for draw from a
fresh half-word, word for word in what it takes from the Generator, and in
law over runs that share one Generator."""

import math
import random

import numpy as np
import pytest

from torusvoter import coupling, spin
from torusvoter.observables import EAccumulator
from torusvoter.spin import (DEATH, THRESHOLD, DrawStream, RngStream, replay,
                             run, sample_product)
from torusvoter.torus import TorusShape

from test_golden import _pooled_chi2_pvalue, _slot_engine

BIT_GENERATORS = [np.random.Philox, np.random.PCG64, np.random.PCG64DXSM,
                  np.random.SFC64]
BOUNDS = [1, 2, 3, 17, 2**31 - 1, 2**31, 2**32 - 1, 2**32]


def _same_state(a, b) -> bool:
    """Bit-generator state dicts equal, arrays compared elementwise."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _twins(bit_generator, seed, has_uint32):
    """A Generator g for the stream and a twin h for the direct calls.

    With has_uint32, one 32-bit draw leaves half a word in both; the stream
    starts with an empty half-word buffer, so h drops its half.
    """
    g, h = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if has_uint32:
        g.integers(3)
        h.integers(3)
        state = h.bit_generator.state
        state["has_uint32"] = 0
        h.bit_generator.state = state
    assert g.bit_generator.state["has_uint32"] == has_uint32
    return g, h


def _blocks(words: int) -> list[int]:
    """The block sizes a stream fetches to serve `words` raw words."""
    sizes, block = [], 64
    while sum(sizes) < words:
        sizes.append(block)
        block = min(2 * block, 1024)
    return sizes


def _advanced(state, sizes):
    """The state a bit generator at `state` reaches after random_raw(m)
    for each m in sizes."""
    bitgen = getattr(np.random, state["bit_generator"])()
    bitgen.state = state
    for m in sizes:
        bitgen.random_raw(m)
    return bitgen.state


def _words_between(start, end) -> int:
    """Raw words from bit-generator state `start` to `end`, found by stepping
    a copy one word at a time; a kept half-word does not count."""
    bitgen = getattr(np.random, start["bit_generator"])()
    bitgen.state = start
    core = {key: value for key, value in end.items()
            if key not in ("has_uint32", "uinteger")}
    for words in range(100_000):
        state = bitgen.state
        if _same_state({key: state[key] for key in core}, core):
            return words
        bitgen.random_raw(1)
    raise AssertionError("end state not reached")


@pytest.mark.parametrize("has_uint32", [0, 1])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_interleaved_draws_match_generator(bit_generator, has_uint32):
    for seed in range(8):
        g, h = _twins(bit_generator, seed, has_uint32)
        draws, pick = DrawStream(g), random.Random(seed)
        for _ in range(1500):
            if pick.random() < 0.5:
                rate = pick.choice([1.0, 3.5, 1e-3, 2**31])
                assert draws.exponential(rate) == -math.log1p(-h.random()) / rate
            else:
                k = pick.choice(BOUNDS + [pick.randrange(1, 2**32 + 1)] * 4)
                assert draws.index(k) == int(h.integers(k))


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("ndraws", [0, 1, 96, 97, 3000])
def test_generator_advances_by_fetched_blocks(bit_generator, ndraws):
    """The stream takes words from the Generator in whole blocks of 64,
    doubling to 1024, and gives none back.  Every third draw is an Exp
    (one word), the others an index below a power of two (half a word,
    never rejected), so 96 draws use 64 words and 97 draws 65."""
    g = np.random.Generator(bit_generator(11))
    start = g.bit_generator.state
    draws = DrawStream(g)
    halves = 0
    for j in range(ndraws):
        if j % 3:
            draws.index(2 ** (1 + j % 32))
            halves += 1
        else:
            draws.exponential(2.0)
    words = ndraws - halves + (halves + 1) // 2
    assert _same_state(g.bit_generator.state, _advanced(start, _blocks(words)))


@pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
def test_run_advances_generator_by_fetched_blocks(kind):
    """After a run, the Generator sits past the run's whole blocks: a twin
    that made the same draws directly used `words` of them."""
    shape = TorusShape(8, 2)
    g, h = (RngStream(33, (8, kind == DEATH)).generator() for _ in range(2))
    cfg, ref = sample_product(shape, 0.45, g), sample_product(shape, 0.45, h)
    start = g.bit_generator.state
    events = [tuple(ev) for ev in run(cfg, kind, 2.0, g).events]
    ref_events, _ = _slot_engine(ref, kind, 2.0, h)
    assert events == ref_events and len(events) > 64  # past the first block
    words = _words_between(start, h.bit_generator.state)
    assert words >= len(events)
    assert _same_state(g.bit_generator.state, _advanced(start, _blocks(words)))


def test_streams_on_one_generator_draw_disjoint_words():
    """A second stream on one Generator starts past the first's block, and
    the first keeps drawing from its own block, then from a fresh one."""
    g, h = (np.random.Generator(np.random.Philox(5)) for _ in range(2))
    raw = h.bit_generator.random_raw(64 + 64 + 128 + 128).tolist()
    exps = [-math.log1p(-(u >> 11) * 2.0**-53) for u in raw]
    first = DrawStream(g)
    head = [first.exponential(1.0) for _ in range(10)]
    second = DrawStream(g)
    other = [second.exponential(1.0) for _ in range(100)]  # 64 words, then 36
    tail = [first.exponential(1.0) for _ in range(60)]  # 54 words, then 6
    assert head + tail == exps[:64] + exps[256:262]
    assert other == exps[64:164]


def test_a_long_stream_matches_generator():
    """Many full 1024-word blocks, drawn and then accounted for."""
    g, h = _twins(np.random.Philox, 12, 0)
    start = g.bit_generator.state
    draws = DrawStream(g)
    words = 150_000
    expected = [-math.log1p(-u) for u in h.random(words).tolist()]
    assert [draws.exponential(1.0) for _ in range(words)] == expected
    assert _same_state(g.bit_generator.state, _advanced(start, _blocks(words)))


def test_bounds_outside_uint32_range():
    draws = DrawStream(np.random.Generator(np.random.Philox(1)))
    for _ in range(70):  # within the first block and past it
        with pytest.raises(ValueError):
            draws.index(2**32 + 1)
        with pytest.raises(ValueError):
            draws.index(0)
        draws.exponential(1.0)


def test_mt19937_refused():
    with pytest.raises(TypeError, match="MT19937"):
        DrawStream(np.random.Generator(np.random.MT19937(1)))


@pytest.mark.parametrize("has_uint32", [0, 1])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_ring_draw_contract(bit_generator, has_uint32):
    """_IndexedSet.ring: an empty set draws nothing, a stop at the horizon
    one random(), a ring one random() and then one integers(k), as the
    direct calls on a twin Generator show."""
    g, h = _twins(bit_generator, 61, has_uint32)
    draws = DrawStream(g)
    empty = spin._IndexedSet(9)
    arms = spin._IndexedSet(9, [4, 0, 7])
    t = 0.0
    for _ in range(40):  # 40 rings and 40 stops take more than one block
        assert empty.ring(draws, t, math.inf) is None
        assert arms.ring(draws, t, t) is None  # every gap reaches t
        h.random()
        ring = arms.ring(draws, t, math.inf)
        gap = -math.log1p(-h.random()) / 3
        assert ring == (t + gap, arms.items[int(h.integers(3))])
        t = ring[0]
    # and nothing drawn in between: the next draws still agree
    assert draws.exponential(1.0) == -math.log1p(-h.random())
    assert draws.index(5) == int(h.integers(5))


def _shared_generator_sizes(engine_side: bool, kind, replicas, seed):
    """(|A_T|, |E_T|) of successive replicas on one Generator, the E_T
    sampler's pattern, at d = 6, p = 0.3, T = 0.5: spin.run with an
    EAccumulator, or the slot loop with direct draws."""
    shape, p, T = TorusShape(6, 2), 0.3, 0.5
    rng = RngStream(seed, (int(engine_side), kind == DEATH)).generator()
    out = np.empty((replicas, 2), dtype=np.int64)
    for i in range(replicas):
        cfg = sample_product(shape, p, rng)
        if engine_side:
            acc = EAccumulator()
            run(cfg, kind, T, rng, observers=(acc,))
            out[i] = cfg.ones_count(), acc.size
        else:
            ever = cfg.ones_nbr >= shape.d
            _slot_engine(cfg, kind, T, rng, ever=ever)
            out[i] = cfg.ones_count(), int(ever.sum())
    return out


@pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
def test_consecutive_runs_match_slot_loop(kind):
    """Product draws and runs alternate on one Generator, as in the E_T
    sampler.  Each run drops the words left in its last block, so the runs
    draw other words than the slot loop's direct calls, from the same law:
    a pooled chi-square on the final |A_T| and on |E_T| (under the death
    dynamics E_T is C_0), at pinned seeds."""
    replicas = 600
    engine = _shared_generator_sizes(True, kind, replicas, seed=31)
    ref = _shared_generator_sizes(False, kind, replicas, seed=31)
    for col, name in ((0, "|A_T|"), (1, "|E_T|")):
        pvalue = _pooled_chi2_pvalue(engine[:, col], ref[:, col])
        assert pvalue > 1e-3, f"{name} law moved: p = {pvalue:.2e}"


class _RecordingStream(DrawStream):
    """DrawStream that logs each call, to replay it on a twin Generator."""

    log: list = []

    def exponential(self, rate):
        value = super().exponential(rate)
        self.log.append(("exp", rate, value))
        return value

    def index(self, k):
        value = super().index(k)
        self.log.append(("index", k, value))
        return value


@pytest.mark.parametrize("monotone", [True, False])
def test_coupling_advances_generator_by_fetched_blocks(monkeypatch, monotone):
    """A coupling that raises mid-run has still taken whole blocks from the
    Generator, and its draws are the twin's direct calls."""
    shape = TorusShape(6, 2)
    g, h = (RngStream(41, int(monotone)).generator() for _ in range(2))
    _RecordingStream.log = []
    monkeypatch.setattr(coupling, "DrawStream", _RecordingStream)
    checks = []

    def failing_check(lower, upper, x=None):
        checks.append(x)
        if len(checks) == 30:
            raise coupling.DominationError("forced")

    monkeypatch.setattr(coupling, "_check_domination", failing_check)
    with pytest.raises(coupling.DominationError, match="forced"):
        if monotone:
            coupling.coupled_run_monotone(shape, 0.3, 0.45, 5.0, g)
        else:
            coupling.coupled_run_eta_zeta(shape, 0.4, 5.0, g)
    assert len(_RecordingStream.log) == 2 * 29  # 29 events, gap and index each
    if monotone:
        h.random(shape.n)
    else:
        sample_product(shape, 0.4, h)
    start = h.bit_generator.state
    for what, arg, value in _RecordingStream.log:
        if what == "exp":
            assert value == -math.log1p(-h.random()) / arg
        else:
            assert value == int(h.integers(arg))
    words = _words_between(start, h.bit_generator.state)
    assert _same_state(g.bit_generator.state, _advanced(start, _blocks(words)))


def test_event_tuples_are_immutable():
    ev = spin.FlipEvent(0.5, 3, 1)
    cev = coupling.CoupledEvent(0.5, 3, None, 0)
    for event in (ev, cev):
        with pytest.raises(AttributeError):
            event.time = 1.0
        with pytest.raises(AttributeError):
            event.vertex = 4
    assert ev == (0.5, 3, 1) and ev.new_value == 1
    assert cev.upper_new is None and cev.lower_new == 0


def test_e_accumulator_builds_one_neighbor_list_per_event(monkeypatch):
    builds = []
    neighbor_lists = spin.neighbor_lists

    def counting(shape):
        nbrs, w = neighbor_lists(shape)

        def build(x):
            builds.append(x)
            return nbrs(x)

        return build, w

    monkeypatch.setattr(spin, "neighbor_lists", counting)
    shape = TorusShape(8, 2)
    g = RngStream(51).generator()
    acc = EAccumulator()
    traj = run(sample_product(shape, 0.4, g), THRESHOLD, 2.0, g, observers=(acc,))
    assert len(traj.events) > 50
    assert builds == [ev.vertex for ev in traj.events]
    in_E = traj.initial.ones_nbr >= shape.d  # E_T rebuilt from the event log
    for _, cfg in replay(traj):
        in_E |= cfg.ones_nbr >= shape.d
    assert acc.size == int(in_E.sum())
