"""DrawStream against the live numpy Generator, draw for draw and state for
state, and the runs that draw through it."""

import math
import random

import numpy as np
import pytest

from torusvoter import coupling, spin
from torusvoter.observables import EAccumulator
from torusvoter.spin import (DEATH, THRESHOLD, DrawStream, RngStream, replay,
                             run, sample_product)
from torusvoter.torus import TorusShape

from test_golden import _slot_engine

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
    g, h = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if has_uint32:  # one 32-bit draw leaves half a word in the state
        g.integers(3)
        h.integers(3)
    assert g.bit_generator.state["has_uint32"] == has_uint32
    return g, h


@pytest.mark.parametrize("has_uint32", [0, 1])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_interleaved_draws_match_generator(bit_generator, has_uint32):
    for seed in range(8):
        g, h = _twins(bit_generator, seed, has_uint32)
        draws, pick = DrawStream(g), random.Random(seed)
        for j in range(1500):
            if pick.random() < 0.5:
                rate = pick.choice([1.0, 3.5, 1e-3, 2**31])
                assert draws.exponential(rate) == -math.log1p(-h.random()) / rate
            else:
                k = pick.choice(BOUNDS + [pick.randrange(1, 2**32 + 1)] * 4)
                assert draws.index(k) == int(h.integers(k))
            if j in (700, 701, 1200):  # close mid-stream, then keep drawing
                draws.close()
                assert _same_state(g.bit_generator.state, h.bit_generator.state)
        draws.close()
        assert _same_state(g.bit_generator.state, h.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("ndraws", [0, 1, spin.COLD_DRAWS, spin.COLD_DRAWS + 1, 3000])
def test_close_leaves_generator_in_sync(bit_generator, ndraws):
    for has_uint32 in (0, 1):
        g, h = _twins(bit_generator, 11, has_uint32)
        draws = DrawStream(g)
        for j in range(ndraws):
            if j % 3:
                draws.index(1000 + j)
                h.integers(1000 + j)
            else:
                draws.exponential(2.0)
                h.random()
        draws.close()
        draws.close()  # idempotent
        assert _same_state(g.bit_generator.state, h.bit_generator.state)
        assert g.integers(7) == h.integers(7)
        assert np.array_equal(g.random(5), h.random(5))
        assert g.integers(2**32) == h.integers(2**32)


def test_close_after_a_long_stream():
    """More words than one rewind chunk (close advances in chunks)."""
    g, h = _twins(np.random.Philox, 12, 1)
    draws = DrawStream(g)
    words = 150_000
    expected = [-math.log1p(-u) for u in h.random(words).tolist()]
    assert [draws.exponential(1.0) for _ in range(words)] == expected
    draws.close()
    assert _same_state(g.bit_generator.state, h.bit_generator.state)


def test_bounds_outside_uint32_range():
    draws = DrawStream(np.random.Generator(np.random.Philox(1)))
    for _ in range(spin.COLD_DRAWS + 1):  # in the cold phase and past it
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
    one random(), a ring one random() and then one integers(k)."""
    g, h = _twins(bit_generator, 61, has_uint32)
    draws = DrawStream(g)
    empty = spin._IndexedSet(9)
    arms = spin._IndexedSet(9, [4, 0, 7])
    t = 0.0
    for _ in range(2 * spin.COLD_DRAWS):  # in the cold phase and past it
        assert empty.ring(draws, t, math.inf) is None
        draws.close()
        assert _same_state(g.bit_generator.state, h.bit_generator.state)
        assert arms.ring(draws, t, t) is None  # every gap reaches t
        draws.close()
        h.random()
        assert _same_state(g.bit_generator.state, h.bit_generator.state)
        ring = arms.ring(draws, t, math.inf)
        draws.close()
        gap = -math.log1p(-h.random()) / 3
        assert ring == (t + gap, arms.items[int(h.integers(3))])
        assert _same_state(g.bit_generator.state, h.bit_generator.state)
        t = ring[0]


@pytest.mark.parametrize("kind", [THRESHOLD, DEATH])
def test_consecutive_runs_match_slot_loop(kind):
    """The E_T pattern: product draws and runs alternate on one Generator.

    Horizons alternate between 0.02, where runs end within the cold phase,
    and 0.5, where they switch to blocks; a run that left the Generator out
    of sync would shift every later draw.
    """
    shape = TorusShape(6, 2)
    g, h = (RngStream(31, (6, kind == DEATH)).generator() for _ in range(2))
    lengths = []
    for i in range(12):
        T = (0.02, 0.5)[i % 2]
        cfg, ref = sample_product(shape, 0.3, g), sample_product(shape, 0.3, h)
        events = [tuple(ev) for ev in run(cfg, kind, T, g).events]
        ref_events, _ = _slot_engine(ref, kind, T, h)
        assert events == ref_events
        assert np.array_equal(cfg.bits, ref.bits)
        lengths.append(len(events))
        assert _same_state(g.bit_generator.state, h.bit_generator.state)
    # each event takes two draws: both phases were exercised
    assert 2 * min(lengths) + 1 <= spin.COLD_DRAWS < 2 * max(lengths)


class _RecordingStream(DrawStream):
    """DrawStream that logs each call, to replay it on a twin Generator."""

    log: list = []

    def exponential(self, rate):
        self.log.append(("exp", rate))
        return super().exponential(rate)

    def index(self, k):
        self.log.append(("index", k))
        return super().index(k)


def _replay(log, h):
    for what, arg in log:
        if what == "exp":
            h.random()
        else:
            h.integers(arg)


@pytest.mark.parametrize("monotone", [True, False])
def test_domination_error_leaves_generator_in_sync(monkeypatch, monotone):
    """A coupling that raises mid-run still closes its DrawStream."""
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
    _replay(_RecordingStream.log, h)
    assert _same_state(g.bit_generator.state, h.bit_generator.state)


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
