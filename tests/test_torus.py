from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvoter import torus
from torusvoter.torus import (TorusShape, decode, encode,
                              neighbor_lists, neighbors,
                              shared_neighbors, slot_weight, two_hop_set)

from reference import all_coordinates


def c(shape, *coords):
    return encode(coords, shape)


class TestShape:
    def test_counts(self):
        shape = TorusShape(3, 4)
        assert shape.n == 64
        assert shape.degree == 6
        assert shape.strides == (1, 4, 16)

    def test_strides_cached_without_changing_identity(self):
        shape = TorusShape(3, 4)
        assert shape.strides is shape.strides
        assert shape == TorusShape(3, 4)
        assert hash(shape) == hash(TorusShape(3, 4))

    @pytest.mark.parametrize("d,r", [(0, 3), (2, 1), (40, 2)])
    def test_rejects_bad_shapes(self, d, r):
        with pytest.raises(ValueError):
            TorusShape(d, r)


class TestEncodeDecode:
    def test_zero_of_mixed_radix(self):
        assert c(TorusShape(2, 3), 1, 1) == 0

    def test_examples(self):
        assert c(TorusShape(2, 3), 3, 2) == 5
        assert c(TorusShape(3, 2), 2, 1, 2) == 5

    def test_out_of_range(self):
        shape = TorusShape(2, 3)
        with pytest.raises(ValueError):
            encode((0, 1), shape)
        with pytest.raises(ValueError):
            encode((1, 4), shape)
        with pytest.raises(ValueError):
            decode(9, shape)

    def test_bijection_small(self):
        shape = TorusShape(3, 3)
        seen = {encode(coords, shape) for coords in all_coordinates(shape)}
        assert seen == set(range(shape.n))


shapes = st.builds(TorusShape,
                   st.integers(min_value=1, max_value=4),
                   st.integers(min_value=2, max_value=5))


@given(shapes, st.data())
def test_round_trip(shape, data):
    x = data.draw(st.integers(min_value=0, max_value=shape.n - 1))
    assert encode(decode(x, shape), shape) == x


@given(shapes, st.data())
def test_degree_and_symmetry(shape, data):
    x = data.draw(st.integers(min_value=0, max_value=shape.n - 1))
    nbrs = neighbors(shape, x)
    assert len(nbrs) == shape.degree
    mult = Counter(nbrs)
    for y, m in mult.items():
        assert Counter(neighbors(shape, y))[x] == m


class TestNeighbors:
    def test_grid_example(self):
        shape = TorusShape(2, 3)
        got = sorted(neighbors(shape, c(shape, 1, 1)))
        want = sorted(c(shape, *xy) for xy in [(2, 1), (3, 1), (1, 2), (1, 3)])
        assert got == want

    def test_r2_doubles_each_neighbor(self):
        shape = TorusShape(1, 2)
        assert neighbors(shape, 0) == (1, 1)

    def test_interior_cycle(self):
        shape = TorusShape(1, 4)
        assert sorted(neighbors(shape, 1)) == [0, 2]


class TestSharedNeighbors:
    def test_diagonal_pair(self):
        shape = TorusShape(2, 5)
        got = shared_neighbors(shape, c(shape, 1, 1), c(shape, 2, 2))
        assert got == {c(shape, 2, 1), c(shape, 1, 2)}

    def test_wraparound_pair(self):
        shape = TorusShape(2, 5)
        got = shared_neighbors(shape, c(shape, 1, 1), c(shape, 1, 4))
        assert got == {c(shape, 1, 5)}

    def test_same_vertex_gives_neighbor_support(self):
        shape = TorusShape(2, 5)
        x = c(shape, 1, 1)
        assert shared_neighbors(shape, x, x) == set(neighbors(shape, x))


class TestTwoHop:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_closed_form_for_r5(self, d):
        shape = TorusShape(d, 5)
        assert len(two_hop_set(shape, 0)) == 2 * d * d

    def test_small_r_deviations(self):
        assert len(two_hop_set(TorusShape(1, 5), 0)) == 2
        assert len(two_hop_set(TorusShape(2, 4), 0)) == 6  # +2 = -2 mod 4
        assert len(two_hop_set(TorusShape(2, 2), 0)) == 1  # only the antipode

    def test_every_member_shares_a_neighbor(self):
        shape = TorusShape(2, 4)
        for z in two_hop_set(shape, 0):
            assert shared_neighbors(shape, z, 0)
            assert z != 0


def _table_limit(cached, monkeypatch):
    if not cached:
        monkeypatch.setattr(torus, "_TABLE_ENTRY_LIMIT", 0)
        monkeypatch.setattr(torus, "_TABLE_CACHE", {})


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("d,r", [(1, 2), (5, 2), (1, 3), (3, 3), (2, 5)])
def test_neighbor_kernel_is_the_distinct_slots(d, r, cached, monkeypatch):
    _table_limit(cached, monkeypatch)
    shape = TorusShape(d, r)
    lists, w = neighbor_lists(shape)
    assert w == slot_weight(r) == (2 if r == 2 else 1)
    for x in range(shape.n):
        slots = neighbors(shape, x)
        distinct = lists(x)
        assert distinct == list(dict.fromkeys(slots))
        assert sorted(distinct * w) == sorted(slots)


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("d,r", [(1, 2), (5, 2), (1, 3), (3, 3), (2, 5)])
def test_neighbor_lists_match_kernel(d, r, cached, monkeypatch):
    """The lists are plain ints in the kernel's closed form: x ^ (1 << i)
    on r = 2, and all 2d slots in neighbors() order on r >= 3."""
    _table_limit(cached, monkeypatch)
    shape = TorusShape(d, r)
    lists, _ = neighbor_lists(shape)
    for x in range(shape.n):
        got = lists(x)
        assert type(got) is list and all(type(y) is int for y in got)
        if r == 2:
            assert got == [x ^ (1 << i) for i in range(d)]
        else:
            assert got == list(neighbors(shape, x))
