"""Geometry of the torus {1..r}^d: vertex indexing and neighbor structure.

Vertices are stored as flat indices in [0, r^d) using little-endian mixed
radix: index = sum_i (x_i - 1) * r^(i-1).  Neighbor arithmetic works off
per-dimension strides, so no adjacency table is required; a flat table is
cached lazily for small tori.

The dynamics update counts through neighbor_lists, which gives the
*distinct* neighbors of a vertex and the number of neighbor slots w each
one fills.  On r = 2 the up and down neighbor along dimension i coincide,
so the d distinct neighbors are x ^ (1 << i), each with weight 2, computed
by XOR with no table.  On r >= 3 all 2d neighbors are distinct (weight 1)
and come from the cached table, or from neighbors() past its size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_VERTICES = 2**31  # index-safety guard
_TABLE_ENTRY_LIMIT = 2_000_000  # cache neighbor table only below this n*2d


@dataclass(frozen=True)
class TorusShape:
    """The pair (d, r) describing the torus, with derived counts."""

    d: int
    r: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.r < 2:
            raise ValueError(f"side length must be >= 2, got {self.r}")
        if self.r**self.d > MAX_VERTICES:
            raise ValueError(f"r^d = {self.r}**{self.d} exceeds index capacity {MAX_VERTICES}")

    @property
    def n(self) -> int:
        return self.r**self.d

    @property
    def degree(self) -> int:
        return 2 * self.d

    @cached_property
    def strides(self) -> tuple[int, ...]:
        # cached in the instance __dict__; eq and hash use only (d, r)
        return tuple(self.r**i for i in range(self.d))

    def neighbor_table(self):
        """(n, 2d) int64 array, row x = neighbors(x); None when too large to cache."""
        cached = _TABLE_CACHE.get((self.d, self.r))
        if cached is not None:
            return cached
        if self.n * self.degree > _TABLE_ENTRY_LIMIT:
            return None
        table = np.array([neighbors(self, x) for x in range(self.n)], dtype=np.int64)
        _TABLE_CACHE[(self.d, self.r)] = table
        return table


_TABLE_CACHE: dict = {}


def encode(coords, shape: TorusShape) -> int:
    """Flat index of a coordinate tuple (each entry in {1..r})."""
    if len(coords) != shape.d:
        raise ValueError(f"expected {shape.d} coordinates, got {len(coords)}")
    idx = 0
    for c, s in zip(coords, shape.strides):
        if not 1 <= c <= shape.r:
            raise ValueError(f"coordinate {c} out of range [1, {shape.r}]")
        idx += (c - 1) * s
    return idx


def decode(index: int, shape: TorusShape) -> tuple[int, ...]:
    """Coordinate tuple of a flat index."""
    if not 0 <= index < shape.n:
        raise ValueError(f"index {index} out of range [0, {shape.n})")
    coords = []
    for _ in range(shape.d):
        coords.append(index % shape.r + 1)
        index //= shape.r
    return tuple(coords)


def neighbors(shape: TorusShape, x: int) -> tuple[int, ...]:
    """The 2d neighbors of x, with multiplicity (r=2 repeats each one).

    Order: (up_1, down_1, up_2, down_2, ...).  Degree is exactly 2d for
    every r >= 2; for r=2 the up and down neighbor coincide per dimension.
    """
    r = shape.r
    out = []
    rem = x
    for s in shape.strides:
        c = rem % r  # zero-based coordinate
        rem //= r
        up = x + s if c < r - 1 else x - (r - 1) * s
        down = x - s if c > 0 else x + (r - 1) * s
        out.append(up)
        out.append(down)
    return tuple(out)


def slot_weight(r: int) -> int:
    """Neighbor slots filled by each distinct neighbor of a vertex on side r:
    2 on r = 2, where the up and down neighbor coincide, else 1."""
    return 2 if r == 2 else 1


def neighbor_lists(shape: TorusShape):
    """(nbrs, w): nbrs(x) is a list of the distinct neighbors of x, in
    neighbors() order, and each of them fills w = slot_weight(r) of x's 2d
    neighbor slots.

    Counts move by w per distinct neighbor, so adding w to the count of
    each vertex in nbrs(x) equals one +1 per slot.
    """
    w = slot_weight(shape.r)
    if shape.r == 2:
        masks = [1 << i for i in range(shape.d)]
        return (lambda x: [x ^ m for m in masks]), w
    table = shape.neighbor_table()
    if table is not None:
        return (lambda x: table[x].tolist()), w
    return (lambda x: list(neighbors(shape, x))), w


def shared_neighbors(shape: TorusShape, x: int, y: int) -> frozenset[int]:
    """Set of vertices adjacent to both x and y (the support, no multiplicity)."""
    return frozenset(neighbors(shape, x)) & frozenset(neighbors(shape, y))


def two_hop_set(shape: TorusShape, x: int) -> frozenset[int]:
    """Vertices z != x sharing at least one neighbor with x.

    Computed by exhaustive enumeration of neighbors-of-neighbors.  For
    r >= 5 the cardinality is 2d^2; for r in {2,3,4} wraparound collapses
    some of those vertices and the enumerated count is returned as-is.
    """
    out = set()
    for y in neighbors(shape, x):
        out.update(neighbors(shape, y))
    out.discard(x)
    return frozenset(out)
