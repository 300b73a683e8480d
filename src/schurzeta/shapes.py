"""Partitions, Young diagrams, tableaux and ordered fillings.

Cells are addressed 1-based as (row, column).  A partition's diagram
contains (i, j) iff i <= height and j <= parts[i-1].  Ordered fillings
increase weakly along rows and columns and strictly along diagonal steps
(i, j) -> (i+1, j+1); their vertical/horizontal equality counts drive the
t-interpolation weights downstream.  They are counted and summed one value
at a time, over the layers out of each sub-partition a filling can reach
(``_layers_from``); the filling-by-filling enumeration is the tests'
independent oracle, in ``tests/filling_enumeration.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers; may be empty."""

    parts: tuple[int, ...] = ()

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(parts)
        for p in ps:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"partition parts must be integers: {p!r}")
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"partition parts must be weakly decreasing: {ps}")
        if ps and ps[-1] < 1:
            raise ValueError(f"partition parts must be positive: {ps}")
        object.__setattr__(self, "parts", ps)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    @property
    def width(self) -> int:
        return self.parts[0] if self.parts else 0

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: part j counts rows of length >= j."""
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.width + 1)
        )

    def contains(self, i: int, j: int) -> bool:
        return 1 <= i <= self.height and 1 <= j <= self.parts[i - 1]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographically
    decreasing order."""
    if n < 0:
        return
    if max_part is None:
        max_part = n

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, p, prefix + (p,))

    yield from rec(n, max_part, ())


def partitions_up_to(max_cells: int, include_empty: bool = True) -> Iterator[Partition]:
    """All partitions with at most max_cells cells."""
    start = 0 if include_empty else 1
    for n in range(start, max_cells + 1):
        yield from partitions_of(n)


@dataclass(frozen=True)
class Tableau:
    """A shape together with one entry per cell, stored row-major."""

    shape: Partition
    rows: tuple[tuple[Any, ...], ...]

    def __init__(self, shape: Partition, rows: Iterable[Iterable[Any]]):
        rs = tuple(tuple(r) for r in rows)
        if tuple(len(r) for r in rs) != shape.parts:
            raise ValueError(f"row lengths {[len(r) for r in rs]} do not match shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rs)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Any]]) -> "Tableau":
        rs = [tuple(r) for r in rows]
        return cls(Partition(len(r) for r in rs), rs)

    def conjugate(self) -> "Tableau":
        """Transpose: entry (i, j) of the result is entry (j, i) of self."""
        conj = self.shape.conjugate()
        return Tableau(
            conj,
            (
                tuple(self.rows[i - 1][j - 1] for i in range(1, conj.parts[j - 1] + 1))
                for j in range(1, conj.height + 1)
            ),
        )

    def to_json(self) -> dict:
        return {"shape": list(self.shape.parts), "rows": [list(r) for r in self.rows]}


def count_oyt(shape: Partition, N: int) -> int:
    """Number of ordered fillings with entries in 1..N-1: chains of N-1
    layers from the empty sub-partition, every layer counting one."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    parts = shape.parts
    counts = {(0,) * len(parts): 1}
    for M in range(1, N):
        remaining = N - 1 - M  # values left after M: deeper states are dead
        new = {mu: c for mu, c in counts.items() if _depth(parts, mu) <= remaining}
        for mu, c in counts.items():
            for (nu, _, _), depth, _ in _layers_from(parts, mu):
                if depth <= remaining:
                    new[nu] = new.get(nu, 0) + c
        counts = new
    return counts.get(parts, 0)


@dataclass(frozen=True)
class BitTableau:
    """Zero-one tableau built from a shape and a column baseline b.

    Column j holds ones exactly in the rows below the baseline, i.e. in the
    conjugate-part-j's bottom (conjugate[j] - b[j]) cells.
    """

    shape: Partition
    b: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


class BitStats(NamedTuple):
    one_ordered: bool
    v1: int
    h1: int


def build_bit_tableau(shape: Partition, b: Sequence[int]) -> BitTableau:
    """Place ones at the cells (i, j) with i > b[j].

    Requires b weakly decreasing with 0 <= b[j] <= conjugate part j.
    """
    bs = tuple(int(x) for x in b)
    conj = shape.conjugate().parts
    if len(bs) != shape.width:
        raise ValueError(f"baseline needs one entry per column: got {len(bs)}, want {shape.width}")
    for x, y in zip(bs, bs[1:]):
        if x < y:
            raise ValueError(f"baseline must be weakly decreasing: {bs}")
    for j, x in enumerate(bs):
        if x < 0 or x > conj[j]:
            raise ValueError(f"baseline entry {x} outside [0, {conj[j]}] in column {j + 1}")
    rows = tuple(
        tuple(1 if i > bs[j - 1] else 0 for j in range(1, p + 1))
        for i, p in enumerate(shape.parts, start=1)
    )
    return BitTableau(shape, bs, rows)


def bit_tableau_stats(bt: BitTableau) -> BitStats:
    """Whether no two diagonal neighbors are both one, and the counts of
    vertical / horizontal pairs of ones."""
    rows = bt.rows
    shape = bt.shape
    one_ordered = True
    v1 = h1 = 0
    for i, row in enumerate(rows, start=1):
        for j, f in enumerate(row, start=1):
            if not f:
                continue
            if shape.contains(i + 1, j) and rows[i][j - 1]:
                v1 += 1
            if shape.contains(i, j + 1) and row[j]:
                h1 += 1
            if shape.contains(i + 1, j + 1) and rows[i][j]:
                one_ordered = False
    return BitStats(one_ordered, v1, h1)


def admissible_baselines(shape: Partition) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing b with 0 <= b[j] <= conjugate part j."""
    conj = shape.conjugate().parts
    width = shape.width
    if width == 0:
        yield ()
        return

    def rec(j: int, cap: int, prefix: tuple[int, ...]):
        if j == width:
            yield prefix
            return
        for value in range(min(cap, conj[j]), -1, -1):
            yield from rec(j + 1, value, prefix + (value,))

    yield from rec(0, conj[0], ())


# The transfer matrix of the ordered fillings.  In an ordered filling the
# cells holding entries <= M form a sub-partition mu_M of the shape, and
# the cells equal to M form the layer mu_M / mu_(M-1), with no two cells
# (i, j), (i+1, j+1).  Conversely every chain of sub-partitions whose steps
# are layers is exactly one filling, and its equality counts are the sums
# of the layers' vertical and horizontal pairs: the single-layer picture of
# build_bit_tableau, one value at a time.  A sub-partition is its parts
# padded with zeros to the shape's height; its transitions are built when
# a walk first reaches it, and kept.


@lru_cache(maxsize=1 << 16)
def _depth(parts: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The fewest layers that complete the shape from mu: the most cells of
    shape/mu on one diagonal, which must all differ."""
    diagonals = Counter(j - i for i, (m, p) in enumerate(zip(mu, parts)) for j in range(m, p))
    return max(diagonals.values(), default=0)


@lru_cache(maxsize=1 << 16)
def _layers_from(parts: tuple[int, ...], mu: tuple[int, ...]) -> tuple:
    """Every nonempty layer nu/mu as ((nu, v, h), depth of nu, cells), with
    v and h its vertical and horizontal pairs and its cells numbered 0, 1,
    ... in row-major order over the shape.

    Built row by row: a row below a nonempty layer row i may reach at most
    one column past mu_i, or a cell of it would sit diagonally below one of
    row i.  Row i's segment mu_i..x holds x - mu_i - 1 horizontal pairs, and
    x - mu_(i-1) vertical ones with the segment above it."""
    height = len(parts)
    starts = [sum(parts[:i]) for i in range(height)]  # the number of cell (i, 0)
    layers = []

    def rec(i: int, cap: int, nu: tuple, v: int, h: int, cells: tuple) -> None:
        if i == height:
            if cells:
                layers.append(((nu, v, h), _depth(parts, nu), cells))
            return
        m = mu[i]
        for x in range(m, min(cap, parts[i]) + 1):
            rec(
                i + 1,
                x if x == m else min(x, m + 1),
                nu + (x,),
                v + max(0, x - mu[i - 1]) if i else v,
                h + max(0, x - m - 1),
                cells + tuple(range(starts[i] + m, starts[i] + x)),
            )

    rec(0, parts[0] if parts else 0, (), 0, 0, ())
    return tuple(layers)
