"""Partitions, Young diagrams, tableaux and ordered fillings.

Cells are addressed 1-based as (row, column).  A partition's diagram
contains (i, j) iff i <= height and j <= parts[i-1].  Ordered fillings
increase weakly along rows and columns and strictly along diagonal steps
(i, j) -> (i+1, j+1); their vertical/horizontal equality counts drive the
t-interpolation weights downstream.  They are counted and summed through
the layer table (one value at a time); the filling-by-filling enumeration
stays as an independent oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Any, Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers; may be empty."""

    parts: tuple[int, ...] = ()

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
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

    def cells(self) -> Iterator[tuple[int, int]]:
        """All diagram cells in row-major order."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def row_length(self, i: int) -> int:
        return self.parts[i - 1] if 1 <= i <= self.height else 0

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def corners(shape: Partition) -> set[tuple[int, int]]:
    """Cells with no neighbor to the right or below."""
    return {
        (i, j)
        for (i, j) in shape.cells()
        if not shape.contains(i, j + 1) and not shape.contains(i + 1, j)
    }


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

    def entry(self, i: int, j: int) -> Any:
        return self.rows[i - 1][j - 1]

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

    def cells(self) -> Iterator[tuple[int, int, Any]]:
        for i, row in enumerate(self.rows, start=1):
            for j, value in enumerate(row, start=1):
                yield (i, j, value)

    def to_json(self) -> dict:
        return {"shape": list(self.shape.parts), "rows": [list(r) for r in self.rows]}


@dataclass(frozen=True)
class OrderedFilling:
    """An ordered filling with its equality counts.

    v_count is the number of cells equal to the cell below, h_count the
    number of cells equal to the cell to the right.
    """

    tableau: Tableau
    v_count: int
    h_count: int


def _equality_counts(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    v = h = 0
    for i, row in enumerate(rows):
        below = rows[i + 1] if i + 1 < len(rows) else ()
        for j, value in enumerate(row):
            if j < len(below) and value == below[j]:
                v += 1
            if j + 1 < len(row) and value == row[j + 1]:
                h += 1
    return v, h


def iter_filling_rows(shape: Partition, N: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], int, int]]:
    """Yield (rows, v_count, h_count) for every ordered filling with entries
    in 1..N-1, in lexicographic order of the row-major entry sequence.

    Backtracking fills cells row-major; the lower bound at each cell comes
    from the left and upper neighbors, with a strict bound from the
    upper-left diagonal neighbor, so no candidate is ever filtered late.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    cells = list(shape.cells())
    if not cells:
        yield ((), 0, 0)
        return
    if N == 1:
        return
    rows: list[list[int]] = [[0] * p for p in shape.parts]

    def rec(idx: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], int, int]]:
        if idx == len(cells):
            frozen = tuple(tuple(r) for r in rows)
            v, h = _equality_counts(frozen)
            yield (frozen, v, h)
            return
        i, j = cells[idx]
        low = 1
        if j > 1:
            low = max(low, rows[i - 1][j - 2])
        if i > 1:
            low = max(low, rows[i - 2][j - 1])
            if j > 1:
                low = max(low, rows[i - 2][j - 2] + 1)
        for value in range(low, N):
            rows[i - 1][j - 1] = value
            yield from rec(idx + 1)
        rows[i - 1][j - 1] = 0

    yield from rec(0)


def enumerate_oyt(shape: Partition, N: int) -> Iterator[OrderedFilling]:
    """Stream the ordered fillings of a shape with entries below N."""
    for rows, v, h in iter_filling_rows(shape, N):
        yield OrderedFilling(Tableau(shape, rows), v, h)


def count_oyt(shape: Partition, N: int) -> int:
    """Number of ordered fillings with entries in 1..N-1: chains of N-1
    layers through the layer table, every layer counting one."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    table = layer_table(shape)
    counts = [0] * len(table.states)
    counts[0] = 1
    for _ in range(1, N):
        new = list(counts)  # the empty layer keeps every state
        for source, target, _layer in table.steps:
            new[target] += counts[source]
        counts = new
    return counts[-1]


def brute_force_count_oyt(shape: Partition, N: int) -> int:
    """Independent count: filter all unconstrained fillings.

    Exponential in the cell count; only used as an oracle on small shapes.
    """
    cells = list(shape.cells())
    if not cells:
        return 1
    total = 0
    for values in product(range(1, N), repeat=len(cells)):
        entries = dict(zip(cells, values))
        ok = True
        for (i, j), m in entries.items():
            if (i + 1, j) in entries and m > entries[(i + 1, j)]:
                ok = False
                break
            if (i, j + 1) in entries and m > entries[(i, j + 1)]:
                ok = False
                break
            if (i + 1, j + 1) in entries and m >= entries[(i + 1, j + 1)]:
                ok = False
                break
        total += ok
    return total


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


class Layer(NamedTuple):
    """The cells of an ordered filling that hold one value: a skew shape
    with no two cells (i, j), (i+1, j+1).  v and h count its vertical and
    horizontal pairs of cells."""

    cells: tuple[tuple[int, int], ...]
    v: int
    h: int


class LayerTable(NamedTuple):
    """Transfer matrix of the ordered fillings of one shape.

    In an ordered filling the cells holding entries <= M form a
    sub-partition mu_M of the shape, and the cells equal to M form the
    layer mu_M / mu_(M-1).  Conversely every chain of sub-partitions whose
    steps are layers is exactly one filling, and its equality counts are
    the sums of the layers' v and h.  This is the single-layer picture of
    build_bit_tableau, one value at a time.

    states are the sub-partitions padded with zeros to the shape's height,
    by size: states[0] is empty and states[-1] is the shape.  steps holds
    (source, target, layer) indices, one per nonempty layer; the empty
    layer, which keeps a state, is left implicit.  depth[s] is the fewest
    layers that complete the shape from state s: the most cells of
    shape/state on one diagonal, which must all differ.
    """

    states: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    layers: tuple[Layer, ...]
    steps: tuple[tuple[int, int, int], ...]


def layer_table(shape: Partition) -> LayerTable:
    """The shape's layer table, built once per shape."""
    return _layer_table(shape.parts)


@lru_cache(maxsize=128)
def _layer_table(parts: tuple[int, ...]) -> LayerTable:
    height = len(parts)
    # A baseline b is the column heights of a sub-partition; read it by rows.
    states = sorted(
        (tuple(sum(1 for x in b if x > i) for i in range(height))
         for b in admissible_baselines(Partition(parts))),
        key=sum,
    )
    index = {mu: s for s, mu in enumerate(states)}

    def depth(mu: tuple[int, ...]) -> int:
        diagonals = Counter(j - i for i, (m, p) in enumerate(zip(mu, parts)) for j in range(m, p))
        return max(diagonals.values(), default=0)

    def layers_from(mu: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Every nu with nu/mu a layer, row by row: a row below a nonempty
        layer row i may reach at most one column past mu_i, or a cell of
        it would sit diagonally below one of row i."""

        def rec(i: int, cap: int) -> Iterator[tuple[int, ...]]:
            if i == height:
                yield ()
                return
            for x in range(mu[i], min(cap, parts[i]) + 1):
                for rest in rec(i + 1, x if x == mu[i] else min(x, mu[i] + 1)):
                    yield (x,) + rest

        return rec(0, parts[0] if parts else 0)

    layers: list[Layer] = []
    layer_ids: dict[tuple[tuple[int, int], ...], int] = {}
    steps = []
    for source, mu in enumerate(states):
        for nu in layers_from(mu):
            if nu == mu:
                continue
            cells = tuple(
                (i + 1, j + 1) for i in range(height) for j in range(mu[i], nu[i])
            )
            layer = layer_ids.get(cells)
            if layer is None:
                # A vertical pair is a column of row i+1's segment that row
                # i's segment covers too; a horizontal pair is two adjacent
                # cells of one segment.
                v = sum(max(0, nu[i + 1] - mu[i]) for i in range(height - 1))
                h = sum(max(0, n - m - 1) for m, n in zip(mu, nu))
                layer = layer_ids[cells] = len(layers)
                layers.append(Layer(cells, v, h))
            steps.append((source, index[nu], layer))
    return LayerTable(
        tuple(states),
        tuple(depth(mu) for mu in states),
        tuple(layers),
        tuple(steps),
    )
