"""Exhaustive enumeration of ordered fillings.

The test-side oracle for the layer walk (``shapes.count_oyt`` and
``values.schur_value``): it builds every filling cell by cell, or filters
every unconstrained filling, straight from the definition in the ``shapes``
module docstring, and shares no code with the transfer matrix it checks.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Sequence

from schurzeta.rings import TPoly
from schurzeta.shapes import Partition, Tableau


def cells(shape: Partition) -> Iterator[tuple[int, int]]:
    """All diagram cells in row-major order."""
    for i, p in enumerate(shape.parts, start=1):
        for j in range(1, p + 1):
            yield (i, j)


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
    order = list(cells(shape))
    if not order:
        yield ((), 0, 0)
        return
    if N == 1:
        return
    rows: list[list[int]] = [[0] * p for p in shape.parts]

    def rec(idx: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], int, int]]:
        if idx == len(order):
            frozen = tuple(tuple(r) for r in rows)
            v, h = _equality_counts(frozen)
            yield (frozen, v, h)
            return
        i, j = order[idx]
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


def filling_sum_oracle(tab: Tableau, N: int, cmap) -> TPoly:
    """The defining Schur sum, filling by filling: every ordered filling adds
    the product of f(label, entry) times t^v (1-t)^h."""
    ring = cmap.ring
    acc = [ring.zero] * max(tab.shape.size, 1)
    for rows, v, h in iter_filling_rows(tab.shape, N):
        prod = ring.one
        for label_row, row in zip(tab.rows, rows):
            for label, m in zip(label_row, row):
                prod = prod * cmap(label, m)
        for s in range(h + 1):
            acc[v + s] = acc[v + s] + prod * ((-1) ** s * math.comb(h, s))
    return TPoly(ring, acc)


def brute_force_count_oyt(shape: Partition, N: int) -> int:
    """Independent count: filter all unconstrained fillings.

    Exponential in the cell count; only used as an oracle on small shapes.
    """
    order = list(cells(shape))
    if not order:
        return 1
    total = 0
    for values in product(range(1, N), repeat=len(order)):
        entries = dict(zip(order, values))
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
