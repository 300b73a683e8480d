"""Partitions, Young diagrams, tableaux and ordered fillings.

Cells are addressed 1-based as (row, column).  A partition's diagram
contains (i, j) iff i <= height and j <= parts[i-1].  Ordered fillings
increase weakly along rows and columns and strictly along diagonal steps
(i, j) -> (i+1, j+1); their vertical/horizontal equality counts drive the
t-interpolation weights downstream.  One driver, ``walk``, counts and sums
them one value at a time over the shape's ``LayerGraph``, the layers out
of each sub-partition a filling can reach; its callers only say how a
state takes a step.  The filling-by-filling enumeration is the tests'
independent oracle, in ``tests/filling_enumeration.py``.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence


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
        return _conjugate(self.parts)

    def contains(self, i: int, j: int) -> bool:
        return 1 <= i <= self.height and 1 <= j <= self.parts[i - 1]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


@lru_cache(maxsize=1024)
def _conjugate(parts: tuple[int, ...]) -> Partition:
    """The conjugate partition of parts, made once per parts: partitions are
    immutable, so callers share it."""
    width = parts[0] if parts else 0
    return Partition(sum(1 for p in parts if p >= j) for j in range(1, width + 1))


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
    """Number of ordered fillings with entries in 1..N-1: the sum over l of
    s_l C(N-1, l), s_l the fillings that use exactly the values 1..l.

    An order-preserving relabelling of the values keeps a filling ordered
    and keeps its v and h, so each filling by l distinct values of 1..N-1
    is one of C(N-1, l) relabellings of one by exactly 1..l.  No filling
    uses more values than cells, so ``walk`` takes min(N-1, cells) steps,
    none idle, and reads s_l off step l: the walk does not grow with N."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    parts = shape.parts
    graph = layer_graph(parts)
    targets = graph.targets
    exact = [int(not parts)]  # s_0, s_1, ...

    def step(M, remaining, sources, new):
        for _, c, transitions in sources:
            for g, d, _ in transitions:
                if d > remaining:
                    break
                t = targets[g]
                if t is None:
                    t = graph.reach(g)
                new[t] = new.get(t, 0) + c
        exact.append(new.get(graph.ids.get(parts), 0))

    walk(graph, min(N, shape.size + 1), 1, step, idle=False)
    return sum(s * math.comb(N - 1, l) for l, s in enumerate(exact))


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
# are layers or idle (a value no cell holds) is exactly one filling, and its
# equality counts are the sums of the layers' vertical and horizontal pairs:
# the single-layer picture of build_bit_tableau, one value at a time.  A
# sub-partition is its parts padded with zeros to the shape's height; each
# shape's one LayerGraph holds these steps, and ``walk`` steps over it.


class LayerGraph:
    """The layers between one shape's sub-partitions, as integer ids.

    ``states`` maps each state id to its sub-partition and ``ids`` back;
    both hold only the states a walk has reached, starting with the empty
    one, ``start``.  A state's id is its cell count times ``_stride`` plus
    the order in which walks reached the states of that size, so a larger
    id never has fewer cells, and no transition goes to a smaller id.
    ``_stride`` = C(height + width, height) counts the sub-partitions of the
    height x width box, so no cell count has more states than that.
    ``depth[s]`` is ``_depth`` of state s.

    ``transitions(s)`` are the layers out of state s, as (group, depth,
    layer) triples sorted by depth: a walk with d values left stops at the
    first depth above d.  A group g is one ``groups[g]`` = (nu, v, h), the
    target with the layer's vertical and horizontal pairs; ``targets[g]``
    is nu's state id once a walk has stepped into it (``reach``), else
    None.  A layer l is its cells, ``layers[l]``, numbered as in
    ``_layers_from``; equal cell sets out of different states share one id.

    ``size`` counts the transitions built so far, the measure by which
    ``layer_graph``'s cache is bounded.

    Walks in several threads may share a graph: it only grows, under one
    lock, so no state gets two ids and no id is ever renumbered.
    """

    __slots__ = (
        "parts", "start", "ids", "states", "depth", "groups", "targets", "layers", "size",
        "_stride", "_sized", "_seen", "_transitions", "_layer_ids", "_lock",
    )

    def __init__(self, parts: tuple[int, ...]):
        self.parts = parts
        self._stride = math.comb(len(parts) + (parts[0] if parts else 0), len(parts))
        self.ids: dict[tuple[int, ...], int] = {}
        self.states: dict[int, tuple[int, ...]] = {}
        self.depth: dict[int, int] = {}
        self.groups: list[tuple] = []
        self.targets: list[int | None] = []
        self.layers: list[tuple[int, ...]] = []
        self.size = 0
        self._sized = [0] * (sum(parts) + 1)  # states reached so far, by size
        self._transitions: dict[int, tuple] = {}
        self._layer_ids: dict[tuple[int, ...], int] = {}
        self._lock = threading.Lock()
        empty = (0,) * len(parts)
        # The start and every target seen: (its depth, its group ids by (v, h)).
        self._seen = {empty: (_depth(parts, empty), {})}
        self.start = self._add(empty)

    def _add(self, mu: tuple[int, ...]) -> int:
        size = sum(mu)
        s = size * self._stride + self._sized[size]
        self._sized[size] += 1
        self.ids[mu] = s
        self.states[s] = mu
        self.depth[s] = self._seen[mu][0]
        return s

    def reach(self, g: int) -> int:
        """The state id of group g's target, given one if it has none."""
        with self._lock:
            s = self.targets[g]
            if s is None:
                nu = self.groups[g][0]
                s = self.ids.get(nu)
                if s is None:
                    s = self._add(nu)
                self.targets[g] = s
        return s

    def transitions(self, s: int) -> tuple:
        """State s's (group, depth, layer) triples, by ascending depth."""
        built = self._transitions.get(s)
        if built is None:
            with self._lock:
                built = self._transitions.get(s)
                if built is None:
                    built = self._transitions[s] = self._build(s)
                    self.size += len(built)
        return built

    def _build(self, s: int) -> tuple:
        parts, seen, groups, targets = self.parts, self._seen, self.groups, self.targets
        layer_ids, layers = self._layer_ids, self.layers
        out = []
        for nu, v, h, cells in _layers_from(parts, self.states[s]):
            target = seen.get(nu)
            if target is None:
                target = seen[nu] = (_depth(parts, nu), {})
            depth, group_ids = target
            g = group_ids.get((v, h))
            if g is None:
                g = group_ids[v, h] = len(groups)
                groups.append((nu, v, h))
                targets.append(None)
            layer = layer_ids.get(cells)
            if layer is None:
                layer = layer_ids[cells] = len(layers)
                layers.append(cells)
            out.append((g, depth, layer))
        out.sort(key=itemgetter(1))
        return tuple(out)


# The transitions one ``_SizedCache`` may hold in all.
_CACHE_TRANSITIONS = 1 << 18


class _SizedCache:
    """Values built from their keys, kept while the transitions they hold,
    ``size(value)``, sum to at most ``bound`` (``_CACHE_TRANSITIONS``): past
    it, the least recently used values are dropped, and built again on their
    next lookup.  A value may still grow after it is returned (a
    ``LayerGraph`` does, as walks reach its states), so each lookup measures
    again the value it returns and the one the lookup before it returned;
    the value it returns is kept even when it alone passes the bound."""

    def __init__(self, build: Callable[[Any], Any], size: Callable[[Any], int]):
        self.bound = _CACHE_TRANSITIONS
        self._build, self._size = build, size
        self._entries: dict[Any, list] = {}  # key -> [value, its size when last measured]
        self._total = 0
        self._last = None
        self._lock = threading.Lock()

    def __call__(self, key: Any) -> Any:
        with self._lock:
            entries = self._entries
            last = entries.get(self._last)
            if last is not None:
                self._measure(last)
            entry = entries.pop(key, None)  # put back at the end, the most recent
            if entry is None:
                entry = [self._build(key), 0]
            entries[key] = entry
            self._measure(entry)
            while self._total > self.bound and len(entries) > 1:
                self._total -= entries.pop(next(iter(entries)))[1]
            self._last = key
            return entry[0]

    def _measure(self, entry: list) -> None:
        size = self._size(entry[0])
        self._total += size - entry[1]
        entry[1] = size

    def cache_clear(self) -> None:
        """Drop every value, as ``functools.lru_cache`` does."""
        with self._lock:
            self._entries.clear()
            self._total = 0

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def held(self) -> int:
        """The transitions the values held now have, measured afresh."""
        return sum(self._size(value) for value, _ in self._entries.values())


# The one ``LayerGraph`` of the shape with these parts.
layer_graph = _SizedCache(LayerGraph, lambda graph: graph.size)


def walk(graph: LayerGraph, N: int, one: Any, step: Callable, idle: bool = True) -> Any:
    """The transfer walk of the fillings by 1..N-1 over a shape's
    ``LayerGraph`` (the caller's ``layer_graph`` lookup, so the walk makes
    none of its own), from ``one`` at the empty state: the full shape's
    state after value N-1, or None if no chain reaches it.

    For M = 1..N-1 it calls step(M, remaining, sources, new): ``remaining``
    = N-1-M values are left; ``sources`` are the live (id, state,
    transitions) as the walk reached them; the step adds their layers into
    ``new`` (by state id), each source up to its first transition deeper
    than ``remaining``.  With ``idle`` a state may skip M: ``new`` starts
    with each live state, the same object, so a step that adds into states
    in place reads the sources by descending id, which no transition lowers."""
    depth = graph.depth
    if depth[graph.start] >= N:  # a diagonal longer than the N-1 values: no filling
        return None
    by_state = {graph.start: one}
    for M in range(1, N):
        remaining = N - 1 - M  # values left after M: deeper states are dead
        sources = [(s, x, graph.transitions(s)) for s, x in by_state.items()]
        new = {s: x for s, x in by_state.items() if depth[s] <= remaining} if idle else {}
        step(M, remaining, sources, new)
        by_state = new
    return by_state.get(graph.ids.get(graph.parts))


def _depth(parts: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The fewest layers that complete the shape from mu: the most cells of
    shape/mu on one diagonal, which must all differ."""
    diagonals = Counter(j - i for i, (m, p) in enumerate(zip(mu, parts)) for j in range(m, p))
    return max(diagonals.values(), default=0)


def _layers_from(parts: tuple[int, ...], mu: tuple[int, ...]) -> list:
    """Every nonempty layer nu/mu as (nu, v, h, cells), with v and h its
    vertical and horizontal pairs and its cells numbered 0, 1, ... in
    row-major order over the shape.

    Built row by row, over the partial layers of the rows so far: a row
    below a nonempty layer row i may reach at most one column past mu_i, or
    a cell of it would sit diagonally below one of row i.  Row i's segment
    mu_i..x holds x - mu_i - 1 horizontal pairs, and x - mu_(i-1) vertical
    ones with the segment above it."""
    # (nu, v, h, cells, cap): cap is the last column the next row may reach.
    partial = [((), 0, 0, (), parts[0] if parts else 0)]
    start = 0  # the number of cell (i, 0)
    for i, (m, p) in enumerate(zip(mu, parts)):
        above = mu[i - 1] if i else p  # the first row has no pairs above it
        grown = []
        for nu, v, h, cells, cap in partial:
            grown.append((nu + (m,), v, h, cells, m))
            for x in range(m + 1, min(cap, p) + 1):
                grown.append((
                    nu + (x,),
                    v + (x - above if x > above else 0),
                    h + x - m - 1,
                    cells + tuple(range(start + m, start + x)),
                    m + 1,
                ))
        partial = grown
        start += p
    return [(nu, v, h, cells) for nu, v, h, cells, _ in partial if cells]
