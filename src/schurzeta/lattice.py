"""The two-colored lattice graph whose weighted path sums produce
interpolated values, plus vertex-disjoint path-system machinery.

Geometry: every integer position (x, y) with y >= 0 carries a white and a
black vertex.  From height y >= 1 the outgoing edges are

    kind 1   white(x, y) -> white(x, y-1)      weight 1
    kind 2   white(x, y) -> white(x+1, y-1)    weight f(a_x, y)
    kind 3   white(x, y) -> black(x+1, y)      weight t * f(a_x, y)
    kind 4   black(x, y) -> white(x+1, y-1)    weight f(a_x, y)
    kind 5   black(x, y) -> black(x+1, y)      weight t * f(a_x, y)

where a_x is the diagonal weight label of column x and f the coefficient
map.  Columns never decrease and heights never increase along an edge, so
every path family below is finite and the graph is acyclic.  White and
black vertices at the same position are distinct for vertex-disjointness.

Each path weight is a single monomial c * t^d: horizontal edges contribute
the t factors, so d counts them.  The signed sums over vertex-disjoint path
systems computed here equal determinants of pairwise path-weight matrices
(the Lindstrom-Gessel-Viennot identity), which is what the verification
commands check.

A path leaves every column between its endpoints exactly once, so all the
terms of a path sum or a signed sum multiply the same labels, and over the
rational map they share one denominator: both run over the map's integer
form and divide once (see ``values``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

from .rings import Element, TPoly, ring_determinant, PolyRing
from .shapes import BitStats, BitTableau, Partition, bit_tableau_stats, build_bit_tableau
from .values import CoefficientMap, DiagonalWeights, _evaluate


class Vertex(NamedTuple):
    x: int
    y: int
    black: bool

    def __repr__(self):
        color = "black" if self.black else "white"
        return f"{color}({self.x},{self.y})"


def white(x: int, y: int) -> Vertex:
    return Vertex(x, y, False)


def black(x: int, y: int) -> Vertex:
    return Vertex(x, y, True)


class LatticePath(NamedTuple):
    vertices: tuple[Vertex, ...]
    weight: TPoly


@dataclass(frozen=True)
class PathSystem:
    """Pairwise vertex-disjoint paths sources[i] -> sinks[sigma[i]]."""

    sigma: tuple[int, ...]
    paths: tuple[LatticePath, ...]
    sign: int
    weight: TPoly


def edge_kind(tail: Vertex, head: Vertex) -> int:
    """Classify an edge (1..5) from its endpoints; raises for non-edges."""
    dx, dy = head.x - tail.x, head.y - tail.y
    if tail.y < 1:
        raise ValueError(f"no outgoing edges at height {tail.y}")
    if not tail.black and not head.black:
        if dx == 0 and dy == -1:
            return 1
        if dx == 1 and dy == -1:
            return 2
    elif not tail.black and head.black:
        if dx == 1 and dy == 0:
            return 3
    elif tail.black and not head.black:
        if dx == 1 and dy == -1:
            return 4
    else:
        if dx == 1 and dy == 0:
            return 5
    raise ValueError(f"{tail} -> {head} is not a lattice edge")


def edge_weight(
    tail: Vertex, head: Vertex, cmap: CoefficientMap, weights: DiagonalWeights
) -> tuple[Element, int]:
    """Weight of one edge as (coefficient, t-degree)."""
    kind = edge_kind(tail, head)
    if kind == 1:
        return (cmap.ring.one, 0)
    return (cmap(weights[tail.x], tail.y), 1 if kind in (3, 5) else 0)


def path_from_edge_kinds(
    start: Vertex, kinds: Sequence[int], cmap: CoefficientMap, weights: DiagonalWeights
) -> LatticePath:
    """Build a path by following edge kinds from a start vertex."""
    steps = {
        1: (False, 0, -1, False),
        2: (False, 1, -1, False),
        3: (False, 1, 0, True),
        4: (True, 1, -1, False),
        5: (True, 1, 0, True),
    }
    vertices = [start]
    coeff = cmap.ring.one
    tdeg = 0
    current = start
    for kind in kinds:
        from_black, dx, dy, to_black = steps[int(kind)]
        if current.black != from_black:
            raise ValueError(f"edge kind {kind} cannot leave {current}")
        head = Vertex(current.x + dx, current.y + dy, to_black)
        c, d = edge_weight(current, head, cmap, weights)
        coeff = coeff * c
        tdeg += d
        vertices.append(head)
        current = head
    return LatticePath(tuple(vertices), TPoly.monomial(cmap.ring, coeff, tdeg))


def _successors(
    v: Vertex, cmap: CoefficientMap, weights: DiagonalWeights, x_max: int
) -> tuple[tuple[Vertex, Element, int], ...]:
    """Outgoing edges staying in columns <= x_max.

    The column bound is applied before the weight lookup so the diagonal
    window only ever needs the columns a path can actually leave from.
    """
    if v.y < 1:
        return ()
    out: list[tuple[Vertex, Element, int]] = []
    if not v.black:
        out.append((Vertex(v.x, v.y - 1, False), cmap.ring.one, 0))
    if v.x + 1 <= x_max:
        f = cmap(weights[v.x], v.y)
        out.append((Vertex(v.x + 1, v.y - 1, False), f, 0))
        out.append((Vertex(v.x + 1, v.y, True), f, 1))
    return tuple(out)


def path_weight_sum(
    A: Vertex, B: Vertex, cmap: CoefficientMap, weights: DiagonalWeights
) -> TPoly:
    """Sum of weights of all paths A -> B (dynamic programming).

    Unreachable targets give the zero polynomial, not an error.
    """
    labels = _crossed_labels((A,), (B,), weights)
    return _evaluate(cmap, A.y, labels, lambda c: _path_weight_sum(A, B, c, weights))


def _path_weight_sum(
    A: Vertex, B: Vertex, cmap: CoefficientMap, weights: DiagonalWeights
) -> TPoly:
    ring = cmap.ring
    one = TPoly.one(ring)
    zero = TPoly.zero(ring)
    memo: dict[Vertex, TPoly] = {}

    def total(v: Vertex) -> TPoly:
        if v == B:
            return one
        if v.x > B.x or v.y < B.y:
            return zero
        cached = memo.get(v)
        if cached is not None:
            return cached
        acc = zero
        for head, coeff, tdeg in _successors(v, cmap, weights, B.x):
            if head.y < B.y:
                continue
            sub = total(head)
            if sub:
                acc = acc + sub.scale(coeff).shifted(tdeg)
        memo[v] = acc
        return acc

    return total(A)


def _crossed_labels(
    sources: Sequence[Vertex], sinks: Sequence[Vertex], weights: DiagonalWeights
) -> list:
    """The labels every path system sources -> sinks multiplies: column x is
    left by #{sources with x-coordinate <= x} - #{sinks with x-coordinate
    <= x} paths, whatever the pairing.  Columns outside the window are
    skipped; a path that needs one fails on its own lookup."""
    xs = [v.x for v in (*sources, *sinks)]
    labels = []
    for x in range(min(xs, default=0), max(xs, default=0)):
        crossing = sum(v.x <= x for v in sources) - sum(v.x <= x for v in sinks)
        if crossing > 0 and x in weights:
            labels += [weights[x]] * crossing
    return labels


def _iter_paths(
    A: Vertex,
    B: Vertex,
    cmap: CoefficientMap,
    weights: DiagonalWeights,
    blocked: frozenset[Vertex],
) -> Iterator[tuple[tuple[Vertex, ...], Element, int]]:
    """All paths A -> B avoiding blocked vertices, as (vertices, coeff, t-degree)."""
    if A in blocked or B in blocked or A.x > B.x or A.y < B.y:
        return
    path = [A]

    def rec(v: Vertex, coeff: Element, tdeg: int):
        if v == B:
            yield (tuple(path), coeff, tdeg)
            return
        for head, c, d in _successors(v, cmap, weights, B.x):
            if head.y < B.y or head in blocked:
                continue
            path.append(head)
            yield from rec(head, coeff * c, tdeg + d)
            path.pop()

    yield from rec(A, cmap.ring.one, 0)


def _permutation_sign(sigma: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


def enumerate_path_systems(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> Iterator[PathSystem]:
    """Every vertex-disjoint path system between the two vertex lists,
    over every permutation; exhaustive and duplicate-free."""
    sources = tuple(sources)
    sinks = tuple(sinks)
    if len(sources) != len(sinks):
        raise ValueError("need equally many sources and sinks")
    n = len(sources)
    if n == 0:
        raise ValueError("need at least one source/sink pair")
    ring = cmap.ring

    for sigma in permutations(range(n)):
        # A path can never move left or up.
        if any(
            sinks[sigma[i]].x < sources[i].x or sinks[sigma[i]].y > sources[i].y
            for i in range(n)
        ):
            continue
        sign = _permutation_sign(sigma)
        chosen: list[tuple[tuple[Vertex, ...], Element, int]] = []

        def assign(i: int, blocked: frozenset[Vertex]) -> Iterator[PathSystem]:
            if i == n:
                coeff = ring.one
                tdeg = 0
                paths = []
                for verts, c, d in chosen:
                    coeff = coeff * c
                    tdeg += d
                    paths.append(LatticePath(verts, TPoly.monomial(ring, c, d)))
                yield PathSystem(
                    sigma, tuple(paths), sign, TPoly.monomial(ring, coeff, tdeg)
                )
                return
            for candidate in _iter_paths(
                sources[i], sinks[sigma[i]], cmap, weights, blocked
            ):
                chosen.append(candidate)
                yield from assign(i + 1, blocked | frozenset(candidate[0]))
                chosen.pop()

        yield from assign(0, frozenset())


def lgv_signed_sum(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> TPoly:
    """Sum of sign * weight over all vertex-disjoint path systems."""
    top = max((v.y for v in sources), default=0)
    labels = _crossed_labels(sources, sinks, weights)
    return _evaluate(cmap, top, labels, lambda c: _lgv_signed_sum(sources, sinks, c, weights))


def _lgv_signed_sum(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> TPoly:
    if len(sources) == 0 and len(sinks) == 0:
        return TPoly.one(cmap.ring)
    acc = TPoly.zero(cmap.ring)
    for system in enumerate_path_systems(sources, sinks, cmap, weights):
        acc = acc + (system.weight if system.sign > 0 else -system.weight)
    return acc


def path_matrix(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> list[list[TPoly]]:
    """The matrix of pairwise path-weight sums w(sources[i], sinks[j])."""
    return [[path_weight_sum(a, b, cmap, weights) for b in sinks] for a in sources]


def lgv_determinant(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> TPoly:
    """det of the pairwise path-weight matrix; the other side of the
    signed-sum identity, computed by an independent route."""
    return ring_determinant(path_matrix(sources, sinks, cmap, weights), PolyRing(cmap.ring))


def schur_path_endpoints(shape: Partition, N: int) -> tuple[list[Vertex], list[Vertex]]:
    """Sources at height N-1 offset left by the conjugate parts; sinks at
    height 0 in columns 1..width."""
    conj = shape.conjugate().parts
    sources = [white(j - conj[j - 1], N - 1) for j in range(1, shape.width + 1)]
    sinks = [white(j, 0) for j in range(1, shape.width + 1)]
    return sources, sinks


def schur_scenario_sum(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> TPoly:
    """Signed path-system sum for the endpoints encoding a shape; equals the
    Schur value of the diagonal-constant tableau."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if shape.width == 0:
        return TPoly.one(cmap.ring)
    sources, sinks = schur_path_endpoints(shape, N)
    return lgv_signed_sum(sources, sinks, cmap, weights)


def layer_endpoints(
    shape: Partition, b: Sequence[int], M: int
) -> tuple[list[Vertex], list[Vertex]]:
    """Sources at height M offset by the conjugate parts; sinks one level
    down, offset by the baseline b."""
    conj = shape.conjugate().parts
    sources = [white(j - conj[j - 1], M) for j in range(1, shape.width + 1)]
    sinks = [white(j - b[j - 1], M - 1) for j in range(1, shape.width + 1)]
    return sources, sinks


@dataclass(frozen=True)
class LayerReport:
    """Both sides of the single-layer identity for one (shape, b, M)."""

    shape: Partition
    b: tuple[int, ...]
    M: int
    bit_tableau: BitTableau
    stats: BitStats
    predicted: TPoly
    signed_sum: TPoly
    equal: bool


def layer_check(
    shape: Partition,
    b: Sequence[int],
    M: int,
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> LayerReport:
    """Check the one-layer step: the signed path-system sum from height M to
    height M-1 against its closed form.

    The closed form is the product of f(a_(j-i), M) over the one-cells of
    the zero-one tableau, times t^v1 (1-t)^h1, when no two diagonal
    neighbors are both one; otherwise zero.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    bt = build_bit_tableau(shape, b)
    stats = bit_tableau_stats(bt)
    ring = cmap.ring

    if stats.one_ordered:
        prod = ring.one
        for i, row in enumerate(bt.rows, start=1):
            for j, f in enumerate(row, start=1):
                if f:
                    prod = prod * cmap(weights[j - i], M)
        one_minus_t = TPoly(ring, (ring.one, -ring.one))
        predicted = TPoly.monomial(ring, prod, stats.v1) * one_minus_t**stats.h1
    else:
        predicted = TPoly.zero(ring)

    if shape.width == 0:
        signed = TPoly.one(ring)
    else:
        sources, sinks = layer_endpoints(shape, bt.b, M)
        signed = lgv_signed_sum(sources, sinks, cmap, weights)

    return LayerReport(shape, bt.b, M, bt, stats, predicted, signed, signed == predicted)
