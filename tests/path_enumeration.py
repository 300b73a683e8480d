"""Exhaustive enumeration of lattice paths and vertex-disjoint path systems.

The test-side oracle for ``lattice._scaled_lgv_signed_sum`` and
``lattice._scaled_path_matrix``: it builds every path edge by edge and
every system over every permutation, straight from the edge list in the
``lattice`` module docstring, and shares no code with the column sweep or
the path sums it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, NamedTuple, Sequence

from schurzeta.lattice import Vertex
from schurzeta.rings import Element, TPoly
from schurzeta.values import CoefficientMap, DiagonalWeights


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


# Edge kind -> (tail is black, dx, dy, head is black).
STEPS = {
    1: (False, 0, -1, False),
    2: (False, 1, -1, False),
    3: (False, 1, 0, True),
    4: (True, 1, -1, False),
    5: (True, 1, 0, True),
}


def edge_kind(tail: Vertex, head: Vertex) -> int:
    """Classify an edge (1..5) from its endpoints; raises for non-edges."""
    if tail.y < 1:
        raise ValueError(f"no outgoing edges at height {tail.y}")
    step = (tail.black, head.x - tail.x, head.y - tail.y, head.black)
    for kind, known in STEPS.items():
        if step == known:
            return kind
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
    vertices = [start]
    coeff = cmap.ring.one
    tdeg = 0
    current = start
    for kind in kinds:
        from_black, dx, dy, to_black = STEPS[int(kind)]
        if current.black != from_black:
            raise ValueError(f"edge kind {kind} cannot leave {current}")
        head = Vertex(current.x + dx, current.y + dy, to_black)
        c, d = edge_weight(current, head, cmap, weights)
        coeff = coeff * c
        tdeg += d
        vertices.append(head)
        current = head
    return LatticePath(tuple(vertices), TPoly.monomial(cmap.ring, coeff, tdeg))


def iter_paths(
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
        if v.y < 1:
            return
        for from_black, dx, dy, to_black in STEPS.values():
            if v.black != from_black:
                continue
            head = Vertex(v.x + dx, v.y + dy, to_black)
            if head.x > B.x or head.y < B.y or head in blocked:
                continue
            c = cmap(weights[v.x], v.y) if dx else cmap.ring.one
            path.append(head)
            yield from rec(head, coeff * c, tdeg + to_black)
            path.pop()

    yield from rec(A, cmap.ring.one, 0)


def permutation_sign(sigma: Sequence[int]) -> int:
    inversions = sum(
        sigma[i] > sigma[j] for i in range(len(sigma)) for j in range(i + 1, len(sigma))
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
        sign = permutation_sign(sigma)
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
            for candidate in iter_paths(sources[i], sinks[sigma[i]], cmap, weights, blocked):
                chosen.append(candidate)
                yield from assign(i + 1, blocked | frozenset(candidate[0]))
                chosen.pop()

        yield from assign(0, frozenset())


def enumerated_signed_sum(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> TPoly:
    """Sum of sign * weight over the enumerated systems, in cmap's own ring;
    one for the empty system."""
    if len(sources) == 0 and len(sinks) == 0:
        return TPoly.one(cmap.ring)
    acc = TPoly.zero(cmap.ring)
    for system in enumerate_path_systems(sources, sinks, cmap, weights):
        acc = acc + (system.weight if system.sign > 0 else -system.weight)
    return acc
