"""The two-colored lattice graph whose weighted path sums produce
interpolated values, and signed sums over vertex-disjoint path systems.

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

Signed sums are swept one column at a time, by a transfer matrix (Stanley,
EC1 4.7; the layer walk of ``shapes`` is the same idea).  Inside column x
a path is one black vertex, or a run of white vertices going down from
where it entered.

* State, at the boundary left of column x: per source, not yet started,
  the vertex where its path enters column x, or the sink j it ended at;
  with a {t-degree: coefficient} sum per state.
* Transitions: each path in column x picks where its white run stops, then
  exits from that height h >= 1 to white(x+1, h-1) (weight f(a_x, h)) or to
  black(x+1, h) (weight t * f(a_x, h)), or ends at a sink of column x.
* Disjointness: the vertices the paths hold in column x are bits of one
  occupancy mask and must not overlap.  What follows from it is enforced
  early, to drop doomed states: a run ends at the first sink it reaches,
  entries into column x+1 differ, column x's sinks are all claimed in
  column x, and an exit from height h needs a sink further right at height
  h or below (h-1 or below for the white exit).
* Sign: read off the permutation of sinks in the final state.

The checks stay independent of the sweep: the determinant side is one
forward path sum per source row (``path_matrix``, which gives a whole row
of pairwise path sums at once, then ``ring_determinant``), and
``values.schur_value`` walks the row layers of sub-partitions.  Enumerating
the systems one by one remains the test oracle.

A path leaves every column between its endpoints exactly once, so all the
terms of a path sum or a signed sum multiply the same labels, and over the
rational map they share one denominator: both run over the map's integer
form and divide once (see ``values``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .rings import Element, TPoly, ring_determinant, PolyRing
from .shapes import BitStats, BitTableau, Partition, bit_tableau_stats, build_bit_tableau
from .values import CoefficientMap, DiagonalWeights, _evaluate, _evaluate_each


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


def path_weight_sum(
    A: Vertex, B: Vertex, cmap: CoefficientMap, weights: DiagonalWeights
) -> TPoly:
    """Sum of weights of all paths A -> B: the one-entry ``path_matrix``.

    Unreachable targets give the zero polynomial, not an error.
    """
    return path_matrix((A,), (B,), cmap, weights)[0][0]


def _path_row(
    A: Vertex, sinks: Sequence[Vertex], cmap: CoefficientMap, weights: DiagonalWeights
) -> list[TPoly]:
    """The path sums A -> B for every sink B, from one forward dynamic
    program over the columns A.x .. (rightmost sink).

    Column x is swept from the top down: white(x, y) sums its entries from
    column x - 1 and white(x, y + 1) above it, and black(x, y) its entries
    from column x - 1.  An exit from height y to column x + 1 looks up
    f(a_x, y) only when some sink lies right of column x at height y or
    below, so the window needs only the columns a path to a sink leaves
    from.  Path sums are t-coefficient lists, None where no path reaches.
    """
    ring = cmap.ring
    zero = ring.zero
    targets = [B for B in sinks if B.x >= A.x and B.y <= A.y]
    found: dict[Vertex, list] = {}
    if targets:
        last = max(B.x for B in targets)
        # lowest[x - A.x]: the lowest target in column x or right of it.
        lowest = [min(B.y for B in targets if B.x >= x) for x in range(A.x, last + 1)]
        heights: dict[int, set[int]] = {}  # column -> heights of its targets
        for B in targets:
            heights.setdefault(B.x, set()).add(B.y)
        length = last - A.x + 1  # a path exits at most last - A.x columns
        start = [ring.one] + [zero] * (length - 1)
        whites: dict[int, list] = {} if A.black else {A.y: start}
        blacks: dict[int, list] = {A.y: start} if A.black else {}
        for x in range(A.x, last + 1):
            floor = lowest[x + 1 - A.x] if x < last else None
            next_whites: dict[int, list] = {}
            next_blacks: dict[int, list] = {}
            ends = heights.get(x, ())
            above = None  # the sum at white(x, y + 1)
            for y in range(A.y, lowest[x - A.x] - 1, -1):
                w = _sum_lists(whites.get(y), above)
                b = blacks.get(y)
                if y in ends:
                    found[Vertex(x, y, False)] = w
                    found[Vertex(x, y, True)] = b
                above = w if y >= 1 else None
                if floor is None or y < max(floor, 1):
                    continue
                here = _sum_lists(w, b)
                if here is None:
                    continue
                f = cmap(weights[x], y)
                out = [c * f for c in here]
                if y > floor:
                    next_whites[y - 1] = _sum_lists(next_whites.get(y - 1), out)
                next_blacks[y] = [zero, *out[:-1]]  # times t
            whites, blacks = next_whites, next_blacks
    return [TPoly(ring, found.get(B) or ()) for B in sinks]


def _sum_lists(a: list | None, b: list | None) -> list | None:
    """a + b for equally long coefficient lists, None standing for no path."""
    if a is None:
        return b
    if b is None:
        return a
    return [x + y for x, y in zip(a, b)]


def _crossed_labels(
    sources: Sequence[Vertex], sinks: Sequence[Vertex], weights: DiagonalWeights
) -> list:
    """The labels every path system sources -> sinks multiplies: column x is
    left by #{sources with x-coordinate <= x} - #{sinks with x-coordinate
    <= x} paths, whatever the pairing.  Columns outside the window are
    skipped; a path that needs one fails on its own lookup."""
    delta = Counter(v.x for v in sources)
    delta.subtract(v.x for v in sinks)
    labels = []
    crossing = 0
    for x in range(min(delta, default=0), max(delta, default=0)):
        crossing += delta[x]
        if crossing > 0 and x in weights:
            labels += [weights[x]] * crossing
    return labels


_NOT_STARTED = -1


def _permutation_sign(sigma: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


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
    """The column sweep of the module docstring.  A vertex of a column is
    the bit 2 * (y - lo) + black, lo the lowest endpoint height or 0; a
    state entry is that bit for a path entering the next column,
    _NOT_STARTED, or ~(j + 1) for a path that ended at sink j."""
    n = len(sources)
    if n != len(sinks):
        raise ValueError("need equally many sources and sinks")
    ring = cmap.ring
    if not n:
        return TPoly.one(ring)
    if len(set(sources)) < n or len(set(sinks)) < n:
        return TPoly.zero(ring)  # two paths would share an endpoint
    lo = min(0, *[v.y for v in sources], *[v.y for v in sinks])
    starts: dict[int, list[tuple[int, int]]] = {}
    ends: dict[int, dict[int, int]] = {}
    lowest: dict[int, int] = {}
    for i, (x, y, is_black) in enumerate(sources):
        starts.setdefault(x, []).append((i, 2 * (y - lo) + is_black))
    for j, (x, y, is_black) in enumerate(sinks):
        ends.setdefault(x, {})[2 * (y - lo) + is_black] = ~(j + 1)
        lowest[x] = min(y, lowest.get(x, y))
    first, last = min(min(starts), min(ends)), max(max(starts), max(ends))
    # floors[x - first]: the lowest sink right of column x, None if none.
    floors: list[int | None] = []
    floor = None
    for x in range(last, first - 1, -1):
        floors.append(floor)
        if x in lowest and (floor is None or lowest[x] < floor):
            floor = lowest[x]
    floors.reverse()

    # {t-degree: coefficient} per state at the boundary left of column x.
    states: dict[tuple[int, ...], dict[int, Element]] = {(_NOT_STARTED,) * n: {0: ring.one}}
    for x in range(first, last + 1):
        claims = ends.get(x, {})
        floor = floors[x - first]
        moves: dict[int, list[tuple[int, int, int, Element | None, int]]] = {}

        def moves_from(entry: int) -> list[tuple[int, int, int, Element | None, int]]:
            """(occupied bits, new entry, exit bit, weight or None, t-degree),
            one per way a path entering column x at this vertex goes on."""
            out = moves.get(entry)
            if out is not None:
                return out
            out = moves[entry] = []
            occupied = 0
            y = (entry >> 1) + lo
            vertex = entry
            while True:
                occupied |= 1 << vertex
                end = claims.get(vertex)
                if end is not None:  # a sink ends every path that reaches it
                    out.append((occupied, end, 0, None, 0))
                    break
                if y < 1:
                    break
                if floor is not None and y >= floor:
                    f = cmap(weights[x], y)
                    down = 2 * (y - 1 - lo)  # white(x + 1, y - 1)
                    if y > floor:
                        out.append((occupied, down, 1 << down, f, 0))
                    out.append((occupied, down + 3, 1 << (down + 3), f, 1))  # black(x + 1, y)
                if vertex & 1:  # black: one vertex per column
                    break
                y -= 1
                vertex -= 2
            return out

        begin = [(i, moves_from(entry)) for i, entry in starts.get(x, ())]
        new_states: dict[tuple[int, ...], dict[int, Element]] = {}
        for state, coeffs in states.items():
            paths = [(i, moves_from(e)) for i, e in enumerate(state) if e >= 0] + begin
            if not paths:
                if not claims:
                    _add_scaled(new_states.setdefault(state, {}), coeffs, None, 0)
                continue
            new = list(state)

            def place(k: int, occupied: int, exits: int, claimed: int, w, d: int) -> None:
                """Go on with paths[k:], given the choices of paths[:k]."""
                i, options = paths[k]
                for occ, entry, exit_bit, f, dt in options:
                    if occ & occupied or exit_bit & exits:
                        continue
                    new[i] = entry
                    wf = f if w is None else w if f is None else w * f
                    if k + 1 < len(paths):
                        place(k + 1, occupied | occ, exits | exit_bit,
                              claimed + (entry < 0), wf, d + dt)
                    elif claimed + (entry < 0) == len(claims):
                        _add_scaled(new_states.setdefault(tuple(new), {}), coeffs, wf, d + dt)

            place(0, 0, 0, 0, None, 0)
        states = new_states
        if not states:
            return TPoly.zero(ring)

    # Every source has started by the last column and no path can leave it,
    # so each surviving state has ended every path at a sink.
    total: dict[int, Element] = {}
    for state, coeffs in states.items():
        if _permutation_sign([~e - 1 for e in state]) < 0:
            coeffs = {deg: -c for deg, c in coeffs.items()}
        _add_scaled(total, coeffs, None, 0)
    return TPoly(ring, [total.get(deg, ring.zero) for deg in range(max(total) + 1)])


def _add_scaled(target: dict[int, Element], coeffs: dict[int, Element], w, d: int) -> None:
    """target += coeffs * w * t^d, both as {t-degree: coefficient}; None for
    w stands for one."""
    for deg, c in coeffs.items():
        if w is not None:
            c = c * w
        deg += d
        prev = target.get(deg)
        target[deg] = c if prev is None else prev + c


def path_matrix(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> list[list[TPoly]]:
    """The matrix of pairwise path-weight sums w(sources[i], sinks[j]), one
    forward path sum per source row; over the rational map each entry is
    divided by its own L^K."""
    rows = []
    for a in sources:
        parts = [_crossed_labels((a,), (b,), weights) for b in sinks]
        labels = [k for part in parts for k in part]
        rows.append(
            _evaluate_each(cmap, a.y, labels, parts, lambda c: _path_row(a, sinks, c, weights))
        )
    return rows


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
