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
  the vertex where its path enters column x, or the sink j it ended at.
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

None of this depends on the labels, the ring or N, so the sweep is split
in two.  ``_compiled_sweep`` builds the states and transitions once per
endpoint geometry, as a ``_SweepPlan`` of flat integer lists: per column,
each transition's source and target state ids and its pair, the column's
distinct (exit heights, t-degree) pairs, and at the end the final states'
signs.  ``_run_sweep`` evaluates a plan: per column it takes f(a_x, h) once
per height it needs and each pair's weight once, then makes one pass of
multiply-adds over the transitions, on packed ints over the integer form
(t = 2^b, as in ``values``), on lists of packed q-series over the
q-analogue map's packed form (q = 2^b', modulo 2^(b'Q)), or on
``values._Coefficients`` over any other ring, and decodes the signed total
once.  Plans are cached by the
endpoints moved to a normal position (``_sweep_plan``), in a
``shapes._SizedCache`` bounded by the transitions it holds.

Translation.  Move the endpoints left by x0, the leftmost endpoint's
column, and down by dy = l - 1 when the lowest endpoint height l is at
least 1 (else dy = 0).  The sweep of the moved endpoints makes the same
states and transitions, with the columns and heights renamed, and column c
of it reads a_(c + x0) at height h + dy.  Columns enter the sweep only
through their differences.  Heights enter it only by comparing two
positions, each an endpoint height moved by whole steps (a run reaching a
sink, an exit against the lowest sink further right), and by the stop at
height < 1; both are unchanged when dy = 0.  When l >= 1 every vertex a
move holds is at height l or above: a run ends at the first sink it
reaches, and an exit from height h needs a sink at height h or below
further right, with h - 1 at or above it for the white exit.  Those
vertices are at height 1 or above both before and after the move down by
dy, so the stop compares them the same way.  A run that goes below l
passes no sink and makes no move before it stops, at whatever height, and
its vertices below l are in no state or transition.

Slot width.  A column x is left by #{sources in columns <= x} - #{sinks in
columns <= x} paths, whatever the pairing, so every system leaves the same
columns, the plan's ``crossed``, and its weight multiplies f(a_x, h) once
per crossed column x (with multiplicity), at an exit height h in 1..top,
top the highest source.  A path is fixed by its exits: in each column it
leaves, a height h and whether it goes down or across, f(a_x, h) either
way.  So, over the integer form, whose f(k, m) are positive, the systems
pairing the sources with the sinks by one permutation weigh at most the
product of 2 S(a_x) over the crossed columns, S(k) = f(k, 1) + ... +
f(k, top), disjoint or not, and over all n! permutations every
coefficient c_k of the signed sum has

    |c_k| <= n! * prod over crossed x of 2 S(a_x) <= 2^pairs * prod S(a_x),

pairs = #crossed + ceil(log2 n!): the bound of ``values._slot_bits``.  A
crossed column outside the weight window has no label; a system that
leaves it raises on its lookup, so the bound holds for every value
returned.  Over the q-analogue map's packed form the same count bounds
every q-coefficient, with S(k) the sum of the l1 norms ||f(k, m)||_1 and
the triangle inequality in place of positivity: the norm of a product of
truncated series is at most the product of the norms
(``values._packed_route``).

The checks stay independent of the sweep: the determinant side is one
forward path sum per source row (``_path_sums``, which gives a whole row of
pairwise path sums at once), then the determinant, and
``values.schur_value`` walks the row layers of sub-partitions.  Enumerating
the systems one by one remains the test oracle.  A row is one body over
every form (``values._packed_constants``): packed ints at t = 2^b over the
rational integer form, ``_Residues`` over a q-series packed form,
``_Tagged`` over the quasi-symmetric tagged form, and ``_Coefficients``
over a hand-built map, the oracle; an exit multiplies by f(a_x, h), and
times t is << b.

Row slot width.  A path from A to a sink B leaves each column A.x .. B.x - 1
once, and is fixed by its exits: in each column it leaves, a height h in
1..A.y and whether it goes down or across, weight f(a_x, h), times t
across.  So over the integer form, whose f(k, m) are positive, every
t-coefficient c_d of w(A, B) has

    0 <= c_d <= sum over the paths of prod f(a_x, h) <= X = prod over
    the columns x it leaves of 2 S(a_x),  S(k) = f(k, 1) + ... + f(k, A.y),

the l1 count of a single path.  X = 1 is attained: a sink in A's own
column is reached by the trivial path alone, of weight 1.  A row is packed
at one width for all its sinks (``_path_sums``): the bound of
``values._slot_bits`` over the labels of the columns A.x .. x_max - 1,
x_max the rightmost sink a path can reach, with pairs = their number and
each level counted at least 1.  A nearer sink's paths leave a prefix of
those columns, so its bound divides into that one by factors
2 max(S, 1) >= 1.  Over a q-series packed form the same count bounds every
q-coefficient in absolute value, with S(k) the sum of the l1 norms
||f(k, m)||_1 (``values._packed_route``).

Path-matrix width.  Over a q-series packed form the determinant takes the
width of ``values._determinant_bits`` with factor 2: entry (i, j) has l1
norm at most X_ij = 2^p prod S(a_x) over the p columns its paths leave, by
the count above (S taken over the heights 1..top, top the highest source,
which only enlarges it), and 0 for a sink no path from source i reaches.
Over the tagged form a term of entry (i, j) multiplies one f(a_x, h) per
column left, so each of its exponents is at most the sum of e(a_x) over
those columns, the bound E_ij of ``values._determinant_form``
(``_path_determinant``).

A path leaves every column between its endpoints exactly once, so all the
terms of a path sum or a signed sum multiply the same labels, and over the
rational map they share one denominator: both run over the map's integer
form (see ``values``).  Each quantity has one evaluator, and none
divides.  ``_scaled_lgv_signed_sum``, ``_scaled_path_sum`` and
``_path_determinant`` return a ``rings.ScaledPoly``;
``_scaled_path_matrix`` returns the path matrix in the one matrix format
of ``rings``, (rows, D): over the integer form, rows of integer coefficient
lists, each row over one denominator, and D the product of the row
denominators; over any other map, rows of ``TPoly``s with D = 1 (the
q-series and quasi-symmetric determinants take the entries on their forms
instead).  The checks in ``sweeps`` compare undivided values and divide
only in the text they report.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from math import comb, factorial
from operator import mul
from typing import NamedTuple, Sequence

from .rings import ScaledPoly, TPoly, _scaled_determinant
from .shapes import BitStats, BitTableau, Partition, _SizedCache
from .values import (
    CoefficientMap,
    DiagonalWeights,
    _decoded,
    _determinant_form,
    _form_determinant,
    _packed_constants,
    _packed_route,
    _undivided,
    _undivided_rows,
    _unpacked,
)


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


def _path_labels(
    A: Vertex, sinks: Sequence[Vertex], cmap: CoefficientMap, weights: DiagonalWeights
) -> tuple[list, list[int]]:
    """The labels of the columns a path from A to a sink leaves, and for
    each sink the number of them its paths leave, -1 for a sink no path
    reaches from A (left of it, above it, or below height 0, where no edge
    leads).

    The columns are A.x .. x_max - 1, x_max the rightmost such sink, as
    long as A.y >= 1 (at height 0 no edge leaves A): ``_path_sums`` looks
    up f(a_x, A.y) in each, and an exit from any column x needs a sink
    right of it.  Each label is looked up and given to the map (f(k, m)
    for m = 1 .. A.y) in column order, so a missing column or a label the
    map rejects raises where the sweep of ``_path_sums`` first meets it."""
    targets = [B.x for B in sinks if B.x >= A.x and 0 <= B.y <= A.y]
    labels = []
    if targets and A.y >= 1:
        for x in range(A.x, max(targets)):
            k = weights[x]
            cmap.row(k, A.y + 1)
            labels.append(k)
    return labels, [B.x - A.x if B.y <= A.y and 0 <= B.x - A.x <= len(labels) else -1
                    for B in sinks]


def _path_sums(
    A: Vertex, sinks: Sequence[Vertex], cmap: CoefficientMap, weights: DiagonalWeights
) -> tuple[list, int, CoefficientMap]:
    """The path sums A -> B for every sink B, from one forward dynamic
    program over the columns A.x .. (rightmost sink), as (sums, b, packed):
    each sum packed at t = 2^b over the map ``packed`` that cmap's packed
    route runs on (``values._packed_constants``), None where no path
    reaches.

    Column x is swept from the top down: white(x, y) sums its entries from
    column x - 1 and white(x, y + 1) above it, and black(x, y) its entries
    from column x - 1.  An exit from height y to column x + 1 looks up
    f(a_x, y) only when some sink lies right of column x at height y or
    below, so the window needs only the columns a path to a sink leaves
    from (``_path_labels``).  An exit multiplies by f(a_x, y), and the
    black one also by t, << b.  The slot width b is the one of the module
    docstring, over the labels of those columns.
    """
    labels, _ = _path_labels(A, sinks, cmap, weights)
    packed, b = _packed_route([(k,) for k in labels], A.y + 1, cmap, len(labels))
    top = A.y
    ends: dict[int, set[int]] = {}  # column -> heights of its targets
    for B in sinks:
        if B.x >= A.x and 0 <= B.y <= top:  # no path goes below height 0
            ends.setdefault(B.x, set()).add(B.y)
    one = _packed_constants(packed.ring)[1]
    if top < 0:  # no edge leaves A, and no path reaches it: the trivial path alone
        return [one if B == A else None for B in sinks], b, packed
    found: dict[tuple[int, int], tuple] = {}  # (x, y) -> the white and the black sum
    if ends:
        last = max(ends)
        # lowest[x - A.x]: the lowest target in column x or right of it.
        lowest = []
        for x in range(last, A.x - 1, -1):
            low = min(ends[x]) if x in ends else top
            lowest.append(min(low, lowest[-1]) if lowest else low)
        lowest.reverse()
        whites: list = [None] * (top + 1)  # by height, None where no path reaches
        blacks: list = [None] * (top + 1)
        (blacks if A.black else whites)[top] = one
        for c, x in enumerate(range(A.x, last + 1)):
            if c < len(labels):
                floor = lowest[c + 1]
                stop = floor if floor > 1 else 1  # exits leave from heights stop .. A.y
                f = packed.row(labels[c], top + 1)  # f[y - 1] = f(a_x, y)
            else:
                stop = top + 1  # no exit from the last column, nor from height 0
            next_whites: list = [None] * (top + 1)
            next_blacks: list = [None] * (top + 1)
            heights = ends.get(x, ())
            # Below both its lowest target and its lowest exit a column holds
            # nothing a sink reads.
            end = min(stop, *heights) if heights else stop
            above = None  # the sum at white(x, y + 1)
            for y in range(top, end - 1, -1):
                w = whites[y]
                if above is not None:
                    w = above if w is None else w + above
                on_black = blacks[y]
                if y in heights:
                    found[x, y] = (w, on_black)
                above = w
                if y < stop:
                    continue
                here = w if on_black is None else on_black if w is None else w + on_black
                if here is None:
                    continue
                out = here * f[y - 1]
                if y > floor:
                    down = next_whites[y - 1]
                    next_whites[y - 1] = out if down is None else down + out
                next_blacks[y] = out << b  # times t
            whites, blacks = next_whites, next_blacks
    return [found.get((B.x, B.y), (None, None))[B.black] for B in sinks], b, packed


def _path_row(
    A: Vertex, sinks: Sequence[Vertex], cmap: CoefficientMap, weights: DiagonalWeights
) -> list[Sequence]:
    """The path sums A -> B for every sink B (``_path_sums``), each decoded
    into its t-coefficients over cmap's ring, [] where no path reaches."""
    sums, b, packed = _path_sums(A, sinks, cmap, weights)
    return [[] if v is None else _unpacked(v, b, packed, cmap.ring) for v in sums]


_NOT_STARTED = -1


def _permutation_sign(sigma: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inversions % 2 else 1


def _scaled_lgv_signed_sum(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> ScaledPoly:
    """Sum of sign * weight over all vertex-disjoint path systems, undivided:
    one ``_run_sweep`` over the endpoints' compiled plan, at the slot width
    of the module docstring, over the labels of the plan's crossed columns
    in the window."""
    plan, x0, dy = _sweep_plan(sources, sinks)
    labels = [weights[x] for x in (x0 + c for c in plan.crossed) if x in weights]
    top = max((v.y for v in sources), default=0)
    pairs = len(labels) + (factorial(len(sources)) - 1).bit_length()

    def body(c: CoefficientMap) -> TPoly:
        packed, b = _packed_route([(k,) for k in labels], top + 1, c, pairs)
        value = _run_sweep(plan, x0, dy, packed, weights, b)
        if packed is c:
            return value
        return TPoly(c.ring, list(map(packed.ring.decode, value.coeffs)))

    return _undivided(cmap, top, labels, body)


def _run_sweep(
    plan: _SweepPlan, x0: int, dy: int, cmap: CoefficientMap, weights: DiagonalWeights, b: int
) -> TPoly:
    """The signed sum of the plan at the endpoints it was compiled from,
    moved right by x0 and up by dy: one pass over its transitions.

    Per column x, f(a_x, h + dy) is taken once for each height h the
    column looks up, each distinct exit tuple's product once, and each
    pair's weight, that product times t^degree, once; then every transition
    adds its source's value times its pair's weight into its target.
    Values are packed at t = 2^b (``values._packed_constants``): an
    ``int``, on which * t^d is << b*d, over the integer form; a
    ``_Residues`` of packed q-series over a q-series map's packed form; a
    ``_Coefficients`` over any other ring.  The final states' values are
    summed with their signs and decoded once, into the coefficients over
    cmap's ring."""
    zero, one = _packed_constants(cmap.ring)
    packed = type(zero) is int
    current = [one]
    for x, (heights, pairs, flat, width) in enumerate(plan.columns, x0):
        pair_weights = {}
        if heights:
            label = weights[x]
            f = [cmap(label, h + dy) for h in heights]
            products = {}
            for pair, (e, d) in pairs.items():
                w = products.get(e)
                if w is None:
                    w = products[e] = reduce(mul, map(f.__getitem__, e))
                pair_weights[pair] = (w << b * d) if packed else (w, b * d)
        new = [zero] * width
        it = iter(flat)
        if packed:
            for s, t, k in zip(it, it, it):
                new[t] += current[s] * pair_weights[k] if k else current[s]
        else:
            for s, t, k in zip(it, it, it):
                if k:
                    w, shift = pair_weights[k]
                    v = current[s] * w
                    new[t] += v << shift if shift else v
                else:
                    new[t] += current[s]
        current = new
    total = zero
    for v, sign in zip(current, plan.signs):
        total = total + v if sign > 0 else total - v
    return TPoly(cmap.ring, _decoded(total, b))


@dataclass(frozen=True)
class _SweepPlan:
    """The column sweep of the module docstring for one normalised endpoint
    geometry, compiled: no labels, ring or coefficients.

    ``columns`` holds, per column from column 0 on, the tuple (heights,
    pairs, flat, width):

    * heights: every height at which the sweep looks up f(a_x, h), sorted,
      including those of moves that lead nowhere, so that the lookup raises
      for a column outside the window, or a label the map rejects, in the
      same column as a sweep that looks up as it goes;
    * pairs: {pair: (exit tuple, t-degree)} for each distinct pair of the
      column's transitions that has an exit, the exit heights as positions
      in heights (one twice when two paths exit from it); pair 0 has no
      exit and weighs one;
    * flat: source id, target id and pair of each transition, in one list;
    * width: the number of states at the right boundary.

    States are numbered per boundary in the order the sweep reaches them;
    the start is state 0.  ``signs`` are the final states' permutation signs
    by id, an empty list when no system exists; ``crossed`` lists the
    columns every system leaves, once per path that leaves it; ``size``
    counts the transitions, the measure of the plan cache.
    """

    columns: tuple
    signs: list[int]
    crossed: list[int]
    size: int


def _sweep_plan(sources: Sequence[Vertex], sinks: Sequence[Vertex]) -> tuple[_SweepPlan, int, int]:
    """The plan of these endpoints, with the translation (x0, dy) of the
    module docstring: compiled once per normalised geometry, the endpoints
    moved left by x0 and down by dy, and kept in ``_PLANS``."""
    n = len(sources)
    if n != len(sinks):
        raise ValueError("need equally many sources and sinks")
    if not n:
        return _PLANS(((), ())), 0, 0
    x0 = min(v.x for v in (*sources, *sinks))
    low = min(v.y for v in (*sources, *sinks))
    dy = low - 1 if low > 1 else 0
    key = (
        tuple((x - x0, y - dy, is_black) for x, y, is_black in sources),
        tuple((x - x0, y - dy, is_black) for x, y, is_black in sinks),
    )
    return _PLANS(key), x0, dy


def _compiled_sweep(key: tuple[tuple, tuple]) -> _SweepPlan:
    """The forward column sweep of the module docstring on normalised
    endpoints, (x, y, black) triples, recording transitions in place of
    weights.  A vertex of a column is the bit 2 * (y - lo) + black, lo the
    lowest endpoint height or 0; a state entry is that bit for a path
    entering the next column, _NOT_STARTED, or ~(j + 1) for a path that
    ended at sink j.  One mask holds the vertices the paths take in the
    column and, W bits up, those they enter in the next.  A transition's
    pair is one int: the t-degree d < 2^S, plus 1 << (2h + S) per exit from
    height h, so the exit heights as a multiset (at most two paths, one from
    each vertex, exit from one height)."""
    sources, sinks = key
    n = len(sources)
    if not n:
        return _SweepPlan((), [1], [], 0)
    lo = min(0, *[v[1] for v in sources], *[v[1] for v in sinks])
    W = 2 * (max(v[1] for v in (*sources, *sinks)) - lo + 1)
    S = n.bit_length()
    starts: dict[int, list[tuple[int, int]]] = {}
    ends: dict[int, dict[int, int]] = {}
    lowest: dict[int, int] = {}
    for i, (x, y, is_black) in enumerate(sources):
        starts.setdefault(x, []).append((i, 2 * (y - lo) + is_black))
    for j, (x, y, is_black) in enumerate(sinks):
        ends.setdefault(x, {})[2 * (y - lo) + is_black] = ~(j + 1)
        lowest[x] = min(y, lowest.get(x, y))
    last = max(max(starts), max(ends))
    # Column x is left by #{sources with x-coordinate <= x} - #{sinks with
    # x-coordinate <= x} paths, whatever the pairing.
    delta = [0] * (last + 1)
    for v in sources:
        delta[v[0]] += 1
    for v in sinks:
        delta[v[0]] -= 1
    crossed = []
    crossing = 0
    for x in range(last):
        crossing += delta[x]
        crossed += [x] * crossing
    if len(set(sources)) < n or len(set(sinks)) < n:
        return _SweepPlan((), [], crossed, 0)  # two paths would share an endpoint
    # floors[x]: the lowest sink right of column x, None if none.
    floors: list[int | None] = []
    floor = None
    for x in range(last, -1, -1):
        floors.append(floor)
        if x in lowest and (floor is None or lowest[x] < floor):
            floor = lowest[x]
    floors.reverse()

    columns = []
    states: dict[tuple[int, ...], int] = {(_NOT_STARTED,) * n: 0}
    for x in range(last + 1):
        claims = ends.get(x, {})
        claimed = sum(1 << vertex for vertex in claims) if claims else 0
        floor = floors[x]
        moves: dict[int, list[tuple[int, int, int]]] = {}
        looked: set[int] = set()

        def moves_from(entry: int) -> list[tuple[int, int, int]]:
            """(mask bits, new entry, pair), one per way a path entering
            column x at this vertex goes on."""
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
                    out.append((occupied, end, 0))
                    break
                if y < 1:
                    break
                if floor is not None and y >= floor:
                    looked.add(y)
                    down = 2 * (y - 1 - lo)  # white(x + 1, y - 1)
                    exit_code = 1 << (2 * y + S)
                    if y > floor:
                        out.append((occupied | 1 << (down + W), down, exit_code))
                    # black(x + 1, y), times t
                    out.append((occupied | 1 << (down + 3 + W), down + 3, exit_code + 1))
                if vertex & 1:  # black: one vertex per column
                    break
                y -= 1
                vertex -= 2
            return out

        begin = [(i, moves_from(entry)) for i, entry in starts.get(x, ())]
        new_states: dict[tuple[int, ...], int] = {}
        flat: list[int] = []  # source, target, pair, per transition
        for state, s in states.items():
            paths = [(i, moves_from(e)) for i, e in enumerate(state) if e >= 0] + begin
            if not paths:
                if not claims:
                    flat.extend((s, new_states.setdefault(state, len(new_states)), 0))
                continue
            new = list(state)
            j, last_options = paths.pop()

            def place(k: int, mask: int, pair: int) -> None:
                """Go on with paths[k:] and the last path, given the choices
                of paths[:k]."""
                if k < len(paths):
                    i, options = paths[k]
                    for bits, entry, p in options:
                        if not bits & mask:
                            new[i] = entry
                            place(k + 1, mask | bits, pair + p)
                    return
                for bits, entry, p in last_options:
                    # and every sink of column x claimed
                    if not bits & mask and (mask | bits) & claimed == claimed:
                        new[j] = entry
                        flat.extend((s, new_states.setdefault(tuple(new), len(new_states)), pair + p))

            place(0, 0, 0)
        columns.append((looked, flat, len(new_states)))
        states = new_states
        if not states:
            break

    # Every source has started by the last column and no path can leave it,
    # so each surviving state has ended every path at a sink.
    signs = [_permutation_sign([~e - 1 for e in state]) for state in states]
    return _SweepPlan(
        tuple(_column(looked, flat, width, S) for looked, flat, width in columns), signs, crossed,
        sum(len(flat) for _, flat, _ in columns) // 3)


def _column(looked: set[int], flat: list[int], width: int, S: int) -> tuple:
    """A column of the plan from the forward sweep's: its looked-up heights
    sorted, and each distinct pair of its transitions as (exit tuple,
    t-degree), the tuple as positions in the heights."""
    heights = tuple(sorted(looked))
    pairs = {}
    for pair in set(flat[2::3]) - {0}:  # 0: no exit, weight one
        code = pair >> S
        pairs[pair] = (tuple(i for i, h in enumerate(heights) for _ in range(code >> 2 * h & 3)),
                       pair & ((1 << S) - 1))
    return heights, pairs, flat, width


_PLANS = _SizedCache(_compiled_sweep, lambda plan: plan.size)


def _scaled_path_matrix(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> tuple[list[list], int]:
    """The matrix of pairwise path-weight sums w(sources[i], sinks[j]), one
    forward path sum per source row (``_path_row``), as (rows, D) from one
    integer form for the whole matrix.  Unreachable sinks give zero, not an
    error."""
    right = max((b.x for b in sinks), default=0)
    runs, prefixes = [], []
    for i, a in enumerate(sources):
        # A path a -> b crosses each window column a.x .. b.x - 1 once: its
        # labels are a prefix of the row's, which skip the columns outside.
        columns = [x for x in range(a.x, right) if x in weights]
        runs.append([weights[x] for x in columns])
        prefixes.append([(i, bisect_left(columns, b.x)) for b in sinks])
    top = max((a.y for a in sources), default=0)
    return _undivided_rows(
        cmap, top, runs, prefixes, lambda c: [_path_row(a, sinks, c, weights) for a in sources])


def _path_determinant(
    sources: Sequence[Vertex],
    sinks: Sequence[Vertex],
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> ScaledPoly:
    """det of the path matrix, undivided.  Over a map with a packed or
    tagged form (``values._determinant_form``) each row is one
    ``_path_sums`` run over that form, at the width of the module
    docstring, and the entries go to the Laplace expansion over it
    (``values._form_determinant``); any other map writes the rows of
    ``rings._scaled_determinant`` (``_scaled_path_matrix``)."""
    top = max((a.y for a in sources), default=0)
    runs, prefixes = [], []
    if cmap.packed_form is not None or cmap.tagged_form is not None:  # their bounds read these
        for i, a in enumerate(sources):
            labels, lengths = _path_labels(a, sinks, cmap, weights)
            runs.append(labels)
            prefixes.append([(i, p) for p in lengths])
    route = _determinant_form(cmap, top + 1, runs, prefixes, 2)
    if route is None:
        return _scaled_determinant(_scaled_path_matrix(sources, sinks, cmap, weights), cmap.ring)
    form, bound = route
    zero = _packed_constants(form.ring)[0]
    matrix = [[zero if v is None else v for v in _path_sums(a, sinks, form, weights)[0]]
              for a in sources]
    return _form_determinant(matrix, form, bound, cmap.ring)


def _scaled_path_sum(
    A: Vertex, B: Vertex, cmap: CoefficientMap, weights: DiagonalWeights
) -> ScaledPoly:
    """The path-weight sum w(A, B), undivided: ``_path_row`` for the one
    sink, over its own L^K."""
    labels = [weights[x] for x in range(A.x, B.x) if x in weights]
    return _undivided(
        cmap, A.y, labels, lambda c: TPoly(c.ring, _path_row(A, (B,), c, weights)[0]))


def schur_path_endpoints(shape: Partition, N: int) -> tuple[list[Vertex], list[Vertex]]:
    """Sources at height N-1 offset left by the conjugate parts; sinks at
    height 0 in columns 1..width.  The signed path-system sum between them
    equals the Schur value of the diagonal-constant tableau."""
    conj = shape.conjugate().parts
    sources = [white(j - conj[j - 1], N - 1) for j in range(1, shape.width + 1)]
    sinks = [white(j, 0) for j in range(1, shape.width + 1)]
    return sources, sinks


def layer_endpoints(
    shape: Partition, b: Sequence[int], M: int
) -> tuple[list[Vertex], list[Vertex]]:
    """Sources at height M offset by the conjugate parts; sinks one level
    down, offset by the baseline b."""
    conj = shape.conjugate().parts
    sources = [white(j - conj[j - 1], M) for j in range(1, shape.width + 1)]
    sinks = [white(j - b[j - 1], M - 1) for j in range(1, shape.width + 1)]
    return sources, sinks


def _layer_sides(
    bt: BitTableau, stats: BitStats, M: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> tuple[ScaledPoly, ScaledPoly]:
    """The two sides of the one-layer step for the zero-one tableau bt
    (``shapes.build_bit_tableau``) with its stats, undivided: the closed
    form, and the signed path-system sum from height M to height M-1.

    The closed form is the product of f(a_(j-i), M) over the one-cells of
    the zero-one tableau, times t^v1 (1-t)^h1, when no two diagonal
    neighbors are both one; otherwise zero.  Over the rational map it is an
    integer binomial row over L^K, L = lcm(1..M), like the signed sum.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if stats.one_ordered:
        offsets = [j - i for i, row in enumerate(bt.rows, 1) for j, f in enumerate(row, 1) if f]
        # An offset outside the window raises in the closed form, in cell order.
        labels = [weights[d] for d in offsets if d in weights]
        predicted = _undivided(
            cmap, M, labels, lambda c: _layer_closed_form(offsets, stats, M, c, weights)
        )
    else:
        predicted = ScaledPoly(TPoly.zero(cmap.ring))
    sources, sinks = layer_endpoints(bt.shape, bt.b, M)
    return predicted, _scaled_lgv_signed_sum(sources, sinks, cmap, weights)


def _layer_closed_form(
    offsets: Sequence[int],
    stats: BitStats,
    M: int,
    cmap: CoefficientMap,
    weights: DiagonalWeights,
) -> TPoly:
    """t^v1 (1-t)^h1 times the product of f(a_d, M) over the offsets d, as
    the binomial row (-1)^i C(h1, i) times the product at t^(v1 + i)."""
    ring = cmap.ring
    prod = ring.one
    for d in offsets:
        prod = prod * cmap(weights[d], M)
    h1 = stats.h1
    row = [prod * (-comb(h1, i) if i & 1 else comb(h1, i)) for i in range(h1 + 1)]
    return TPoly(ring, [ring.zero] * stats.v1 + row)
