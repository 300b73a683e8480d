"""Partitions, ordered-filling enumeration, and zero-one layer tableaux."""

import json
import math
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from schurzeta import values
from schurzeta.rings import QQ, TPoly
from schurzeta.shapes import (
    Partition,
    Tableau,
    admissible_baselines,
    bit_tableau_stats,
    build_bit_tableau,
    LayerGraph,
    _CACHE_TRANSITIONS,
    _depth,
    _layers_from,
    count_oyt,
    layer_graph,
    partitions_of,
    partitions_up_to,
)

from filling_enumeration import brute_force_count_oyt, iter_filling_rows

GOLDEN = Path(__file__).parent / "golden" / "oyt_counts.json"


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    bins = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return Partition(sorted(counts.values(), reverse=True))


# ---------------------------------------------------------------------------
# partitions


def test_conjugate_examples():
    assert Partition((5, 2, 1)).conjugate() == Partition((3, 2, 1, 1, 1))
    assert Partition((3, 3, 2, 1)).conjugate() == Partition((4, 3, 2))
    assert Partition((4,)).conjugate() == Partition((1, 1, 1, 1))
    assert Partition(()).conjugate() == Partition(())


@given(partition_strategy())
def test_conjugate_is_an_involution(shape):
    assert shape.conjugate().conjugate() == shape


def test_conjugate_involution_exhaustive_small():
    for shape in partitions_up_to(8):
        assert shape.conjugate().conjugate() == shape


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partitions_of_counts():
    # 1, 1, 2, 3, 5, 7, 11 partitions of 0..6
    assert [sum(1 for _ in partitions_of(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_partition_rejects_non_integer_parts():
    # A float or a bool part is refused, not truncated or read as 1.
    for parts in ((2.7, 1), (2, True), ("2",), (2.0,)):
        with pytest.raises(ValueError):
            Partition(parts)
    assert Partition([3, 1]).parts == (3, 1)


# ---------------------------------------------------------------------------
# tableaux


def test_tableau_conjugate_transposes_entries():
    t = Tableau.from_rows([[1, 2, 3], [4, 5], [6]])
    c = t.conjugate()
    assert c.rows == ((1, 4, 6), (2, 5), (3,))
    assert c.conjugate() == t


def test_tableau_shape_mismatch():
    with pytest.raises(ValueError):
        Tableau(Partition((2, 1)), [[1, 2, 3]])


# ---------------------------------------------------------------------------
# ordered fillings


def test_oyt_2x2_members_and_exclusions():
    fillings = {rows for rows, _, _ in iter_filling_rows(Partition((2, 2)), 4)}
    assert ((1, 1), (1, 2)) in fillings
    assert ((1, 2), (1, 2)) in fillings
    # equal diagonal entries are forbidden
    assert ((1, 1), (1, 1)) not in fillings


def test_oyt_2x2_count_is_17():
    shape = Partition((2, 2))
    assert count_oyt(shape, 4) == 17
    assert brute_force_count_oyt(shape, 4) == 17


def test_oyt_counts_match_golden_and_oracle():
    golden = json.loads(GOLDEN.read_text())
    for key, expected in golden.items():
        parts_text, n_text = key.split("|")
        shape = Partition(int(p) for p in parts_text.split(",") if p)
        N = int(n_text)
        assert count_oyt(shape, N) == expected
        assert brute_force_count_oyt(shape, N) == expected


def test_oyt_equality_counts_worked_example():
    rows = [[2, 2, 3], [2, 3], [2, 4], [2]]
    shape = Partition((3, 2, 2, 1))
    match = [
        (v, h) for f, v, h in iter_filling_rows(shape, 5) if f == tuple(map(tuple, rows))
    ]
    assert match == [(3, 1)]


def test_oyt_trivial_streams():
    assert [rows for rows, _, _ in iter_filling_rows(Partition(()), 1)] == [()]
    assert list(iter_filling_rows(Partition(()), 9)) == [((), 0, 0)]
    assert list(iter_filling_rows(Partition((2, 1)), 1)) == []


def test_oyt_stream_is_lexicographic_and_duplicate_free():
    seqs = [
        tuple(x for row in rows for x in row)
        for rows, _, _ in iter_filling_rows(Partition((2, 2, 1)), 4)
    ]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))


def _is_ordered_filling(rows, N):
    """Independent validity restatement used by the transpose property."""
    for i, row in enumerate(rows):
        for j, m in enumerate(row):
            if not (0 < m < N):
                return False
            if i + 1 < len(rows) and j < len(rows[i + 1]) and m > rows[i + 1][j]:
                return False
            if j + 1 < len(row) and m > row[j + 1]:
                return False
            if (
                i + 1 < len(rows)
                and j + 1 < len(rows[i + 1])
                and m >= rows[i + 1][j + 1]
            ):
                return False
    return True


def test_oyt_counts_match_brute_force_small():
    for shape in partitions_up_to(5, include_empty=False):
        for N in range(1, 6):
            assert count_oyt(shape, N) == brute_force_count_oyt(shape, N)


def test_oyt_counts_match_enumeration():
    for shape in partitions_up_to(7):
        for N in range(1, 6):
            assert count_oyt(shape, N) == sum(1 for _ in iter_filling_rows(shape, N))


def test_oyt_counts_large_n_closed_forms():
    # a row or a column is a multiset of n values from 1..N-1
    for n in range(1, 5):
        expected = math.comb(n + 28, n)
        assert count_oyt(Partition((n,)), 30) == expected
        assert count_oyt(Partition((1,) * n), 30) == expected
    with pytest.raises(ValueError):
        count_oyt(Partition((1,)), 0)


def test_oyt_counts_past_the_cell_count():
    """Past N - 1 = cells the count takes one step per cell and sums
    binomials, where the walk by values took one step per value."""
    for shape in partitions_up_to(6):
        for N in range(1, shape.size + 3):
            assert count_oyt(shape, N) == sum(1 for _ in iter_filling_rows(shape, N)), (shape, N)


def test_oyt_counts_closed_forms_at_a_billion():
    N = 10**9
    assert count_oyt(Partition(()), N) == 1
    for n in range(1, 7):
        expected = math.comb(n + N - 2, n)
        assert count_oyt(Partition((n,)), N) == expected
        assert count_oyt(Partition((1,) * n), N) == expected
    n = N - 1  # (2,1): a <= b and a <= c, over the choices of a
    assert count_oyt(Partition((2, 1)), N) == n * (n + 1) * (2 * n + 1) // 6


def test_oyt_transpose_swaps_counts():
    for shape in partitions_up_to(5, include_empty=False):
        for rows, v_count, h_count in iter_filling_rows(shape, 4):
            transposed = Tableau(shape, rows).conjugate()
            assert _is_ordered_filling([list(r) for r in transposed.rows], 4)
            flipped = [
                (v, h)
                for g, v, h in iter_filling_rows(shape.conjugate(), 4)
                if g == transposed.rows
            ]
            assert flipped[0] == (h_count, v_count)


def test_oyt_equality_count_bound():
    for shape in partitions_up_to(5, include_empty=False):
        for _, v_count, h_count in iter_filling_rows(shape, 4):
            assert v_count + h_count <= shape.size - 1


# ---------------------------------------------------------------------------
# zero-one layer tableaux


def test_bit_tableau_worked_example():
    bt = build_bit_tableau(Partition((4, 2, 2, 1)), (2, 1, 1, 0))
    assert bt.rows == ((0, 0, 0, 1), (0, 1), (1, 1), (1,))
    stats = bit_tableau_stats(bt)
    assert stats.one_ordered and stats.v1 == 2 and stats.h1 == 1


def test_bit_tableau_extremes():
    shape = Partition((3, 2))
    conj = shape.conjugate().parts
    all_zero = build_bit_tableau(shape, conj)
    assert all(f == 0 for row in all_zero.rows for f in row)
    assert bit_tableau_stats(all_zero) == (True, 0, 0)
    all_one = build_bit_tableau(shape, (0,) * shape.width)
    assert all(f == 1 for row in all_one.rows for f in row)


def test_bit_tableau_all_ones_square_not_one_ordered():
    bt = build_bit_tableau(Partition((2, 2)), (0, 0))
    stats = bit_tableau_stats(bt)
    assert stats == (False, 2, 2)


def test_bit_tableau_rejects_bad_baselines():
    shape = Partition((2, 2))
    with pytest.raises(ValueError):
        build_bit_tableau(shape, (0, 1))  # increasing
    with pytest.raises(ValueError):
        build_bit_tableau(shape, (3, 0))  # exceeds column height
    with pytest.raises(ValueError):
        build_bit_tableau(shape, (1,))  # wrong length


def test_admissible_baselines_small():
    got = list(admissible_baselines(Partition((2,))))
    assert got == [(1, 1), (1, 0), (0, 0)]
    assert list(admissible_baselines(Partition(()))) == [()]


def sub_partitions(shape: Partition):
    """Every sub-partition of the shape, padded with zeros to its height:
    the column heights of a baseline, read by rows."""
    for b in admissible_baselines(shape):
        yield tuple(sum(1 for x in b if x > i) for i in range(shape.height))


def test_layers_from_matches_bit_tableaux():
    """Every layer out of every sub-partition lands on a sub-partition, with
    the cells nu/mu, and the layers that complete a shape are its one-ordered
    zero-one tableaux: the baseline b is the conjugate of the state left
    below the layer, and the pair counts agree with bit_tableau_stats."""
    for shape in partitions_up_to(6, include_empty=False):
        parts = shape.parts
        states = set(sub_partitions(shape))
        completing = {}
        for mu in states:
            layers = _layers_from(parts, mu)
            assert len({(nu, v, h) for nu, v, h, _ in layers}) == len(layers)
            for nu, v, h, cells in layers:
                assert nu in states and nu != mu, (shape, mu, nu)
                # cells are numbered row by row over the whole shape
                assert cells == tuple(
                    sum(parts[:i]) + j for i in range(shape.height) for j in range(mu[i], nu[i])
                )
                if nu == parts:
                    sub = Partition(p for p in mu if p)
                    b = sub.conjugate().parts + (0,) * (shape.width - sub.width)
                    completing[b] = (v, h)
        expected = {}
        for b in admissible_baselines(shape):
            stats = bit_tableau_stats(build_bit_tableau(shape, b))
            if stats.one_ordered and b != shape.conjugate().parts:
                expected[b] = (stats.v1, stats.h1)
        assert completing == expected, shape


def test_depth_is_fewest_values():
    """From every sub-partition mu, the shape is reached by _depth(mu)
    nonempty layers and by no fewer."""
    assert _depth((3, 3, 3), (0, 0, 0)) == 3
    assert _depth((3, 3, 2), (0, 0, 0)) == 2
    for shape in partitions_up_to(6, include_empty=False):
        parts = shape.parts
        # fewest[mu]: the fewest nonempty layers from mu to the shape,
        # by breadth-first search from the shape down to every state.
        states = list(sub_partitions(shape))
        into = {mu: [] for mu in states}
        for mu in states:
            for nu, _, _, _ in _layers_from(parts, mu):
                into[nu].append(mu)
        fewest = {parts: 0}
        frontier = [parts]
        while frontier:
            nxt = []
            for nu in frontier:
                for mu in into[nu]:
                    if mu not in fewest:
                        fewest[mu] = fewest[nu] + 1
                        nxt.append(mu)
            frontier = nxt
        assert fewest == {mu: _depth(parts, mu) for mu in states}, shape
        depth = _depth(parts, (0,) * shape.height)
        assert count_oyt(shape, depth) == 0 < count_oyt(shape, depth + 1)


def _walk_whole(graph):
    """Build every transition of a graph, reaching every state."""
    stack, seen = [graph.start], {graph.start}
    while stack:
        for g, _, _ in graph.transitions(stack.pop()):
            t = graph.targets[g]
            if t is None:
                t = graph.reach(g)
            if t not in seen:
                seen.add(t)
                stack.append(t)


def test_layer_graph_matches_layers_from():
    """Built out to every state, each shape's graph holds every
    sub-partition, each state's transitions are its _layers_from as a set,
    with _depth of the target, sorted by depth, and no transition goes to
    a smaller id; a larger id never has fewer cells."""
    for shape in partitions_up_to(7):
        parts = shape.parts
        graph = LayerGraph(parts)
        _walk_whole(graph)
        assert set(graph.ids) == set(sub_partitions(shape)), shape
        assert all(graph.ids[mu] == s for s, mu in graph.states.items())
        by_id = sorted(graph.states)
        assert by_id[0] == graph.start
        sizes = [sum(graph.states[s]) for s in by_id]
        assert sizes == sorted(sizes), shape
        for s, mu in graph.states.items():
            assert graph.depth[s] == _depth(parts, mu)
            transitions = graph.transitions(s)
            depths = [d for _, d, _ in transitions]
            assert depths == sorted(depths), (shape, mu)
            got = {(graph.groups[g], d, graph.layers[layer]) for g, d, layer in transitions}
            assert len(got) == len(transitions)
            assert got == {
                ((nu, v, h), _depth(parts, nu), cells)
                for nu, v, h, cells in _layers_from(parts, mu)
            }, (shape, mu)
            for g, _, _ in transitions:
                assert graph.targets[g] > s
                assert graph.states[graph.targets[g]] == graph.groups[g][0]


def test_layer_graph_walks_every_filling():
    """Each ordered filling's chain of sub-partitions, one per value, steps
    along the graph's transitions (a value no cell holds stays put), and
    its layers' pair counts add up to the filling's; with the counts equal
    to the enumeration's, the graph's chains are exactly the fillings."""
    for shape in partitions_up_to(6):
        parts = shape.parts
        graph = LayerGraph(parts)
        _walk_whole(graph)
        steps = {}
        for s in graph.states:
            for g, _, _ in graph.transitions(s):
                steps[graph.states[s], graph.groups[g][0]] = graph.groups[g][1:]
        for rows, v, h in iter_filling_rows(shape, 5):
            chain = [tuple(sum(1 for x in row if x <= M) for row in rows) for M in range(5)]
            total_v = total_h = 0
            for mu, nu in zip(chain, chain[1:]):
                if mu != nu:
                    dv, dh = steps[mu, nu]
                    total_v, total_h = total_v + dv, total_h + dh
            assert (total_v, total_h) == (v, h), (shape, rows)
        for N in range(1, 8):
            assert count_oyt(shape, N) == sum(1 for _ in iter_filling_rows(shape, N)), (shape, N)


def _reached(parts, N):
    """The sub-partitions a walk with N - 1 values steps into: those that
    the fewest layers to build them and the fewest to complete the shape
    from them fit together."""
    shape = Partition(parts)
    return {
        mu for mu in sub_partitions(shape)
        if _depth(mu, (0,) * len(mu)) + _depth(parts, mu) <= N - 1
    }


def _refuse(*_):
    raise AssertionError("the walk took the other route")


def _diagonal_schur_value(parts, N):
    shape = Partition(parts)
    labels = values.DiagonalWeights({d: 2 for d in values.required_offsets(shape)})
    return values.schur_value(values.diagonal_tableau(shape, labels), N, values.rational_map())


def test_layer_graph_cache_stays_within_its_bound(monkeypatch):
    """The graphs the cache holds have at most ``bound`` transitions in all,
    as measured at each lookup, when no one graph passes it alone; a graph
    it dropped is built again, equal, on its next lookup."""
    assert layer_graph.bound == _CACHE_TRANSITIONS
    monkeypatch.setattr(layer_graph, "bound", 300)
    layer_graph.cache_clear()
    first = _diagonal_schur_value((4, 2, 1), 6)
    graph = layer_graph((4, 2, 1))
    assert 0 < graph.size <= 300
    looked_up = 0
    for shape in partitions_up_to(6, include_empty=False):
        _diagonal_schur_value(shape.parts, 5)
        grown = layer_graph(shape.parts)  # measures what the walk built
        held = layer_graph.held()
        assert held <= 300 or held == grown.size, shape
        looked_up += 1
    assert looked_up > 20 and (4, 2, 1) not in layer_graph
    assert _diagonal_schur_value((4, 2, 1), 6) == first
    rebuilt = layer_graph((4, 2, 1))
    assert rebuilt is not graph
    assert (rebuilt.states, rebuilt.groups, rebuilt.layers, rebuilt.size) == (
        graph.states, graph.groups, graph.layers, graph.size)
    layer_graph.cache_clear()


def test_layer_graph_holds_only_what_walks_reach(monkeypatch):
    """A walk builds the states it steps into and no others: at (7^7)@3
    the longest diagonal rules out every filling before any step, and at
    (5^5)@6 and (32,32)@4 the graph holds exactly the states the depth cut
    lets a walk reach.  Every state form shares that one cut: the tagged
    qsym step, the ``qseries:8`` coefficient lists and the N-free count
    reach exactly the same states, where the cut leaves some out."""
    rational = values.rational_map()
    layer_graph.cache_clear()
    square = Partition((7,) * 7)
    tab = values.diagonal_tableau(square, values.DiagonalWeights({d: 2 for d in range(-6, 7)}))
    assert values.schur_value(tab, 3, rational) == TPoly.zero(QQ)
    graph = layer_graph(square.parts)
    assert list(graph.states) == [graph.start] and graph.groups == []
    for parts, N in (((5,) * 5, 4), ((5,) * 5, 6), ((32, 32), 4)):
        shape = Partition(parts)
        labels = values.DiagonalWeights({d: 2 for d in values.required_offsets(shape)})
        values.schur_value(values.diagonal_tableau(shape, labels), N, rational)
        assert set(layer_graph(parts).ids) == _reached(parts, N) | {(0,) * len(parts)}, parts
    layer_graph.cache_clear()
    count_oyt(Partition((5,) * 5), 6)
    assert set(layer_graph((5,) * 5).ids) == _reached((5,) * 5, 6)
    cut = (((4, 4, 4), 4), ((5, 5, 5), 5), ((6, 6), 4))
    for parts, N in cut:
        assert len(_reached(parts, N)) < len(list(sub_partitions(Partition(parts))))
        layer_graph.cache_clear()
        count_oyt(Partition(parts), N)
        assert set(layer_graph(parts).ids) == _reached(parts, N), parts
    for spec, refused in (("qsym", "_Coefficients"), ("qseries:8", "_tagged_step")):
        cmap = values.coefficient_map_for(spec)
        with monkeypatch.context() as patch:
            patch.setattr(values, refused, _refuse)
            for parts, N in cut:
                shape = Partition(parts)
                labels = values.DiagonalWeights({d: 2 for d in values.required_offsets(shape)})
                layer_graph.cache_clear()
                values.schur_value(values.diagonal_tableau(shape, labels), N, cmap)
                assert set(layer_graph(parts).ids) == _reached(parts, N), (spec, parts)


def test_wide_shape_walks_few_states():
    """(32,32) has 561 sub-partitions, but at N = 4 the walk reaches only
    those a diagonal of at most three values allows; only theirs are built."""
    shape = Partition((32, 32))
    assert len(list(sub_partitions(shape))) == 561
    layer_graph.cache_clear()
    assert count_oyt(shape, 4) > 0
    assert len(layer_graph(shape.parts).states) < 561 // 4


def test_layer_graph_shared_by_threads():
    """Eight threads walk one fresh graph at once, each through the bounds
    in its own order, with the interpreter switching threads every
    microsecond: every count matches a lone walk's, and no sub-partition
    got two ids.  Five rounds, each on a new graph."""
    shape = Partition((4, 4, 3, 2))
    bounds = list(range(2, 10))
    expected = {N: count_oyt(shape, N) for N in bounds}

    def work(k, results, errors):
        try:
            order = bounds[k % len(bounds):] + bounds[:k % len(bounds)]
            results.extend((N, count_oyt(shape, N)) for N in order)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            layer_graph.cache_clear()
            graph = layer_graph(shape.parts)
            results, errors = [], []
            threads = [
                threading.Thread(target=work, args=(k, results, errors)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(results) == 8 * len(bounds)
            assert all(count == expected[N] for N, count in results)
            assert layer_graph(shape.parts) is graph
            assert len(graph.ids) == len(graph.states) == len(set(graph.ids.values()))
    finally:
        sys.setswitchinterval(interval)
