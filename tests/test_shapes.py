"""Partitions, ordered-filling enumeration, and zero-one layer tableaux."""

import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from schurzeta.shapes import (
    Partition,
    Tableau,
    admissible_baselines,
    bit_tableau_stats,
    build_bit_tableau,
    _depth,
    _layers_from,
    count_oyt,
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
    the cells nu/mu and the depth of nu, and the layers that complete a shape are its one-ordered
    zero-one tableaux: the baseline b is the conjugate of the state left
    below the layer, and the pair counts agree with bit_tableau_stats."""
    for shape in partitions_up_to(6, include_empty=False):
        parts = shape.parts
        states = set(sub_partitions(shape))
        completing = {}
        for mu in states:
            layers = _layers_from(parts, mu)
            assert len({key for key, _, _ in layers}) == len(layers)
            for (nu, v, h), depth, cells in layers:
                assert nu in states and nu != mu, (shape, mu, nu)
                assert depth == _depth(parts, nu)
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
            for (nu, _, _), _, _ in _layers_from(parts, mu):
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


def test_wide_shape_walks_few_states():
    """(32,32) has 561 sub-partitions, but at N = 4 the walk reaches only
    those a diagonal of at most three values allows; only theirs are built."""
    shape = Partition((32, 32))
    assert len(list(sub_partitions(shape))) == 561
    _layers_from.cache_clear()
    assert count_oyt(shape, 4) > 0
    assert _layers_from.cache_info().currsize < 561 // 4
