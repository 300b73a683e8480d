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
    brute_force_count_oyt,
    build_bit_tableau,
    corners,
    count_oyt,
    enumerate_oyt,
    iter_filling_rows,
    layer_table,
    partitions_of,
    partitions_up_to,
)

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


def test_corners_examples():
    assert corners(Partition((3, 2, 2, 1))) == {(1, 3), (3, 2), (4, 1)}
    assert corners(Partition((1,))) == {(1, 1)}
    assert corners(Partition((2, 2))) == {(2, 2)}
    assert corners(Partition(())) == set()


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
    fillings = {f.tableau.rows for f in enumerate_oyt(Partition((2, 2)), 4)}
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
        f for f in enumerate_oyt(shape, 5) if f.tableau.rows == tuple(map(tuple, rows))
    ]
    assert len(match) == 1
    assert match[0].v_count == 3
    assert match[0].h_count == 1


def test_oyt_trivial_streams():
    assert [f.tableau.rows for f in enumerate_oyt(Partition(()), 1)] == [()]
    only = list(enumerate_oyt(Partition(()), 9))
    assert len(only) == 1 and only[0].v_count == 0 and only[0].h_count == 0
    assert list(enumerate_oyt(Partition((2, 1)), 1)) == []


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
        for f in enumerate_oyt(shape, 4):
            transposed = f.tableau.conjugate()
            assert _is_ordered_filling([list(r) for r in transposed.rows], 4)
            flipped = [
                g
                for g in enumerate_oyt(shape.conjugate(), 4)
                if g.tableau.rows == transposed.rows
            ]
            assert flipped[0].v_count == f.h_count
            assert flipped[0].h_count == f.v_count


def test_oyt_equality_count_bound():
    for shape in partitions_up_to(5, include_empty=False):
        for f in enumerate_oyt(shape, 4):
            assert f.v_count + f.h_count <= shape.size - 1


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


def test_layer_table_matches_bit_tableaux():
    """The layers that complete a shape are its one-ordered zero-one
    tableaux: the baseline b is the conjugate of the state left below the
    layer, and the pair counts agree with bit_tableau_stats."""
    for shape in partitions_up_to(6, include_empty=False):
        table = layer_table(shape)
        assert table.states[0] == (0,) * shape.height
        assert table.states[-1] == shape.parts
        last = len(table.states) - 1
        from_table = {}
        for source, target, layer in table.steps:
            if target == last:
                mu = Partition(p for p in table.states[source] if p)
                b = mu.conjugate().parts + (0,) * (shape.width - mu.width)
                from_table[b] = (table.layers[layer].v, table.layers[layer].h)
        expected = {}
        for b in admissible_baselines(shape):
            stats = bit_tableau_stats(build_bit_tableau(shape, b))
            if stats.one_ordered and b != shape.conjugate().parts:
                expected[b] = (stats.v1, stats.h1)
        assert from_table == expected, shape


def test_layer_table_depth_is_fewest_values():
    assert layer_table(Partition((3, 3, 3))).depth[0] == 3
    assert layer_table(Partition((3, 3, 2))).depth[0] == 2
    for shape in partitions_up_to(6, include_empty=False):
        depth = layer_table(shape).depth[0]
        assert count_oyt(shape, depth) == 0 < count_oyt(shape, depth + 1)
