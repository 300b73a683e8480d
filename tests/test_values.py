"""Linear and Schur values: frozen examples, oracle cross-checks, symmetry."""

import math
import random
from fractions import Fraction

import pytest

from schurzeta.errors import DomainError
from schurzeta.rings import QQ, PolyRing, TPoly, ring_determinant
from schurzeta.shapes import (
    Partition,
    Tableau,
    enumerate_oyt,
    iter_filling_rows,
    partitions_up_to,
)
from schurzeta.values import (
    DiagonalWeights,
    coefficient_map_for,
    corner_condition,
    diagonal_tableau,
    linear_value,
    linear_value_by_recursion,
    linear_value_prefixes,
    merge_expansion,
    q_analogue_map,
    quasisymmetric_map,
    rational_map,
    required_offsets,
    schur_value,
)

RAT = rational_map()


def poly(*coeffs):
    return TPoly(QQ, [Fraction(c) for c in coeffs])


def chain_sum_oracle(keys, N):
    """Direct restatement of the defining sum, kept free of library code."""
    from itertools import combinations_with_replacement

    r = len(keys)
    acc = [Fraction(0)] * max(r, 1)
    if r == 0:
        return poly(1)
    for chain in combinations_with_replacement(range(1, N), r):
        e = sum(1 for i in range(r - 1) if chain[i] == chain[i + 1])
        term = Fraction(1)
        for k, m in zip(keys, chain):
            term *= Fraction(1, m**k) if k >= 0 else Fraction(m**-k)
        acc[e] += term
    return TPoly(QQ, acc)


def enumeration_oracle(tab, N, cmap):
    """The defining sum, filling by filling: every ordered filling adds the
    product of f(label, entry) times t^v (1-t)^h."""
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


def jt_row_determinant(shape, N, cmap, weights):
    """Row-reading Jacobi-Trudi determinant of a diagonal-constant tableau.

    Entries come from the peeling recursion, which equals linear_value
    (tested above) and stays fast at large N, where the chain enumeration
    of linear_value does not."""
    conj = shape.conjugate().parts
    n = shape.width
    matrix = [
        [
            linear_value_by_recursion(
                [weights[j - 1 - s] for s in range(conj[i] + j - 1 - i)], N, cmap
            )
            if conj[i] + j - 1 - i >= 0
            else TPoly.zero(cmap.ring)
            for j in range(1, n + 1)
        ]
        for i in range(n)
    ]
    return ring_determinant(matrix, PolyRing(cmap.ring))


# ---------------------------------------------------------------------------
# frozen small values


def test_column_value_2_2_at_n3():
    # pairs (1,1), (1,2), (2,2) with 1, 0, 1 equalities
    expected = Fraction(1, 4) + Fraction(0)  # t^0: the (1,2) pair
    t_coeff = Fraction(1) + Fraction(1, 16)  # (1,1) and (2,2)
    tab = Tableau.from_rows([[2], [2]])
    assert schur_value(tab, 3, RAT) == poly(expected, t_coeff)
    assert schur_value(tab, 3, RAT) == poly("1/4", "17/16")


def test_row_value_is_column_value_flipped():
    column = schur_value(Tableau.from_rows([[2], [2]]), 3, RAT)
    row = schur_value(Tableau.from_rows([[2, 2]]), 3, RAT)
    assert row == poly("21/16", "-17/16")
    assert row == column.subs_one_minus_t()


def test_trivial_values():
    empty = Tableau.from_rows([])
    assert schur_value(empty, 1, RAT) == poly(1)
    assert schur_value(empty, 9, RAT) == poly(1)
    assert schur_value(Tableau.from_rows([[2], [3]]), 1, RAT) == TPoly.zero(QQ)
    assert linear_value((), 3, RAT) == poly(1)
    assert linear_value((2,), 3, RAT) == poly("5/4")


def test_linear_value_matches_single_column_schur():
    rng = random.Random(5)
    for _ in range(20):
        r = rng.randint(1, 4)
        keys = [rng.randint(-2, 3) for _ in range(r)]
        N = rng.randint(1, 5)
        column = Tableau.from_rows([[k] for k in keys])
        assert linear_value(keys, N, RAT) == schur_value(column, N, RAT)


def test_linear_value_against_direct_oracle():
    rng = random.Random(6)
    for _ in range(30):
        r = rng.randint(0, 4)
        keys = [rng.randint(-1, 3) for _ in range(r)]
        N = rng.randint(1, 6)
        assert linear_value(keys, N, RAT) == chain_sum_oracle(keys, N)


@pytest.mark.parametrize(
    "cmap,lo,hi",
    [(RAT, -2, 3), (q_analogue_map(8), 1, 3), (quasisymmetric_map(), 1, 3)],
    ids=["rational", "qseries8", "qsym"],
)
def test_linear_value_prefixes_match_linear_value(cmap, lo, hi):
    rng = random.Random(12)
    cases = [((), N) for N in range(1, 7)] + [((2, 1, 3), 1)]
    for N in range(1, 7):
        for r in range(7):
            cases.append((tuple(rng.randint(lo, hi) for _ in range(r)), N))
    for keys, N in cases:
        prefixes = linear_value_prefixes(keys, N, cmap)
        assert len(prefixes) == len(keys) + 1
        for p, value in enumerate(prefixes):
            assert value == linear_value(keys[:p], N, cmap), (keys, N, p)


def test_linear_value_prefixes_edge_cases():
    assert linear_value_prefixes((), 1, RAT) == [TPoly.one(QQ)]
    assert linear_value_prefixes((2, 3), 1, RAT) == [poly(1), poly(), poly()]
    assert linear_value_prefixes((2, 2), 3, RAT) == [poly(1), poly("5/4"), poly("1/4", "17/16")]
    with pytest.raises(ValueError):
        linear_value_prefixes((2,), 0, RAT)


def test_top_coefficient_is_single_power_sum():
    # the t^(r-1) coefficient merges every key into one exponent
    for keys, N in [((2, 3, 2), 5), ((1, 1, 2), 4), ((2, 2, 2, 3), 5)]:
        value = linear_value(keys, N, RAT)
        expected = sum(Fraction(1, m ** sum(keys)) for m in range(1, N))
        assert value.coefficient(len(keys) - 1) == expected


# ---------------------------------------------------------------------------
# recursion and merge oracles


def test_recursion_base_case():
    for k, N in [(2, 3), (-1, 5), (3, 1)]:
        assert linear_value_by_recursion((k,), N, RAT) == linear_value((k,), N, RAT)


def test_recursion_frozen_examples():
    assert linear_value_by_recursion((2, 2), 3, RAT) == poly("1/4", "17/16")
    keys = (3, 2, 2)
    assert linear_value_by_recursion(keys, 5, RAT) == linear_value(keys, 5, RAT)


def test_merge_expansion_frozen_example():
    # two patterns: keep the comma (strict double sum) or merge (single sum)
    strict_2_2 = Fraction(1, 1 * 4)  # only m = (1, 2)
    merged_4 = Fraction(1) + Fraction(1, 16)
    assert merge_expansion((2, 2), 3) == TPoly(QQ, [strict_2_2, merged_4])
    assert merge_expansion((2, 2), 3) == linear_value((2, 2), 3, RAT)


def test_merge_expansion_single_key():
    assert merge_expansion((3,), 4) == linear_value((3,), 4, RAT)


def test_merge_expansion_random_tuples():
    rng = random.Random(8)
    for _ in range(40):
        keys = [rng.choice([-1, 0, 1, 2, 3]) for _ in range(4)]
        N = rng.randint(1, 6)
        assert merge_expansion(keys, N) == linear_value(keys, N, RAT)


# ---------------------------------------------------------------------------
# coefficient maps


def test_rational_map_negative_weights():
    assert RAT(-2, 3) == Fraction(9)
    assert RAT(0, 5) == Fraction(1)


@pytest.mark.parametrize(
    "cmap", [RAT, q_analogue_map(6), quasisymmetric_map()], ids=["rational", "qseries6", "qsym"]
)
def test_maps_reject_boolean_weights(cmap):
    # bool is an int subclass; True must not pass as the weight 1
    for k in (True, False):
        with pytest.raises(DomainError):
            cmap(k, 2)
    with pytest.raises(DomainError):
        linear_value((2, True), 3, cmap)


def test_q_map_rejects_nonpositive_weights():
    qm = q_analogue_map(6)
    with pytest.raises(DomainError):
        qm(0, 2)
    with pytest.raises(DomainError):
        linear_value((2, 0), 3, qm)


def test_qsym_map_values_and_domain():
    qs = quasisymmetric_map()
    x23 = qs(3, 2)
    assert x23.terms == {((2, 3),): 1}
    with pytest.raises(DomainError):
        qs(-1, 2)


def test_q_map_worked_values():
    from schurzeta.rings import QSeries, q_integer

    qm = q_analogue_map(4)
    # f(1, m) = 1/[m]_q
    assert qm(1, 2) == QSeries(4, [1, -1, 1, -1])
    # f(2, 2) = q^2 / (1+q)^2; multiplying back recovers q^2
    value = qm(2, 2)
    assert value * q_integer(2, 4) ** 2 == QSeries(4, [0, 0, 1])
    # high q-powers truncate to zero
    assert not qm(5, 3)


def test_coefficient_map_selector():
    assert coefficient_map_for("rational").name == "rational"
    assert coefficient_map_for("qseries:5").ring.order == 5
    assert coefficient_map_for("qsym").name == "qsym"
    with pytest.raises(ValueError):
        coefficient_map_for("floating")
    with pytest.raises(ValueError):
        coefficient_map_for("qseries:x")


def test_diagonal_weights_window():
    dw = DiagonalWeights({"-1": 2, "0": 3})
    assert dw[-1] == 2 and dw[0] == 3
    with pytest.raises(ValueError):
        dw[1]
    assert dw.to_json() == {"-1": 2, "0": 3}
    assert required_offsets(Partition((3, 1))) == range(-1, 3)
    assert diagonal_tableau(
        Partition((2, 1)), DiagonalWeights({-1: 7, 0: 8, 1: 9})
    ).rows == ((8, 9), (7,))


# ---------------------------------------------------------------------------
# structural properties


def test_conjugation_symmetry_all_maps():
    rng = random.Random(21)
    cases = [
        (RAT, (-2, 3)),
        (q_analogue_map(6), (1, 3)),
        (quasisymmetric_map(), (1, 3)),
    ]
    for cmap, (lo, hi) in cases:
        for shape in partitions_up_to(5, include_empty=False):
            for N in range(1, 6):
                rows = [[rng.randint(lo, hi) for _ in range(p)] for p in shape.parts]
                tab = Tableau(shape, rows)
                lhs = schur_value(tab, N, cmap).subs_one_minus_t()
                rhs = schur_value(tab.conjugate(), N, cmap)
                assert lhs == rhs, (cmap.name, shape, N, rows)


def test_specialization_at_zero_matches_strict_vertical_fillings():
    rng = random.Random(22)
    for shape in partitions_up_to(4, include_empty=False):
        rows = [[rng.randint(-1, 3) for _ in range(p)] for p in shape.parts]
        tab = Tableau(shape, rows)
        N = 4
        value_at_zero = schur_value(tab, N, RAT).evaluate(Fraction(0))
        expected = Fraction(0)
        for filling in enumerate_oyt(shape, N):
            if filling.v_count:
                continue
            term = Fraction(1)
            for (ri, row) in enumerate(filling.tableau.rows):
                for (ci, m) in enumerate(row):
                    k = rows[ri][ci]
                    term *= Fraction(1, m**k) if k >= 0 else Fraction(m**-k)
            expected += term
        assert value_at_zero == expected


@pytest.mark.parametrize(
    "cmap, weight_range",
    [(RAT, (-2, 3)), (q_analogue_map(8), (1, 3)), (quasisymmetric_map(), (1, 3))],
    ids=["rational", "qseries8", "qsym"],
)
def test_schur_value_matches_enumeration(cmap, weight_range):
    """Arbitrary tableaux, every shape with at most 6 cells, N = 1..5."""
    rng = random.Random(24)
    lo, hi = weight_range
    for shape in partitions_up_to(6):
        for N in range(1, 6):
            rows = [[rng.randint(lo, hi) for _ in range(p)] for p in shape.parts]
            tab = Tableau(shape, rows)
            assert schur_value(tab, N, cmap) == enumeration_oracle(tab, N, cmap), (
                shape, N, rows)


def test_schur_value_edge_cases():
    for cmap in (RAT, q_analogue_map(8), quasisymmetric_map()):
        empty = Tableau.from_rows([])
        for N in (1, 2, 5):
            assert schur_value(empty, N, cmap) == TPoly.one(cmap.ring)
            assert enumeration_oracle(empty, N, cmap) == TPoly.one(cmap.ring)
        single = Tableau.from_rows([[2, 1], [3]])
        assert schur_value(single, 1, cmap) == TPoly.zero(cmap.ring)
        assert enumeration_oracle(single, 1, cmap) == TPoly.zero(cmap.ring)
    # a diagonal of three cells needs three distinct values
    tab = Tableau.from_rows([[1, 2, 2], [2, 1, 3], [2, 2, 1]])
    assert schur_value(tab, 3, RAT) == TPoly.zero(QQ)
    assert schur_value(tab, 4, RAT) == enumeration_oracle(tab, 4, RAT) != TPoly.zero(QQ)


def test_schur_value_large_instance_matches_jacobi_trudi():
    """(4,3,2,1) at N = 30: far beyond filling enumeration."""
    shape = Partition((4, 3, 2, 1))
    weights = DiagonalWeights({d: 2 + d % 2 for d in required_offsets(shape)})
    value = schur_value(diagonal_tableau(shape, weights), 30, RAT)
    assert value and value == jt_row_determinant(shape, 30, RAT, weights)


def test_degree_bound():
    rng = random.Random(23)
    for shape in partitions_up_to(5, include_empty=False):
        rows = [[rng.randint(-1, 3) for _ in range(p)] for p in shape.parts]
        value = schur_value(Tableau(shape, rows), 4, RAT)
        assert value.degree <= shape.size - 1


# ---------------------------------------------------------------------------
# corner condition


def test_corner_condition_examples():
    hook = Tableau.from_rows([[1, 2], [2]])
    assert corner_condition(hook) is True
    assert corner_condition(Tableau.from_rows([[1]])) is False
    for shape in partitions_up_to(4, include_empty=False):
        all_twos = Tableau(shape, [[2] * p for p in shape.parts])
        assert corner_condition(all_twos) is True


def test_corner_condition_inner_zero_fails():
    assert corner_condition(Tableau.from_rows([[0, 2], [2]])) is False
