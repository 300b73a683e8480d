"""Determinant matrices, the determinant identities, and palindromy."""

import random
from fractions import Fraction

import pytest

from schurzeta import rings, values
from schurzeta.rings import PolyRing, QQ, TPoly, _scaled_determinant, ring_determinant
from schurzeta.shapes import Partition, partitions_up_to
from schurzeta.jacobi_trudi import (
    _determinants,
    _h_matrix,
    palindrome_weights,
    verify_palindromic_matrix,
)
from schurzeta.values import (
    DiagonalWeights,
    diagonal_tableau,
    linear_value,
    q_analogue_map,
    quasisymmetric_map,
    rational_map,
    required_offsets,
    schur_value,
)

from chain_enumeration import chain_sum_oracle
from row_matrices import as_tpolys, assert_stands_for

RAT = rational_map()


def e_matrix(shape, N, cmap, weights):
    """The column-reading ("E") matrix of a shape, entry by entry: (i, j) is
    the linear value of the ascending offsets a_(1-j), a_(2-j), ... of length
    part_i - i + j, at 1-t; one at length zero, zero below it.  The package
    builds no E matrix, so this, with its entries summed chain by chain, is
    the oracle for its det_e."""
    parts = shape.parts

    def entry(i, j):
        length = parts[i - 1] - i + j
        if length < 0:
            return TPoly.zero(cmap.ring)
        keys = [weights[1 - j + s] for s in range(length)]
        return chain_sum_oracle(keys, N, cmap).subs_one_minus_t()

    n = shape.height
    return [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def h_matrix(shape, N, cmap, weights, value=chain_sum_oracle):
    """The row-reading ("H") matrix of a shape, entry by entry: (i, j) is
    value(keys, N, cmap) for the descending offsets a_(j-1), a_(j-2), ... of
    length conjugate_i + j - i; one at length zero, zero below it.  The
    oracle for the package's ``_h_matrix``, which writes the determinant
    format straight from prefix-DP columns."""
    conj = shape.conjugate().parts

    def entry(i, j):
        length = conj[i - 1] + j - i
        if length < 0:
            return TPoly.zero(cmap.ring)
        return value([weights[j - 1 - s] for s in range(length)], N, cmap)

    n = shape.width
    return [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def det_h(shape, N, cmap, weights):
    """The package's H determinant, from its (rows, D) matrix, divided."""
    return _scaled_determinant(_h_matrix(shape, N, cmap, weights), cmap.ring).divided()


def jt_sides(shape, N, cmap, weights):
    """The Schur value by the layer walk and both determinants, divided."""
    det_h, det_e = _determinants(shape, N, cmap, weights)
    schur = schur_value(diagonal_tableau(shape, weights), N, cmap)
    return schur, det_h.divided(), det_e.divided()


def jt_matrix(shape, side, N, cmap, weights):
    """The row-reading ("H") or column-reading ("E") matrix of a shape."""
    build = {"H": h_matrix, "E": e_matrix}[side]
    return build(Partition(shape), N, cmap, weights)


def test_h_matrix_single_column_shape():
    dw = DiagonalWeights({-1: 3, 0: 2})
    matrix = _h_matrix(Partition((1, 1)), 4, RAT, dw)
    assert_stands_for(matrix, [[chain_sum_oracle([dw[0], dw[-1]], 4, RAT)]], QQ)
    # A one-row matrix is over D itself: L^K, L = lcm(1, 2, 3), K = 3 + 2.
    assert matrix[1] == 6**5


def test_h_matrix_hook_structure():
    dw = DiagonalWeights({-1: 3, 0: 2, 1: 2})
    expected = [
        [chain_sum_oracle([dw[0], dw[-1]], 4, RAT),
         chain_sum_oracle([dw[1], dw[0], dw[-1]], 4, RAT)],
        [TPoly.one(QQ), chain_sum_oracle([dw[1]], 4, RAT)],  # index length zero
    ]
    assert_stands_for(_h_matrix(Partition((2, 1)), 4, RAT, dw), expected, QQ)


def test_h_matrix_row_shape_is_almost_triangular():
    # single-row shapes produce a unit subdiagonal with zeros below it and
    # a determinant equal to the reversed-index value at 1-t
    keys = (2, 3, 2, 3)
    r = len(keys)
    dw = DiagonalWeights({d: keys[d] for d in range(r)})
    shape = Partition((r,))
    for N in range(1, 6):
        matrix = jt_matrix((r,), "H", N, RAT, dw)
        for i in range(r):
            for j in range(r):
                if j == i - 1:
                    assert matrix[i][j] == TPoly.one(QQ)
                elif j < i - 1:
                    assert matrix[i][j] == TPoly.zero(QQ)
                else:
                    expected = chain_sum_oracle(
                        [keys[j - s] for s in range(j - i + 1)], N, RAT
                    )
                    assert matrix[i][j] == expected
        assert_stands_for(_h_matrix(shape, N, RAT, dw), matrix, QQ)
        flipped_column = chain_sum_oracle(keys, N, RAT).subs_one_minus_t()
        assert ring_determinant(matrix, PolyRing(QQ)) == flipped_column
        assert det_h(shape, N, RAT, dw) == flipped_column


def test_jt_matrix_needs_full_window():
    with pytest.raises(ValueError):
        _h_matrix(Partition((2, 1)), 3, RAT, DiagonalWeights({0: 2}))


def test_verify_single_column_trivial():
    dw = DiagonalWeights({d: 2 for d in range(-3, 1)})
    schur, det_h, det_e = jt_sides(Partition((1, 1, 1)), 4, RAT, dw)
    assert schur == det_h == det_e


def test_verify_hook_all_twos():
    dw = DiagonalWeights({-1: 2, 0: 2, 1: 2})
    schur, det_h, det_e = jt_sides(Partition((2, 1)), 4, RAT, dw)
    assert schur == det_h == det_e


def test_verify_q_ring_square():
    dw = DiagonalWeights({-1: 2, 0: 1, 1: 2})
    schur, det_h, det_e = jt_sides(Partition((2, 2)), 4, q_analogue_map(8), dw)
    assert schur == det_h == det_e


def test_verify_qsym_ring():
    dw = DiagonalWeights({-1: 1, 0: 2, 1: 1})
    schur, det_h, det_e = jt_sides(Partition((2, 2)), 4, quasisymmetric_map(), dw)
    assert schur == det_h == det_e


def test_verify_empty_shape():
    schur, det_h, det_e = jt_sides(Partition(()), 3, RAT, DiagonalWeights({}))
    assert schur == det_h == det_e == TPoly.one(QQ)


@pytest.mark.parametrize(
    "parts,N,cmap", [((16, 16), 4, RAT), ((4, 4, 4), 5, quasisymmetric_map())],
    ids=["16,16@4-rational", "4,4,4@5-qsym"],
)
def test_determinants_run_no_walk(parts, N, cmap, monkeypatch):
    # Both determinants come from linear values alone: with the Schur walk
    # made to raise, they still equal the value it gave before.
    shape = Partition(parts)
    rng = random.Random(N)
    dw = DiagonalWeights({d: rng.randint(1, 3) for d in required_offsets(shape)})
    schur = schur_value(diagonal_tableau(shape, dw), N, cmap)

    def no_walk(*args):
        raise AssertionError("the Schur walk ran")

    monkeypatch.setattr(values, "_schur_value", no_walk)
    det_h, det_e = _determinants(shape, N, cmap, dw)
    assert det_h.divided() == det_e.divided() == schur != TPoly.zero(cmap.ring)


def test_conjugation_coherence_between_sides():
    # the H determinant of a shape and the E determinant of its conjugate
    # (built entry by entry on the reflected window) are related by t -> 1-t
    rng = random.Random(51)
    poly_ring = PolyRing(QQ)
    for shape in partitions_up_to(5, include_empty=False):
        dw = DiagonalWeights({d: rng.randint(-2, 3) for d in required_offsets(shape)})
        reflected = DiagonalWeights({-d: k for d, k in dw.items()})
        det_e_conj = ring_determinant(
            jt_matrix(shape.conjugate().parts, "E", 4, RAT, reflected),
            poly_ring,
        )
        assert det_h(shape, 4, RAT, dw) == det_e_conj.subs_one_minus_t()


CMAPS = [RAT, q_analogue_map(8), quasisymmetric_map()]
CMAP_IDS = ["rational", "qseries8", "qsym"]


@pytest.mark.parametrize("cmap", CMAPS, ids=CMAP_IDS)
def test_matrix_entries_are_linear_values(cmap):
    # Every H entry, built column by column from prefixes, equals the linear
    # value of its own key list; the E matrix of a shape is the H matrix of
    # its conjugate on the reflected window, entrywise at 1-t.
    rng = random.Random(61)
    for shape in partitions_up_to(5, include_empty=False):
        dw = DiagonalWeights({d: rng.randint(1, 3) for d in required_offsets(shape)})
        assert_stands_for(_h_matrix(shape, 4, cmap, dw), h_matrix(shape, 4, cmap, dw), cmap.ring)
        reflected = DiagonalWeights({-d: k for d, k in dw.items()})
        e = jt_matrix(shape.parts, "E", 4, cmap, dw)
        assert_stands_for(
            _h_matrix(shape.conjugate(), 4, cmap, reflected),
            [[x.subs_one_minus_t() for x in row] for row in e],
            cmap.ring,
        )


@pytest.mark.parametrize("cmap", CMAPS, ids=CMAP_IDS)
def test_det_e_matches_entrywise_e_matrix(cmap):
    # det_e substitutes t -> 1-t once, in the H determinant of the
    # conjugate; the oracle substitutes in every entry and takes the
    # determinant of the column-reading matrix itself.
    rng = random.Random(71)
    poly_ring = PolyRing(cmap.ring)
    for shape in partitions_up_to(5, include_empty=False):
        dw = DiagonalWeights({d: rng.randint(1, 3) for d in required_offsets(shape)})
        schur, det_h, det_e = jt_sides(shape, 4, cmap, dw)
        assert det_e == ring_determinant(e_matrix(shape, 4, cmap, dw), poly_ring)
        assert schur == det_h == det_e


@pytest.mark.parametrize(
    "parts,degree", [((9, 9, 9), 24), ((10, 8, 3), 18)], ids=["9,9,9", "10,8,3"]
)
def test_verify_wide_rational_shapes(parts, degree):
    # 9x9 and 10x10 H determinants against the layer DP and the 3x3 E side
    shape = Partition(parts)
    rng = random.Random(sum(parts))
    dw = DiagonalWeights({d: rng.randint(1, 3) for d in required_offsets(shape)})
    schur, det_h, det_e = jt_sides(shape, 5, RAT, dw)
    assert schur == det_h == det_e
    assert det_h.degree == degree


@pytest.mark.parametrize("n,degree", [(16, 30), (20, 38)])
def test_wide_two_row_h_determinant_is_schur_value(n, degree):
    # n x n H matrices of full rank, far past what the Laplace expansion
    # reaches, against the layer DP.
    shape = Partition((n, n))
    rng = random.Random(n)
    dw = DiagonalWeights({d: rng.randint(1, 3) for d in required_offsets(shape)})
    det = det_h(shape, 4, RAT, dw)
    assert det == schur_value(diagonal_tableau(shape, dw), 4, RAT)
    assert det.degree == degree


def test_verify_wide_qseries_shape():
    # A 10x10 H determinant over dense order-8 series; the layer DP
    # multiplies such series at every step.
    shape = Partition((10, 8, 3))
    dw = DiagonalWeights({d: 2 if d == 0 else 1 for d in required_offsets(shape)})
    schur, det_h, det_e = jt_sides(shape, 5, q_analogue_map(8), dw)
    assert schur == det_h == det_e
    assert det_h.degree == 12


def test_negative_weights_allowed():
    dw = DiagonalWeights({-2: -2, -1: 0, 0: -1, 1: 3, 2: 1})
    schur, det_h, det_e = jt_sides(Partition((3, 2, 1)), 4, RAT, dw)
    assert schur == det_h == det_e


# ---------------------------------------------------------------------------
# palindromic determinants


def test_palindrome_weights_window():
    dw = palindrome_weights((2, 3))
    assert dw.to_json() == {"-1": 3, "0": 2, "1": 3}


def test_palindrome_single_key_is_constant():
    rep = verify_palindromic_matrix((2,), 4)
    assert rep.equal
    assert rep.poly_scaled.divided().degree <= 0  # a single sum has no equalities


def test_palindrome_frozen_cases():
    assert verify_palindromic_matrix((2, 3), 4).equal
    assert verify_palindromic_matrix((2, 2, 2), 3).equal


@pytest.mark.parametrize(
    "keys,degree", [((2, 3, 2), 6), ((2, 3, 2, 3), -1)], ids=["r3-nonzero", "r4-zero"]
)
def test_palindrome_is_square_schur_value(keys, degree):
    # The palindromic determinant is the Schur value of the r x r square.
    # Its main diagonal needs r distinct values, so at r >= N it vanishes
    # and the palindromy check compares 0 with 0.
    r = len(keys)
    rep = verify_palindromic_matrix(keys, 4)
    square = diagonal_tableau(Partition((r,) * r), palindrome_weights(keys))
    value = rep.poly_scaled.divided()
    assert value == schur_value(square, 4, RAT)
    assert value.degree == degree


def test_full_rank_palindrome_matches_laplace():
    # At N > r the square-shape determinant does not vanish; the Laplace
    # expansion is the oracle for the elimination.
    # The Laplace expansion runs on the same integer rows, divided by D
    # after, and their entries are read against per-entry linear values.
    keys = (2, 3, 2, 3, 3, 2, 3, 2)
    rep = verify_palindromic_matrix(keys, 9)
    value = rep.poly_scaled.divided()
    assert rep.equal and value.degree == 56
    shape, dw = Partition((8,) * 8), palindrome_weights(keys)
    rows, denominator = matrix = _h_matrix(shape, 9, RAT, dw)
    assert_stands_for(matrix, h_matrix(shape, 9, RAT, dw, value=linear_value), QQ)
    laplace = rings._laplace(as_tpolys(rows), PolyRing(QQ))
    assert value == laplace.scale(Fraction(1, denominator))


def test_palindrome_rejects_empty():
    with pytest.raises(ValueError):
        verify_palindromic_matrix((), 4)
