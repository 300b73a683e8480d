"""Determinant matrices, the determinant identities, and palindromy."""

import random

import pytest

from schurzeta.rings import PolyRing, QQ, TPoly, ring_determinant
from schurzeta.shapes import Partition, partitions_up_to
from schurzeta.jacobi_trudi import (
    JTMatrixSpec,
    build_jt_matrix,
    palindrome_weights,
    verify_jacobi_trudi,
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

RAT = rational_map()


def spec(shape, side, N, cmap, weights):
    return JTMatrixSpec(Partition(shape), side, N, cmap, weights)


def test_h_matrix_single_column_shape():
    dw = DiagonalWeights({-1: 3, 0: 2})
    matrix = build_jt_matrix(spec((1, 1), "H", 4, RAT, dw))
    assert len(matrix) == 1
    assert matrix[0][0] == linear_value([dw[0], dw[-1]], 4, RAT)


def test_h_matrix_hook_structure():
    dw = DiagonalWeights({-1: 3, 0: 2, 1: 2})
    matrix = build_jt_matrix(spec((2, 1), "H", 4, RAT, dw))
    assert matrix[0][0] == linear_value([dw[0], dw[-1]], 4, RAT)
    assert matrix[0][1] == linear_value([dw[1], dw[0], dw[-1]], 4, RAT)
    assert matrix[1][0] == TPoly.one(QQ)  # index length zero
    assert matrix[1][1] == linear_value([dw[1]], 4, RAT)


def test_h_matrix_row_shape_is_almost_triangular():
    # single-row shapes produce a unit subdiagonal with zeros below it and
    # a determinant equal to the reversed-index value at 1-t
    keys = (2, 3, 2, 3)
    r = len(keys)
    dw = DiagonalWeights({d: keys[d] for d in range(r)})
    for N in range(1, 6):
        matrix = build_jt_matrix(spec((r,), "H", N, RAT, dw))
        for i in range(r):
            for j in range(r):
                if j == i - 1:
                    assert matrix[i][j] == TPoly.one(QQ)
                elif j < i - 1:
                    assert matrix[i][j] == TPoly.zero(QQ)
                else:
                    expected = linear_value(
                        [keys[j - s] for s in range(j - i + 1)], N, RAT
                    )
                    assert matrix[i][j] == expected
        det = ring_determinant(matrix, PolyRing(QQ))
        flipped_column = linear_value(keys, N, RAT).subs_one_minus_t()
        assert det == flipped_column


def test_build_jt_matrix_rejects_unknown_side():
    dw = DiagonalWeights({0: 2})
    with pytest.raises(ValueError):
        build_jt_matrix(spec((1,), "X", 3, RAT, dw))


def test_jt_matrix_needs_full_window():
    with pytest.raises(ValueError):
        build_jt_matrix(spec((2, 1), "H", 3, RAT, DiagonalWeights({0: 2})))


def test_verify_single_column_trivial():
    dw = DiagonalWeights({d: 2 for d in range(-3, 1)})
    rep = verify_jacobi_trudi(Partition((1, 1, 1)), 4, RAT, dw)
    assert rep.equal
    assert rep.det_h == rep.schur


def test_verify_hook_all_twos():
    dw = DiagonalWeights({-1: 2, 0: 2, 1: 2})
    rep = verify_jacobi_trudi(Partition((2, 1)), 4, RAT, dw)
    assert rep.equal


def test_verify_q_ring_square():
    dw = DiagonalWeights({-1: 2, 0: 1, 1: 2})
    rep = verify_jacobi_trudi(Partition((2, 2)), 4, q_analogue_map(8), dw)
    assert rep.equal


def test_verify_qsym_ring():
    dw = DiagonalWeights({-1: 1, 0: 2, 1: 1})
    rep = verify_jacobi_trudi(Partition((2, 2)), 4, quasisymmetric_map(), dw)
    assert rep.equal


def test_verify_empty_shape():
    rep = verify_jacobi_trudi(Partition(()), 3, RAT, DiagonalWeights({}))
    assert rep.equal and rep.schur == TPoly.one(QQ)


def test_conjugation_coherence_between_sides():
    # the H matrix of a shape and the E matrix of its conjugate (built on
    # the reflected window) are entrywise related by t -> 1-t
    rng = random.Random(51)
    poly_ring = PolyRing(QQ)
    for shape in partitions_up_to(5, include_empty=False):
        dw = DiagonalWeights({d: rng.randint(-2, 3) for d in required_offsets(shape)})
        reflected = DiagonalWeights({-d: k for d, k in dw.items()})
        det_h = ring_determinant(build_jt_matrix(spec(shape.parts, "H", 4, RAT, dw)), poly_ring)
        det_e_conj = ring_determinant(
            build_jt_matrix(spec(shape.conjugate().parts, "E", 4, RAT, reflected)),
            poly_ring,
        )
        assert det_h == det_e_conj.subs_one_minus_t()


@pytest.mark.parametrize(
    "cmap", [RAT, q_analogue_map(8), quasisymmetric_map()], ids=["rational", "qseries8", "qsym"]
)
def test_matrix_entries_are_linear_values(cmap):
    # Every entry, built column by column from prefixes, equals the linear
    # value of its own key list (at 1-t on the E side).
    rng = random.Random(61)
    for shape in partitions_up_to(5, include_empty=False):
        dw = DiagonalWeights({d: rng.randint(1, 3) for d in required_offsets(shape)})
        conj = shape.conjugate().parts
        h = build_jt_matrix(spec(shape.parts, "H", 4, cmap, dw))
        for i in range(1, shape.width + 1):
            for j in range(1, shape.width + 1):
                length = conj[i - 1] + j - i
                keys = [dw[j - 1 - s] for s in range(length)]
                expected = linear_value(keys, 4, cmap) if length >= 0 else TPoly.zero(cmap.ring)
                assert h[i - 1][j - 1] == expected
        e = build_jt_matrix(spec(shape.parts, "E", 4, cmap, dw))
        for i in range(1, shape.height + 1):
            for j in range(1, shape.height + 1):
                length = shape.parts[i - 1] - i + j
                keys = [dw[1 - j + s] for s in range(length)]
                expected = (
                    linear_value(keys, 4, cmap).subs_one_minus_t()
                    if length >= 0
                    else TPoly.zero(cmap.ring)
                )
                assert e[i - 1][j - 1] == expected


@pytest.mark.parametrize(
    "parts,degree", [((9, 9, 9), 24), ((10, 8, 3), 18)], ids=["9,9,9", "10,8,3"]
)
def test_verify_wide_rational_shapes(parts, degree):
    # 9x9 and 10x10 H determinants against the layer DP and the 3x3 E side
    shape = Partition(parts)
    rng = random.Random(sum(parts))
    dw = DiagonalWeights({d: rng.randint(1, 3) for d in required_offsets(shape)})
    rep = verify_jacobi_trudi(shape, 5, RAT, dw)
    assert rep.schur == rep.det_h == rep.det_e
    assert rep.det_h.degree == degree


def test_negative_weights_allowed():
    dw = DiagonalWeights({-2: -2, -1: 0, 0: -1, 1: 3, 2: 1})
    rep = verify_jacobi_trudi(Partition((3, 2, 1)), 4, RAT, dw)
    assert rep.equal


# ---------------------------------------------------------------------------
# palindromic determinants


def test_palindrome_weights_window():
    dw = palindrome_weights((2, 3))
    assert dw.to_json() == {"-1": 3, "0": 2, "1": 3}


def test_palindrome_single_key_is_constant():
    rep = verify_palindromic_matrix((2,), 4)
    assert rep.equal
    assert rep.poly.degree <= 0  # a single sum has no equalities


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
    assert rep.poly == schur_value(square, 4, RAT)
    assert rep.poly.degree == degree


def test_palindrome_rejects_empty():
    with pytest.raises(ValueError):
        verify_palindromic_matrix((), 4)
