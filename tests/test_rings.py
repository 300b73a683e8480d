"""Ring arithmetic: exactness, axioms, determinants, substitution."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from schurzeta import rings
from schurzeta.errors import DomainError, NonInvertibleError
from schurzeta.jacobi_trudi import _h_matrix, palindrome_weights
from schurzeta.shapes import Partition
from schurzeta.values import q_analogue_map, rational_map
from schurzeta.rings import (
    MonomialPolynomial,
    PolyRing,
    QQ,
    QSeries,
    QSeriesRing,
    QsymRing,
    ScaledPoly,
    TPoly,
    format_numerators,
    format_rational,
    q_integer,
    ring_determinant,
)

from monomial_reference import merge_keys, reference_product, reference_sum
from row_matrices import as_tpolys, assert_stands_for


def permutation_determinant(matrix, ring):
    """Independent oracle: the signed sum over all permutations."""
    n = len(matrix)
    total = ring.zero
    for sigma in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
        )
        term = ring.one
        for i in range(n):
            term = term * matrix[i][sigma[i]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_tpoly(rng, max_degree=3):
    return TPoly(QQ, [random_fraction(rng) for _ in range(rng.randint(0, max_degree + 1))])


def random_qseries(rng, order=8):
    return QSeries(order, [random_fraction(rng) for _ in range(order)])


def random_monomial_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = tuple(
            sorted((rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
        )
        exps = {}
        for v, e in key:
            exps[v] = exps.get(v, 0) + e
        terms[tuple(sorted(exps.items()))] = rng.randint(-5, 5)
    return MonomialPolynomial(terms)


# ---------------------------------------------------------------------------
# rationals


def test_rational_serialization_round_trip():
    assert format_rational(Fraction(1, 4)) == "1/4"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(Fraction(3)) == "3"


def test_numerators_render_as_their_fractions():
    # Each coefficient c over D of a trimmed list renders as Fraction(c, D)
    # does.
    rng = random.Random(17)
    for _ in range(300):
        D = rng.choice([1, 1, rng.randint(1, 12), rng.randint(1, 10**30)])
        cs = [rng.choice([0, rng.randint(-50, 50), rng.randint(-10**40, 10**40)])
              for _ in range(rng.randint(0, 5))]
        while cs and not cs[-1]:
            cs.pop()
        assert format_numerators(cs, D) == TPoly(QQ, [Fraction(c, D) for c in cs]).to_json()
        for c in cs:
            assert format_numerators([c, 1], D)[0] == format_rational(Fraction(c, D))
    assert format_numerators([], 7) == [] and format_numerators([0, 3], 6) == ["0", "1/2"]
    assert format_numerators([-4, 6], 1) == ["-4", "6"]


def random_scaled(rng):
    """An undivided rational t-polynomial: integer numerators over D."""
    D = rng.choice([1, rng.randint(1, 12), 6 ** rng.randint(0, 8)])
    cs = [rng.choice([0, rng.randint(-30, 30), rng.randint(-10**20, 10**20)])
          for _ in range(rng.randint(0, 4))]
    return ScaledPoly(TPoly(rings._ZZ, cs), D)


def test_scaled_values_compare_render_and_substitute_as_their_quotients():
    rng = random.Random(23)
    for _ in range(300):
        a = random_scaled(rng)
        k = rng.randint(1, 5)
        same = ScaledPoly(TPoly(rings._ZZ, [c * k for c in a.poly.coeffs]), a.denominator * k)
        b = rng.choice([same, random_scaled(rng)])
        assert (a == b) == (a.divided() == b.divided())
        assert a == same and a.divided() == same.divided()
        divided = a.divided()
        assert divided.ring == QQ and all(type(c) is Fraction for c in divided.coeffs)
        assert a.to_json() == divided.to_json() == same.to_json()
        assert a.subs_one_minus_t().divided() == divided.subs_one_minus_t()
    # Over any other ring D is one and the value is its own TPoly.
    q = TPoly(QSeriesRing(4), [QSeries(4, [1, 2])])
    assert ScaledPoly(q).divided() is q and ScaledPoly(q).to_json() == q.to_json()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_scaled_determinant_is_the_determinant_of_the_quotients(n):
    # Rows of integer coefficient lists, each row over its own denominator
    # and D their product: the determinant over D is the determinant of the
    # quotients.
    rng = random.Random(31 + n)
    for _ in range(20):
        scales = [random_scaled(rng).denominator for _ in range(n)]
        rows = [[list(random_scaled(rng).poly.coeffs) for _ in range(n)] for _ in range(n)]
        divided = [
            [TPoly(QQ, [Fraction(c, d) for c in coeffs]) for coeffs in row]
            for row, d in zip(rows, scales)
        ]
        det = rings._scaled_determinant((rows, math.prod(scales)), QQ)
        assert det.poly.ring is rings._ZZ and det.denominator == math.prod(scales)
        assert det.divided() == ring_determinant(divided, PolyRing(QQ))
        assert det.divided() == laplace_determinant(divided)
    ring = QSeriesRing(4)
    q = [[TPoly(ring, [random_qseries(rng, 4)]) for _ in range(n)] for _ in range(n)]
    det = rings._scaled_determinant(([list(row) for row in q], 1), ring)
    assert det.divided() == ring_determinant(q, PolyRing(ring))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_integer_numerators_scale_each_row_to_one_denominator(n):
    # ring_determinant's conversion: Fraction and int coefficients, each row
    # times the lcm of its denominators.
    rng = random.Random(41 + n)
    for _ in range(20):
        matrix = [[random_tpoly(rng) for _ in range(n)] for _ in range(n)]
        converted = rings._integer_numerators([[p.coeffs for p in row] for row in matrix])
        assert_stands_for(converted, matrix, QQ)
        scales = [math.lcm(*(c.denominator for p in row for c in p.coeffs)) for row in matrix]
        assert converted[1] == math.prod(scales)


def test_rational_ring_is_normalized():
    # Fraction keeps gcd 1 and a positive denominator.
    x = Fraction(2, 4) + Fraction(1, 4)
    assert (x.numerator, x.denominator) == (3, 4)
    y = Fraction(3, -6)
    assert (y.numerator, y.denominator) == (-1, 2)


def test_tpoly_repr_skips_zero_coefficients():
    assert repr(TPoly(QQ, [Fraction(1, 2), Fraction(0), Fraction(-3)])) == "TPoly(1/2 + (-3)*t^2)"
    assert repr(TPoly(QQ)) == "TPoly(0)"


def test_rational_constants_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert (QQ.zero, QQ.one) == (Fraction(0), Fraction(1))
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction


@pytest.mark.parametrize("ring", [QSeriesRing(8), QsymRing()], ids=["qseries8", "qsym"])
def test_series_and_qsym_constants_are_shared(ring):
    assert ring.zero is ring.zero and ring.one is ring.one
    assert not ring.zero and ring.one and ring.one * ring.one == ring.one


@pytest.mark.parametrize(
    "ring,sample",
    [
        (QQ, random_fraction),
        (rings._ZZ, lambda rng: rng.randint(-9, 9)),
        (QSeriesRing(8), random_qseries),
        (QsymRing(), random_monomial_poly),
        (PolyRing(QQ), random_tpoly),
    ],
    ids=["rational", "integer", "qseries8", "qsym", "poly"],
)
def test_tpoly_times_int_over_every_ring(ring, sample):
    rng = random.Random(7)
    for _ in range(10):
        p = TPoly(ring, [sample(rng) for _ in range(3)])
        assert p * 3 == p + p + p == 3 * p
        assert p * -1 == -p
        assert p * 0 == TPoly.zero(ring) and not p * 0


def test_rings_compare_and_hash_by_name():
    assert QSeriesRing(8) == QSeriesRing(8) and QSeriesRing(8) != QSeriesRing(9)
    assert hash(PolyRing(QQ)) == hash(PolyRing(QQ))
    assert PolyRing(QQ) != PolyRing(rings._ZZ)
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        TPoly.one(QSeriesRing(8)) + TPoly.one(QSeriesRing(9))
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        TPoly.one(QQ) + TPoly.one(rings._ZZ)


# ---------------------------------------------------------------------------
# ring axioms


@pytest.mark.parametrize(
    "ring,sample",
    [
        (QQ, random_fraction),
        (QSeriesRing(8), random_qseries),
        (QsymRing(), random_monomial_poly),
        (PolyRing(QQ), random_tpoly),
    ],
    ids=["rational", "qseries", "qsym", "tpoly"],
)
def test_ring_axioms_on_random_triples(ring, sample):
    rng = random.Random(20240517)
    for _ in range(1000):
        a, b, c = sample(rng), sample(rng), sample(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + -a == ring.zero
        assert a * ring.one == a


# ---------------------------------------------------------------------------
# determinants


def test_determinant_1x1_and_2x2():
    x = TPoly(QQ, [Fraction(1, 2), Fraction(3)])
    ring = PolyRing(QQ)
    assert ring_determinant([[x]], ring) == x
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    assert ring_determinant([[a, b], [c, d]], QQ) == a * d - b * c


def test_determinant_empty_matrix_is_one():
    assert ring_determinant([], QQ) == Fraction(1)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        ring_determinant([[Fraction(1), Fraction(2)]], QQ)


def test_determinant_matches_permutation_oracle_random_4x4():
    rng = random.Random(7)
    ring = PolyRing(QQ)
    matrix = [[random_tpoly(rng) for _ in range(4)] for _ in range(4)]
    assert ring_determinant(matrix, ring) == permutation_determinant(matrix, ring)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_determinant_matches_permutation_oracle_all_sizes(n):
    rng = random.Random(100 + n)
    ring = PolyRing(QQ)
    for _ in range(3):
        matrix = [[random_tpoly(rng, max_degree=2) for _ in range(n)] for _ in range(n)]
        assert ring_determinant(matrix, ring) == permutation_determinant(matrix, ring)


def wide_fraction(rng):
    """Mixed small and large numerators and denominators."""
    return Fraction(
        rng.choice((rng.randint(-9, 9), rng.randint(-(10**15), 10**15))),
        rng.choice((1, 2, 3, 12, 97, 10**9 + 7, 2**61 - 1, rng.randint(1, 10**12))),
    )


def sparse_qseries(rng, order=8):
    """A q-series with a constant term and at most two more nonzero
    coefficients, to keep the permutation oracle fast at n = 6."""
    coeffs = [wide_fraction(rng)] + [0] * (order - 1)
    for _ in range(rng.randint(0, 2)):
        coeffs[rng.randrange(order)] = wide_fraction(rng)
    return QSeries(order, coeffs)


def poly_over(ring, sample, max_degree):
    def draw(rng):
        return TPoly(ring, [sample(rng) for _ in range(rng.randint(1, max_degree + 1))])

    return draw


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "ring,sample",
    [
        (QQ, wide_fraction),
        (PolyRing(QQ), poly_over(QQ, wide_fraction, 2)),
        (PolyRing(QSeriesRing(8)), poly_over(QSeriesRing(8), sparse_qseries, 1)),
        (PolyRing(QsymRing()), poly_over(QsymRing(), random_monomial_poly, 1)),
    ],
    ids=["rational", "poly-rational", "poly-qseries8", "poly-qsym"],
)
def test_determinant_matches_permutation_oracle_every_ring(ring, sample, n):
    # A generic matrix, then the same with a zero row and with a row that
    # keeps a single nonzero entry.
    rng = random.Random(300 + n)
    matrix = [[sample(rng) for _ in range(n)] for _ in range(n)]
    zero_row = [list(row) for row in matrix]
    zero_row[rng.randrange(n)] = [ring.zero] * n
    single = [list(row) for row in matrix]
    i, j = rng.randrange(n), rng.randrange(n)
    while not single[i][j]:
        single[i][j] = sample(rng)
    single[i] = [single[i][j] if c == j else ring.zero for c in range(n)]
    for m in (matrix, zero_row, single):
        assert ring_determinant(m, ring) == permutation_determinant(m, ring)
    assert ring_determinant(zero_row, ring) == ring.zero


# ---------------------------------------------------------------------------
# fraction-free elimination (the rational t-polynomial route)


def laplace_determinant(matrix):
    """The Laplace expansion that every other ring goes through."""
    return rings._laplace(matrix, PolyRing(QQ))


def tpolys(rows):
    """A matrix of rational t-polynomials from rows of coefficient lists."""
    return [[TPoly(QQ, [Fraction(c) for c in entry]) for entry in row] for row in rows]


def assert_oracles_agree(matrix):
    det = ring_determinant(matrix, PolyRing(QQ))
    assert det == laplace_determinant(matrix)
    if len(matrix) <= 6:
        assert det == permutation_determinant(matrix, PolyRing(QQ))
    return det


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([], [1]),
        ([[[]]], []),
        ([[[Fraction(-3, 4), 0, 6]]], [Fraction(-3, 4), 0, 6]),
        # A zero leading entry: the first pivot comes from the second row.
        ([[[], [1]], [[1], []]], [-1]),
        ([[[0, 1], [2]], [[3], [0, 1]]], [-6, 0, 1]),
        # The lower-degree pivot sits below the top row, one swap per step.
        ([[[0, 0, 1], [1], [2, 1]], [[1], [0, 1], [3]], [[0, 1], [5], [1, 1, 1]]], None),
        # A zero column, and a zero row.
        ([[[1], [], [2]], [[3], [], [0, 4]], [[5], [], [6]]], []),
        ([[[1], [2], [3]], [[], [], []], [[4], [5], [6]]], []),
        # Non-monic pivots with row and column contents to take out.
        # (Row contents 2, 5, 3, then column contents 3, 1, 7.)
        (
            [
                [[6, 12], [6], [14, 0, 28]],
                [[30, 45], [5], [0, 105]],
                [[18, 63], [3, 3], [21, 21, 21]],
            ],
            None,
        ),
        (
            [[[Fraction(2, 3), Fraction(5, 7)], [Fraction(1, 2)]], [[3, 9], [Fraction(-4, 9), 1]]],
            None,
        ),
    ],
    ids=[
        "n0", "n1-zero", "n1", "swap-constant", "swap-degree", "swap-each-step",
        "zero-column", "zero-row", "non-monic-contents", "non-monic-fractions",
    ],
)
def test_bareiss_hand_built_matrices(rows, expected):
    det = assert_oracles_agree(tpolys(rows))
    if expected is not None:
        assert det == TPoly(QQ, [Fraction(c) for c in expected])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_bareiss_matches_oracles_on_wide_fractions(n):
    # The matrix, a copy whose first column is zero at the top, and one
    # with a low-degree non-monic entry in its last row.
    rng = random.Random(900 + n)
    draw = poly_over(QQ, wide_fraction, 2)
    matrix = [[draw(rng) for _ in range(n)] for _ in range(n)]
    assert_oracles_agree(matrix)
    zero_top = [list(row) for row in matrix]
    zero_top[0][0] = TPoly.zero(QQ)
    assert_oracles_agree(zero_top)
    low_last = [list(row) for row in matrix]
    low_last[-1][0] = TPoly(QQ, [Fraction(7, 3)])
    assert_oracles_agree(low_last)


def test_bareiss_rank_deficient_with_every_entry_nonzero():
    # The square-shape palindromic windows at N = 4: every entry is a
    # nonzero polynomial, yet r >= N makes the determinant vanish.  Each
    # row is over its own denominator, which leaves the rank as it is.
    rng = random.Random(17)
    for r in (9, 10, 11):
        keys = [rng.choice((2, 3)) for _ in range(r)]
        shape, window = Partition((r,) * r), palindrome_weights(keys)
        rows, _ = _h_matrix(shape, 4, rational_map(), window)
        matrix = as_tpolys(rows)
        assert all(entry for row in matrix for entry in row)
        assert ring_determinant(matrix, PolyRing(QQ)) == TPoly.zero(QQ)
        assert laplace_determinant(matrix) == TPoly.zero(QQ)
        det = rings._scaled_determinant(_h_matrix(shape, 4, rational_map(), window), QQ)
        assert det.divided() == TPoly.zero(QQ)
    # A rank-one matrix of nonzero entries, and the sum of two such.
    u = [TPoly(QQ, [1, 2]), TPoly(QQ, [Fraction(1, 3)]), TPoly(QQ, [0, 0, 5])]
    v = [TPoly(QQ, [2]), TPoly(QQ, [-1, 1]), TPoly(QQ, [3, 0, 1])]
    rank_one = [[a * b for b in v] for a in u]
    assert assert_oracles_agree(rank_one) == TPoly.zero(QQ)
    rank_two = [[a * b + b * b for b in v] for a in u]
    assert assert_oracles_agree(rank_two) == TPoly.zero(QQ)


def test_bareiss_division_keeps_no_remainder():
    assert rings._exact_quotient([-1, 0, 1], [-1, 1]) == [1, 1]
    assert rings._exact_quotient([], [3, 1]) == []
    assert rings._exact_quotient([6, -9], [3]) == [2, -3]
    for a, b in (([1, 0, 1], [1, 1]), ([1, 2], [2]), ([4], [2, 1]), ([2, 3, 1], [1, 2])):
        with pytest.raises(ArithmeticError):
            rings._exact_quotient(a, b)


# ---------------------------------------------------------------------------
# t -> 1-t substitution


def test_substitution_examples():
    zero = TPoly.zero(QQ)
    assert zero.subs_one_minus_t() == zero
    p = TPoly(QQ, [Fraction(1, 4), Fraction(17, 16)])
    assert p.subs_one_minus_t() == TPoly(QQ, [Fraction(21, 16), Fraction(-17, 16)])
    t_squared = TPoly(QQ, [0, 0, Fraction(1)])
    assert t_squared.subs_one_minus_t() == TPoly(
        QQ, [Fraction(1), Fraction(-2), Fraction(1)]
    )


def test_substitution_is_an_involution():
    rng = random.Random(99)
    for _ in range(1000):
        p = TPoly(QQ, [random_fraction(rng) for _ in range(rng.randint(0, 9))])
        assert p.subs_one_minus_t().subs_one_minus_t() == p


def test_tpoly_basic_shapes():
    p = TPoly(QQ, [Fraction(0), Fraction(0)])
    assert p == TPoly.zero(QQ) and p.degree == -1 and not p
    q = TPoly(QQ, [Fraction(1), Fraction(2), Fraction(0)])
    assert q.degree == 1
    assert q.coefficient(5) == Fraction(0)
    assert (q * q).coefficient(2) == Fraction(4)
    assert q.to_json() == ["1", "2"]


# ---------------------------------------------------------------------------
# q-series


def test_qseries_invert_identity():
    one = QSeriesRing(6).one
    assert one.inverse() == one


def test_qseries_invert_q_integer_two():
    # 1/(1+q) = 1 - q + q^2 - q^3 mod q^4
    assert q_integer(2, 4).inverse() == QSeries(4, [1, -1, 1, -1])


def test_qseries_invert_multiply_back():
    s = q_integer(3, 5)
    assert s * s.inverse() == QSeriesRing(5).one


def test_qseries_invert_needs_unit():
    with pytest.raises(NonInvertibleError):
        QSeries(4, [0, 1]).inverse()


def test_qseries_truncation_and_associativity():
    rng = random.Random(3)
    ring = QSeriesRing(8)
    for _ in range(200):
        a, b, c = (random_qseries(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    # q^7 * q^7 vanishes mod q^8
    q7 = QSeries(8, [0] * 7 + [1])
    assert q7 * q7 == ring.zero


def test_qseries_mixed_orders_rejected():
    with pytest.raises(ValueError):
        QSeries(4, [1]) * QSeries(5, [1])


def test_qseries_json():
    assert q_integer(2, 3).to_json() == {"order": 3, "coeffs": ["1", "1", "0"]}


def mixed_coefficient(rng):
    """An int, an integral Fraction or a proper Fraction; denominators 1 and
    2 make Fraction sums and products integral often."""
    n = rng.randint(-4, 4)
    return rng.choice((n, Fraction(n), Fraction(n, 2)))


def assert_stored_form(series):
    for c in series.coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction)


def reference_mul(a, b):
    """Truncated product of two Fraction coefficient lists."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(len(a))]


def reference_inverse(a):
    """Inverse of a Fraction coefficient list with a unit constant term."""
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum((a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0)) / a[0])
    return out


def test_qseries_kernel_matches_fraction_reference():
    rng = random.Random(5150)
    for _ in range(400):
        order = rng.randint(1, 6)
        a = QSeries(order, [mixed_coefficient(rng) for _ in range(order)])
        b = QSeries(order, [mixed_coefficient(rng) for _ in range(order)])
        x = mixed_coefficient(rng)
        fa = [Fraction(c) for c in a.coeffs]
        fb = [Fraction(c) for c in b.coeffs]
        cases = [
            (a + b, [p + q for p, q in zip(fa, fb)]),
            (a - b, [p - q for p, q in zip(fa, fb)]),
            (-a, [-p for p in fa]),
            (a * b, reference_mul(fa, fb)),
            (a * x, [p * x for p in fa]),
            (x * a, [p * x for p in fa]),
            (a + x, [fa[0] + x] + fa[1:]),
            (x - a, [x - fa[0]] + [-p for p in fa[1:]]),
        ]
        if fa[0]:
            cases.append((a.inverse(), reference_inverse(fa)))
        for got, want in cases:
            assert list(got.coeffs) == want
            assert_stored_form(got)
    assert_stored_form(QSeries(4, [Fraction(1, 2), Fraction(4, 2), 3.0, "5/3"]))


def test_q_analogue_values_have_int_coefficients():
    for order in (1, 4, 8):
        cmap = q_analogue_map(order)
        values = [cmap(k, m) for k in range(1, 5) for m in range(1, 10)]
        values += [cmap.ring.zero, cmap.ring.one, values[0] * values[-1] - values[3]]
        for value in values:
            assert all(type(c) is int for c in value.coeffs)


def test_qseries_int_and_fraction_forms_agree():
    from_ints = QSeries(5, [1, -2, 0, 3])
    from_fractions = QSeries(5, [Fraction(2, 2), Fraction(-2), Fraction(0), Fraction(6, 2)])
    from_arithmetic = QSeries(5, [Fraction(1, 2), -1, 0, Fraction(3, 2)]) * 2
    for s in (from_fractions, from_arithmetic):
        assert s == from_ints and hash(s) == hash(from_ints)
        assert_stored_form(s)
    half = QSeries(3, [Fraction(1, 2), 2])
    assert half.to_json() == {"order": 3, "coeffs": ["1/2", "2", "0"]}
    assert repr(half) == "QSeries[3](1/2*q^0 + 2*q^1)"


# ---------------------------------------------------------------------------
# monomial polynomials


def test_monomial_polynomial_arithmetic():
    x1 = MonomialPolynomial.variable_power(1, 2)
    x2 = MonomialPolynomial.variable_power(2, 1)
    prod = x1 * x2
    assert prod.terms == {((1, 2), (2, 1)): 1}
    assert x1 * x1 == MonomialPolynomial.variable_power(1, 4)
    assert (x1 - x1) == MonomialPolynomial()
    assert (x1 + x2) * 0 == MonomialPolynomial()
    assert x1.to_json() == [{"powers": [[1, 2]], "coeff": 1}]


def test_monomial_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        MonomialPolynomial({((1, 0),): 1})
    with pytest.raises(ValueError):
        MonomialPolynomial({((0, 2),): 1})


def assert_normal_form(poly):
    """Sorted keys, no zero and only int coefficients: what the public
    constructor would build from the same terms."""
    rebuilt = MonomialPolynomial(dict(poly.terms))
    assert poly == rebuilt and hash(poly) == hash(rebuilt)
    assert all(type(c) is int and c for c in poly.terms.values())
    assert all(list(key) == sorted(key) for key in poly.terms)


def test_monomial_polynomial_operators_keep_normal_form():
    rng = random.Random(8128)
    for _ in range(500):
        a, b = random_monomial_poly(rng), random_monomial_poly(rng)
        n = rng.randint(-3, 3)
        for result in (a + b, a - b, -a, a * b, a * n, n * a, a + n, n - a, a * (b + n)):
            assert_normal_form(result)
    x = MonomialPolynomial({((1, 2), (3, 1)): 4, ((2, 1),): -1, (): 7})
    y = MonomialPolynomial.variable_power(2, 3)
    for zero in (x - x, x + (-x), x * 0, x * y - y * x, (x + y) * (x - y) - (x * x - y * y)):
        assert zero.terms == {} and not zero
        assert_normal_form(zero)


def test_monomial_polynomial_constructor_merges_repeated_variables():
    merged = MonomialPolynomial({((1, 2), (1, 3)): 1})
    x1_5 = MonomialPolynomial.variable_power(1, 5)
    assert merged.terms == {((1, 5),): 1}
    assert merged == x1_5 and hash(merged) == hash(x1_5)
    x1_2, x1_3 = MonomialPolynomial.variable_power(1, 2), MonomialPolynomial.variable_power(1, 3)
    assert merged == x1_2 * x1_3
    # Keys that merge into one monomial add their coefficients.
    poly = MonomialPolynomial(
        {((2, 1), (1, 1), (2, 2)): 2, ((1, 1), (2, 3)): -2, ((3, 1), (3, 1)): 4}
    )
    assert poly.terms == {((3, 2),): 4}
    with pytest.raises(ValueError):
        MonomialPolynomial({((1, 2), (1, 0)): 1})


def test_monomial_polynomial_constructor_normalizes_keys():
    poly = MonomialPolynomial(
        {((2, 1), (1, 3)): 2, ((1, 3), (2, 1)): 1, ((1, 1),): 0, ((4, 1), (2, 2)): -2}
    )
    assert poly.terms == {((1, 3), (2, 1)): 3, ((2, 2), (4, 1)): -2}
    assert MonomialPolynomial({((2, 1), (1, 3)): 2, ((1, 3), (2, 1)): -2}).terms == {}
    for key in (((1, 2), (2, 0)), ((0, 1),), ((3, 1), (-1, 2))):
        with pytest.raises(ValueError):
            MonomialPolynomial({key: 1})


@pytest.mark.parametrize(
    "terms",
    [
        {((1.5, 2.9),): 2.7},
        {((1, 2),): 2.7},
        {((1, 2),): 2.0},
        {((1, 2),): Fraction(2)},
        {((1, 2),): True},
        {((1, 2),): False},
        {((1.0, 2),): 1},
        {((1, 2.0),): 1},
        {((True, 2),): 1},
        {((1, True),): 1},
        {(("1", 2),): 1},
    ],
)
def test_monomial_polynomial_constructor_takes_only_ints(terms):
    # Each used to be truncated or read as 1: the first built 2*x1^2.
    with pytest.raises(ValueError) as excinfo:
        MonomialPolynomial(terms)
    assert excinfo.type is ValueError


# Exponents include some near 2^61, far past any narrow field, while every
# product here stays below the 2^64 limit.
ORACLE_EXPONENTS = (1, 1, 2, 3, 2**61, 2**61 + 1)


def random_raw_terms(rng):
    """Raw constructor input over x_1..x_4: keys may be unsorted or repeat a
    variable; about a third of the polynomials have a single term."""
    count = 1 if rng.random() < 0.35 else rng.randint(0, 4)
    terms = {}
    for _ in range(count):
        key = tuple(
            (rng.randint(1, 4), rng.choice(ORACLE_EXPONENTS)) for _ in range(rng.randint(0, 3))
        )
        terms[key] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    return terms


def reference_normal_form(raw):
    out = {}
    for key, coeff in raw.items():
        out = reference_sum(out, {merge_keys((), key): coeff})
    return out


def test_packed_arithmetic_matches_tuple_key_reference():
    rng = random.Random(20260)
    single_term_factors = 0
    for _ in range(400):
        raw_a, raw_b = random_raw_terms(rng), random_raw_terms(rng)
        a, b = MonomialPolynomial(raw_a), MonomialPolynomial(raw_b)
        ta, tb = a.terms, b.terms
        assert ta == reference_normal_form(raw_a) and tb == reference_normal_form(raw_b)
        single_term_factors += (len(ta) == 1) + (len(tb) == 1)
        expected = reference_product(ta, tb)
        assert (a * b).terms == expected and (b * a).terms == expected
        assert (a + b).terms == reference_sum(ta, tb) == (b + a).terms
        assert (a - b).terms == reference_sum(ta, tb, -1)
        assert (b - a).terms == reference_sum(tb, ta, -1)
    assert single_term_factors > 200  # the one-monomial route, on either side


LIMIT = 2**64 - 1


def test_exponent_at_the_field_limit_round_trips():
    for v in (1, 2, 5):
        top = MonomialPolynomial.variable_power(v, LIMIT)
        assert top.terms == {((v, LIMIT),): 1}
        assert top.to_json() == [{"powers": [[v, LIMIT]], "coeff": 1}]
        assert repr(top) == f"MonomialPolynomial(1*x{v}^{LIMIT})"
        assert MonomialPolynomial(top.terms) == top
    both = MonomialPolynomial.variable_power(1, LIMIT) - MonomialPolynomial.variable_power(2, LIMIT)
    assert both.terms == {((1, LIMIT),): 1, ((2, LIMIT),): -1}
    x1 = MonomialPolynomial.variable_power(1, 1)
    reached = MonomialPolynomial.variable_power(1, LIMIT - 1) * x1
    assert reached.terms == {((1, LIMIT),): 1}


def test_exponent_past_the_field_limit_raises():
    x1 = MonomialPolynomial.variable_power(1, 1)
    x2 = MonomialPolynomial.variable_power(2, 1)
    half = MonomialPolynomial.variable_power(1, 2**63)
    top = MonomialPolynomial.variable_power(1, LIMIT)
    # Each product has a term that would carry into the field of x_2:
    # half * half would read as x2, and top * x1 as x2 with nothing in x_1.
    for left, right in ((half, half), (top, x1), (x1, top), (top + x2, x1), (x1 - top, x1 + 3)):
        with pytest.raises(DomainError):
            left * right
    with pytest.raises(DomainError):
        MonomialPolynomial.variable_power(1, 2**64)
    with pytest.raises(DomainError):
        MonomialPolynomial({((2, LIMIT), (2, 1)): 1})
    # The operands are untouched and nothing reached x_2.
    assert half.terms == {((1, 2**63),): 1} and top.terms == {((1, LIMIT),): 1}
    assert (half * x1).terms == {((1, 2**63 + 1),): 1}


def test_exponents_of_different_variables_fit_past_the_summed_bound():
    # Each factor's bound is 2^63 or more, so their sum passes 2^64 - 1,
    # but no variable's exponent does: the product is computed.
    half1 = MonomialPolynomial.variable_power(1, 2**63)
    half2 = MonomialPolynomial.variable_power(2, 2**63)
    top2 = MonomialPolynomial.variable_power(2, LIMIT)
    x1 = MonomialPolynomial.variable_power(1, 1)
    assert (half1 * half2).terms == {((1, 2**63), (2, 2**63)): 1}
    assert (half1 * top2).terms == {((1, 2**63), (2, LIMIT)): 1}
    left, right = half1 + 3 * MonomialPolynomial.variable_power(2, 5), half2 - 2 * x1
    assert (left * right).terms == reference_product(left.terms, right.terms)
    # The exact bound the product carries still refuses what would overflow.
    with pytest.raises(DomainError):
        half1 * half2 * half1
    with pytest.raises(DomainError):
        (half1 * half2) * top2
    assert (half1 * half2 * x1).terms == {((1, 2**63 + 1), (2, 2**63)): 1}


def test_monomial_polynomial_equal_however_built():
    def x(v, e=1):
        return MonomialPolynomial.variable_power(v, e)

    # 3*x1^2*x2 + 2*x1*x3 - x3^4, four ways.
    by_constructor = MonomialPolynomial(
        {((2, 1), (1, 1), (1, 1)): 2, ((3, 4),): -1, ((1, 2), (2, 1)): 1, ((3, 1), (1, 1)): 2}
    )
    by_general_products = (
        (x(1) + x(3, 2)) * (x(1) - x(3, 2))
        + (x(1) + x(3)) * (3 * x(1) * x(2) - x(1) + 2 * x(3))
        - 3 * x(1) * x(2) * x(3)
        - 2 * x(3, 2)
        + x(1) * x(3)
    )
    rest = 3 * x(1) * x(2) + 2 * x(3)
    by_single_term_left = x(1) * rest - x(3, 4)
    by_single_term_right = rest * x(1) - x(3, 4)
    built = [by_constructor, by_general_products, by_single_term_left, by_single_term_right]
    expected = {((1, 2), (2, 1)): 3, ((1, 1), (3, 1)): 2, ((3, 4),): -1}
    for poly in built:
        assert poly.terms == expected
        assert poly == by_constructor and hash(poly) == hash(by_constructor)
    assert len({hash(poly) for poly in built}) == 1


def test_monomial_polynomial_json_order_is_tuple_order():
    # Packed keys would order x2 before x1^2*x3; output follows the tuples.
    terms = {
        ((1, 2), (3, 1)): 5, ((2, 1),): -1, ((1, 1), (2, 3)): 2,
        ((3, 7),): 4, (): 6, ((1, 2), (2, 1)): 3,
    }
    expected_json = [
        {"powers": [], "coeff": 6},
        {"powers": [[1, 1], [2, 3]], "coeff": 2},
        {"powers": [[1, 2], [2, 1]], "coeff": 3},
        {"powers": [[1, 2], [3, 1]], "coeff": 5},
        {"powers": [[2, 1]], "coeff": -1},
        {"powers": [[3, 7]], "coeff": 4},
    ]
    x = MonomialPolynomial.variable_power
    by_operators = (
        4 * x(3, 7) - x(2, 1) + 5 * x(1, 2) * x(3, 1) + 6
        + 3 * x(2, 1) * x(1, 2) + 2 * x(2, 3) * x(1, 1)
    )
    for poly in (MonomialPolynomial(terms), by_operators):
        assert poly.to_json() == expected_json
        assert repr(poly) == (
            "MonomialPolynomial(6 + 2*x1*x2^3 + 3*x1^2*x2 + 5*x1^2*x3 + -1*x2 + 4*x3^7)"
        )
