"""Ring arithmetic: exactness, axioms, determinants, substitution."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from schurzeta.errors import NonInvertibleError
from schurzeta.rings import (
    MonomialPolynomial,
    PolyRing,
    QQ,
    QSeries,
    QSeriesRing,
    QsymRing,
    TPoly,
    format_rational,
    parse_rational,
    q_integer,
    qseries_invert,
    ring_determinant,
    tpoly_substitute_one_minus_t,
)


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
            term = ring.mul(term, matrix[i][sigma[i]])
        total = ring.add(total, term if inversions % 2 == 0 else ring.neg(term))
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
    assert parse_rational("17/16") == Fraction(17, 16)
    assert parse_rational("-5") == Fraction(-5)


def test_rational_ring_is_normalized():
    # Fraction keeps gcd 1 and a positive denominator.
    x = QQ.add(Fraction(2, 4), Fraction(1, 4))
    assert (x.numerator, x.denominator) == (3, 4)
    y = Fraction(3, -6)
    assert (y.numerator, y.denominator) == (-1, 2)


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
        assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c)))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))
        assert ring.eq(ring.add(a, ring.neg(a)), ring.zero)
        assert ring.eq(ring.mul(a, ring.one), a)


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
# t -> 1-t substitution


def test_substitution_examples():
    zero = TPoly.zero(QQ)
    assert tpoly_substitute_one_minus_t(zero) == zero
    p = TPoly(QQ, [Fraction(1, 4), Fraction(17, 16)])
    assert tpoly_substitute_one_minus_t(p) == TPoly(QQ, [Fraction(21, 16), Fraction(-17, 16)])
    t_squared = TPoly(QQ, [0, 0, Fraction(1)])
    assert tpoly_substitute_one_minus_t(t_squared) == TPoly(
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
    assert q.evaluate(Fraction(2)) == Fraction(5)
    assert (q * q).coefficient(2) == Fraction(4)
    assert q.to_json() == ["1", "2"]


# ---------------------------------------------------------------------------
# q-series


def test_qseries_invert_identity():
    one = QSeriesRing(6).one
    assert qseries_invert(one) == one


def test_qseries_invert_q_integer_two():
    # 1/(1+q) = 1 - q + q^2 - q^3 mod q^4
    assert qseries_invert(q_integer(2, 4)) == QSeries(4, [1, -1, 1, -1])


def test_qseries_invert_multiply_back():
    s = q_integer(3, 5)
    assert s * qseries_invert(s) == QSeriesRing(5).one


def test_qseries_invert_needs_unit():
    with pytest.raises(NonInvertibleError):
        qseries_invert(QSeries(4, [0, 1]))


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
