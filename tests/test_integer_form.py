"""The rational map's integer form against the plain ``Fraction`` route.

``rational_map()`` carries an integer form, so its values are summed over
integers and divided once.  A hand-built map with the same function but no
integer form runs the same evaluator bodies over ``Fraction`` and is the
oracle here.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from schurzeta import jacobi_trudi, lattice, values
from schurzeta.errors import DomainError
from schurzeta.jacobi_trudi import _determinants, _h_matrix
from schurzeta.lattice import (
    _path_determinant,
    _scaled_lgv_signed_sum,
    _scaled_path_matrix,
    black,
    layer_endpoints,
    schur_path_endpoints,
    white,
)
from schurzeta.rings import QQ, MonomialPolynomial, QSeries, TPoly
from schurzeta.shapes import Partition, Tableau, admissible_baselines, partitions_up_to
from schurzeta.values import (
    CoefficientMap,
    DiagonalWeights,
    _scaled_linear_value,
    diagonal_tableau,
    linear_value,
    linear_value_by_recursion,
    merge_expansion,
    q_analogue_map,
    quasisymmetric_map,
    rational_map,
    required_offsets,
    schur_value,
)

from filling_enumeration import filling_sum_oracle
from row_matrices import single_row

RAT = rational_map()
FRACTIONS = CoefficientMap("rational", QQ, RAT.fn)
Q8 = q_analogue_map(8)
Q8_WINDOW = {-2: 2, -1: 1, 0: 3, 1: 1, 2: 2}
QSYM = quasisymmetric_map()
PATH_ENDPOINTS = schur_path_endpoints(Partition((2, 2, 1)), 5)  # two sources
LABELS = range(-2, 4)
N_VALUES = range(1, 7)


def assert_rational(p):
    assert isinstance(p, TPoly) and p.ring == QQ
    assert all(type(c) is Fraction for c in p.coeffs)


def same(fast, slow):
    assert_rational(fast)
    assert fast == slow


def prefixes_of(keys, N, cmap):
    """The prefix DP's value of every prefix of keys, divided: one
    single-value call per prefix."""
    keys = tuple(keys)
    return [_scaled_linear_value(keys[:p], N, cmap).divided() for p in range(len(keys) + 1)]


def path_sum(A, B, cmap, dw):
    """The one-entry path matrix A -> B, divided."""
    [value] = single_row(_scaled_path_matrix([A], [B], cmap, dw), cmap.ring)
    return value


def signed_sum(sources, sinks, cmap, dw):
    """The column sweep's signed path-system sum, divided."""
    return _scaled_lgv_signed_sum(sources, sinks, cmap, dw).divided()


def test_integer_form_values_and_cache():
    form = RAT.integer_form(12)
    assert form is RAT.integer_form(12)  # cached per L
    assert form.ring.name == "integer" and FRACTIONS.integer_form is None
    for k, m in product(LABELS, (1, 2, 3, 4, 6, 12)):
        assert form(k, m) == RAT(k, m) * 12 ** max(k, 0)
        assert type(form(k, m)) is int
    with pytest.raises(ValueError):
        form(1, 5)  # 5 does not divide 12
    with pytest.raises(DomainError):
        form(True, 2)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_linear_routes_match_fraction_route(r):
    for keys in product(LABELS, repeat=r):
        for N in N_VALUES:
            slow = linear_value(keys, N, FRACTIONS)
            same(linear_value(keys, N, RAT), slow)
            same(linear_value_by_recursion(keys, N, RAT), slow)
            same(merge_expansion(keys, N), slow)
            fast_prefixes = prefixes_of(keys, N, RAT)
            slow_prefixes = prefixes_of(keys, N, FRACTIONS)
            assert len(fast_prefixes) == len(slow_prefixes) == r + 1
            for fast, prefix in zip(fast_prefixes, slow_prefixes):
                same(fast, prefix)


def test_long_keys_match_fraction_route():
    rng = random.Random(4)
    for r in (4, 5, 6):
        for N in N_VALUES:
            keys = [rng.choice(LABELS) for _ in range(r)]
            slow = linear_value_by_recursion(keys, N, FRACTIONS)
            same(linear_value_by_recursion(keys, N, RAT), slow)
            same(merge_expansion(keys, N), slow)
            same(prefixes_of(keys, N, RAT)[-1], slow)


def test_schur_values_match_fraction_route():
    # Labels vary along the diagonals, as in the tableaux conjugation reads.
    rng = random.Random(5)
    for shape in partitions_up_to(5):
        for N in N_VALUES:
            rows = [[rng.choice(LABELS) for _ in range(p)] for p in shape.parts]
            tableau = Tableau(shape, rows)
            fast = schur_value(tableau, N, RAT)
            same(fast, schur_value(tableau, N, FRACTIONS))
            if N <= 5:
                assert fast == filling_sum_oracle(tableau, N, FRACTIONS)


# Over the integer form the Schur walk packs each t-polynomial into one int,
# its value at t = 2^b, and decodes the result's signed base-2^b digits once.

@pytest.mark.parametrize("C", [1, 2, 3, 4, 9, 16, 33])
def test_packed_one_row_of_zero_labels_is_a_power_of_one_minus_t(C):
    # At N = 2 the only filling is all ones: h = C - 1, and every f is 1,
    # so the middle binomials come within a factor of about sqrt(C) of the
    # 2^(C - 1) bound that sets the slot width; for even C the top
    # coefficient is -1.
    tableau = Tableau(Partition((C,)), [[0] * C])
    expected = TPoly(QQ, [Fraction((-1) ** k * math.comb(C - 1, k)) for k in range(C)])
    fast = schur_value(tableau, 2, RAT)
    same(fast, expected)
    assert schur_value(tableau, 2, FRACTIONS) == expected


def test_packed_value_with_negative_top_coefficient():
    # Row (2, 3): fillings m <= m'; equal entries weigh 1 - t.
    for N in range(2, 8):
        low = sum(Fraction(1, m**2 * n**3) for m in range(1, N) for n in range(m, N))
        top = sum(Fraction(1, m**5) for m in range(1, N))
        value = schur_value(Tableau.from_rows([[2, 3]]), N, RAT)
        same(value, TPoly(QQ, [low, -top]))
        assert value.coefficient(1) < 0


def test_packed_negative_labels_match_fraction_route_and_enumeration():
    rng = random.Random(9)
    for shape in partitions_up_to(5):
        for N in range(1, 6):
            rows = [[rng.choice((-3, -2, -1)) for _ in range(p)] for p in shape.parts]
            tableau = Tableau(shape, rows)
            fast = schur_value(tableau, N, RAT)
            same(fast, schur_value(tableau, N, FRACTIONS))
            assert fast == filling_sum_oracle(tableau, N, FRACTIONS)


def test_packed_values_with_no_filling_are_zero():
    zero, one = TPoly.zero(QQ), TPoly.one(QQ)
    same(schur_value(Tableau.from_rows([]), 1, RAT), one)
    for rows in ([[2]], [[0, -1], [3]], [[1, 2, 3]]):
        same(schur_value(Tableau.from_rows(rows), 1, RAT), zero)
    # A square of side r has a diagonal of r cells, which needs r distinct
    # values below N: none at N <= r, some at N = r + 1.
    for r in (2, 3, 4):
        square = Tableau(Partition((r,) * r), [[2] * r] * r)
        for N in range(1, r + 1):
            same(schur_value(square, N, RAT), zero)
        assert schur_value(square, r + 1, RAT) == schur_value(square, r + 1, FRACTIONS) != zero


def test_packed_wide_two_row_value_matches_jacobi_trudi():
    # (24, 24) at N = 4: 48 cells, one slot of several hundred bits per
    # power of t, against the determinants of prefix-DP linear values.
    shape = Partition((24, 24))
    weights = DiagonalWeights({d: (2, 3, -1)[d % 3] for d in required_offsets(shape)})
    schur = schur_value(diagonal_tableau(shape, weights), 4, RAT)
    det_h, det_e = _determinants(shape, 4, RAT, weights)
    assert schur == det_h.divided() == det_e.divided() and schur
    assert_rational(schur)
    assert schur == schur_value(diagonal_tableau(shape, weights), 4, FRACTIONS)


def random_window(rng, offsets):
    return DiagonalWeights({d: rng.choice(LABELS) for d in offsets})


def test_path_sums_match_fraction_route():
    rng = random.Random(6)
    dw = random_window(rng, range(-3, 4))
    for (x0, y0), (x1, y1) in product(product(range(-3, 3), range(0, 6)), repeat=2):
        for B in (white(x1, y1), black(x1, y1)):
            A = white(x0, y0)
            same(path_sum(A, B, RAT, dw), path_sum(A, B, FRACTIONS, dw))


def test_signed_sums_match_fraction_route():
    rng = random.Random(7)
    for shape in partitions_up_to(4, include_empty=False):
        dw = random_window(rng, required_offsets(shape))
        for N in N_VALUES:
            sources, sinks = schur_path_endpoints(shape, N)
            same(
                signed_sum(sources, sinks, RAT, dw),
                signed_sum(sources, sinks, FRACTIONS, dw),
            )
        for b in admissible_baselines(shape):
            for M in range(1, 4):
                sources, sinks = layer_endpoints(shape, b, M)
                same(
                    signed_sum(sources, sinks, RAT, dw),
                    signed_sum(sources, sinks, FRACTIONS, dw),
                )


def test_signed_sums_with_mixed_heights_match_fraction_route():
    # The scale must cover the highest source, not only the first one.
    rng = random.Random(8)
    dw = random_window(rng, range(-3, 4))
    for _ in range(200):
        n = rng.randint(1, 3)
        sources = [white(rng.randint(-3, 0), rng.randint(0, 5)) for _ in range(n)]
        sinks = [white(rng.randint(-1, 3), rng.randint(0, 2)) for _ in range(n)]
        same(
            signed_sum(sources, sinks, RAT, dw),
            signed_sum(sources, sinks, FRACTIONS, dw),
        )


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_signed_sum_without_identity_pairing(M):
    # Sinks at x = 2 and 0 for sources at x = -1 and 1: only the swapped
    # pairing has paths, and it crosses columns -1 and 1 once each.
    shape = Partition((2, 1))
    sources, sinks = layer_endpoints(shape, (-1, 2), M)
    assert sinks[1].x < sources[1].x
    dw = DiagonalWeights({-1: 3, 0: -2, 1: 2})
    fast = signed_sum(sources, sinks, RAT, dw)
    same(fast, signed_sum(sources, sinks, FRACTIONS, dw))
    assert fast == TPoly(QQ, [-Fraction(1, M**5)])


def test_labels_outside_the_map_still_raise_where_used():
    with pytest.raises(DomainError):
        linear_value([2, True], 3, RAT)
    with pytest.raises(DomainError):
        schur_value(Tableau(Partition((1,)), [["x"]]), 2, RAT)
    with pytest.raises(DomainError):
        path_sum(white(0, 2), white(1, 0), RAT, DiagonalWeights({0: 1.5}))
    # No chain below N = 1, so the label is never used.
    assert linear_value(["x"], 1, RAT) == TPoly.zero(QQ)
    # A column outside the window fails on its own lookup, as before.
    with pytest.raises(ValueError):
        path_sum(white(0, 2), white(2, 0), RAT, DiagonalWeights({0: 1}))


ROUTES_WITH_LABEL = {
    "linear_value": lambda label, N, cmap: linear_value([2, label], N, cmap),
    "linear_value_by_recursion":
        lambda label, N, cmap: linear_value_by_recursion([label, 2], N, cmap),
    # N - 1 is the source height, so N = 1 leaves no edge to take.
    "path_matrix": lambda label, N, cmap: _scaled_path_matrix(
        [white(0, N - 1), white(1, N - 1)], [white(1, 0), black(2, 0)], cmap,
        DiagonalWeights({0: 2, 1: label})),
}


@pytest.mark.parametrize("cmap", [RAT, q_analogue_map(8)], ids=["rational", "qseries8"])
@pytest.mark.parametrize("label", [True, "x"])
@pytest.mark.parametrize("route", list(ROUTES_WITH_LABEL))
def test_rewritten_routes_raise_on_labels_they_meet(route, label, cmap):
    call = ROUTES_WITH_LABEL[route]
    with pytest.raises(DomainError):
        call(label, 3, cmap)
    # No entry below N = 1: the label is never met.
    result = call(label, 1, cmap)
    if route == "path_matrix":
        rows, denominator = result
        assert not any(rows[0]) and denominator == 1  # row 1 holds a trivial path
    else:
        assert result == TPoly.zero(cmap.ring)


# Each evaluator runs its body once per value, and each matrix builder once
# per matrix: (test id, the call, the module attribute of each body it runs,
# or of the decoder where one decode per value is expected, and how many
# runs to expect).  A body is counted wherever it is looked up, so a second
# run by any caller shows.
EVALUATORS = [
    ("linear_value", lambda: linear_value((2, -1, 3), 5, RAT),
     {"_linear_value_prefixes": 1, "_decoded": 1}),
    ("linear_value_by_recursion", lambda: linear_value_by_recursion((2, -1, 3), 5, RAT),
     {"_linear_value_by_recursion": 1}),
    ("linear_value_prefixes",
     lambda: [_scaled_linear_value((2, -1, 3)[:p], 5, RAT).divided() for p in range(4)],
     {"_linear_value_prefixes": 4}),
    ("schur_value", lambda: schur_value(Tableau(Partition((2, 1)), [[2, 1], [3]]), 5, RAT),
     {"_schur_value": 1}),
    ("path_weight_sum", lambda: single_row(_scaled_path_matrix(
        [white(0, 4)], [white(3, 0), black(2, 1)], RAT,
        DiagonalWeights({0: 2, 1: -1, 2: 3})), QQ),
     {"_path_row": 1, "_integer_form": 1}),
    ("path_sum", lambda: lattice._scaled_path_sum(
        white(0, 4), white(3, 0), RAT, DiagonalWeights({0: 2, 1: -1, 2: 3})).divided(),
     {"_path_row": 1, "_integer_form": 1}),
    ("lgv_signed_sum", lambda: _scaled_lgv_signed_sum(
        *schur_path_endpoints(Partition((2, 2)), 4), RAT,
        DiagonalWeights({-1: 2, 0: 1, 1: 3})).divided(),
     {"_run_sweep": 1, "_decoded": 1}),
    # One integer form per matrix, and one prefix pass per column.
    ("h_matrix", lambda: _h_matrix(
        Partition((3, 2, 2)), 5, RAT, DiagonalWeights({-2: 2, -1: -1, 0: 3, 1: 1, 2: 2})),
     {"_integer_form": 1, "_linear_value_prefixes": 3}),
    ("determinants", lambda: [value.divided() for value in _determinants(
        Partition((3, 2, 2)), 5, RAT, DiagonalWeights({-2: 2, -1: -1, 0: 3, 1: 1, 2: 2}))],
     {"_integer_form": 2, "_linear_value_prefixes": 3 + 3}),
    # Over qseries:8 each body runs once over one packed form
    # (``_packed_route``), and so does each matrix; the determinants write
    # their entries over the packed form itself, try no integer form and
    # take one Laplace expansion each.  Over qsym the determinants write
    # theirs over the tagged form; the TPoly matrices the tests read are
    # rows of one integer-form attempt.
    ("schur_value-qseries8", lambda: schur_value(
        Tableau(Partition((2, 1)), [[2, 1], [3]]), 5, Q8),
     {"_schur_value": 1, "_packed_route": 1, "_decoded": 1}),
    ("h_matrix-qseries8", lambda: _h_matrix(
        Partition((3, 2, 2)), 5, Q8, DiagonalWeights(Q8_WINDOW)),
     {"_integer_form": 1, "_packed_route": 1, "_linear_value_prefixes": 3}),
    ("determinants-qseries8", lambda: [value.divided() for value in _determinants(
        Partition((3, 2, 2)), 5, Q8, DiagonalWeights(Q8_WINDOW))],
     {"_integer_form": 0, "_packed_route": 2, "_linear_value_prefixes": 3 + 3, "_laplace": 2}),
    ("path_matrix-qseries8", lambda: _scaled_path_matrix(
        *PATH_ENDPOINTS, Q8, DiagonalWeights(Q8_WINDOW)),
     {"_integer_form": 1, "_path_sums": 2, "_packed_route": 2}),
    ("path_determinant-qseries8", lambda: _path_determinant(
        *PATH_ENDPOINTS, Q8, DiagonalWeights(Q8_WINDOW)).divided(),
     {"_integer_form": 0, "_path_sums": 2, "_packed_route": 2, "_laplace": 1}),
    ("h_matrix-qsym", lambda: _h_matrix(
        Partition((3, 2, 2)), 5, QSYM, DiagonalWeights(Q8_WINDOW)),
     {"_integer_form": 1, "_packed_route": 1, "_linear_value_prefixes": 3}),
    ("determinants-qsym", lambda: [value.divided() for value in _determinants(
        Partition((3, 2, 2)), 5, QSYM, DiagonalWeights(Q8_WINDOW))],
     {"_integer_form": 0, "_packed_route": 2, "_linear_value_prefixes": 3 + 3,
      "_tagged_laplace": 2, "_laplace": 0}),
    ("path_matrix-qsym", lambda: _scaled_path_matrix(
        *PATH_ENDPOINTS, QSYM, DiagonalWeights(Q8_WINDOW)),
     {"_integer_form": 1, "_path_sums": 2, "_packed_route": 2}),
    ("path_determinant-qsym", lambda: _path_determinant(
        *PATH_ENDPOINTS, QSYM, DiagonalWeights(Q8_WINDOW)).divided(),
     {"_integer_form": 0, "_path_sums": 2, "_packed_route": 2, "_tagged_laplace": 1,
      "_laplace": 0}),
]


def ring_of(test_id):
    if test_id.endswith("qseries8"):
        return Q8.ring
    return QSYM.ring if test_id.endswith("qsym") else QQ


def assert_value_over(value, ring):
    if ring == QQ:
        assert_rational(value)
        return
    assert isinstance(value, TPoly) and value.ring is ring
    if ring == QSYM.ring:
        assert all(type(c) is MonomialPolynomial for c in value.coeffs)
        return
    assert all(type(c) is QSeries and all(type(a) is int for a in c.coeffs) for c in value.coeffs)


@pytest.mark.parametrize(
    "call, expected, ring",
    [(e[1], e[2], ring_of(e[0])) for e in EVALUATORS],
    ids=[e[0] for e in EVALUATORS],
)
def test_evaluator_runs_once_per_call(monkeypatch, call, expected, ring):
    runs = dict.fromkeys(expected, 0)
    for name in expected:
        original = getattr(values, name, None) or getattr(lattice, name)

        def counting(*args, _name=name, _original=original):
            runs[_name] += 1
            return _original(*args)

        for module in (values, lattice, jacobi_trudi):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    result = call()
    assert runs == expected
    if isinstance(result, tuple):  # a matrix: one row per source or row index
        rows, denominator = result
        assert type(denominator) is int and denominator >= 1
        for row in rows:
            for entry in row:
                if isinstance(entry, TPoly):  # over a map's own ring, D = 1
                    assert denominator == 1
                    assert_value_over(entry, ring)
                else:
                    assert all(type(c) is int for c in entry)
        return
    for value in result if isinstance(result, list) else [result]:
        assert_value_over(value, ring)
