"""Linear and Schur values: frozen examples, oracle cross-checks, symmetry."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from schurzeta import sweeps, values
from schurzeta.errors import DomainError
from schurzeta.rings import (
    QQ,
    MonomialPolynomial,
    PackedTerms,
    PolyRing,
    QsymRing,
    TPoly,
    _field_maxima,
    ring_determinant,
)
from schurzeta.shapes import (
    Partition,
    Tableau,
    layer_graph,
    partitions_up_to,
    walk,
)
from schurzeta.values import (
    CoefficientMap,
    DiagonalWeights,
    _scaled_linear_value,
    coefficient_map_for,
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

from chain_enumeration import chain_sum_oracle
from filling_enumeration import filling_sum_oracle, iter_filling_rows

RAT = rational_map()


def poly(*coeffs):
    return TPoly(QQ, [Fraction(c) for c in coeffs])


def prefixes_of(keys, N, cmap):
    """The prefix DP's value of every prefix of keys, divided: one
    single-value call per prefix."""
    keys = tuple(keys)
    return [_scaled_linear_value(keys[:p], N, cmap).divided() for p in range(len(keys) + 1)]


def jt_row_determinant(shape, N, cmap, weights):
    """Row-reading Jacobi-Trudi determinant of a diagonal-constant tableau.

    Entries come from the peeling recursion, an independent route from the
    prefix dynamic program the package builds its matrices with (the two
    are compared above); it stays fast at large N, where the chain
    enumeration oracle does not."""
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
def test_linear_value_prefixes_match_chain_sums(cmap, lo, hi):
    # Every prefix of the dynamic program against the chains enumerated one
    # by one; linear_value is the program's full-length value.
    rng = random.Random(12)
    cases = [((), N) for N in range(1, 7)] + [((2, 1, 3), 1)]
    for N in range(1, 7):
        for r in range(7):
            cases.append((tuple(rng.randint(lo, hi) for _ in range(r)), N))
    for keys, N in cases:
        prefixes = prefixes_of(keys, N, cmap)
        assert len(prefixes) == len(keys) + 1
        for p, value in enumerate(prefixes):
            assert value == chain_sum_oracle(keys[:p], N, cmap), (keys, N, p)
        assert linear_value(keys, N, cmap) == prefixes[-1], (keys, N)


def test_linear_value_prefixes_edge_cases():
    assert prefixes_of((), 1, RAT) == [TPoly.one(QQ)]
    assert prefixes_of((2, 3), 1, RAT) == [poly(1), poly(), poly()]
    assert prefixes_of((2, 2), 3, RAT) == [poly(1), poly("5/4"), poly("1/4", "17/16")]
    with pytest.raises(ValueError):
        _scaled_linear_value((2,), 0, RAT)


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


@pytest.mark.parametrize(
    "cmap", [q_analogue_map(8), quasisymmetric_map()], ids=["qseries8", "qsym"]
)
def test_recursion_matches_chain_sums_over_other_rings(cmap):
    rng = random.Random(14)
    for r in range(6):
        for N in range(1, 7):
            for _ in range(2):
                keys = tuple(rng.randint(1, 3) for _ in range(r))
                expected = chain_sum_oracle(keys, N, cmap)
                assert linear_value(keys, N, cmap) == expected, (keys, N)
                assert linear_value_by_recursion(keys, N, cmap) == expected, (keys, N)


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
# every bound from one run of each route

ROUTES = (
    lambda keys, N: linear_value(keys, N, RAT),
    lambda keys, N: linear_value_by_recursion(keys, N, RAT),
    merge_expansion,
)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_linear_value_routes_give_each_route_at_every_bound(r):
    # The values each route reads off its one run at N, at the route walk's
    # last node along the one path keys, are, bound by bound, that route's
    # own single-N value and the chain sum.
    rng = random.Random(20 + r)
    if r <= 2:
        tuples = list(product(range(-2, 4), repeat=r))
    else:
        tuples = [tuple(rng.randint(-2, 3) for _ in range(r)) for _ in range(12)]
    for keys in tuples:
        expected = [chain_sum_oracle(keys, n) for n in range(1, 8)]
        single = [[route(keys, n) for route in ROUTES] for n in range(1, 8)]
        for N in range(1, 8):
            _, denominator, merge_denominator, by_bound = list(
                values._route_walk([(k,) for k in keys], N, RAT))[-1]
            assert len(by_bound) == N
            for n, lists in enumerate(by_bound, start=1):
                # Trimmed integer numerators, over D, D and the merge's D'.
                assert all(not cs or cs[-1] for cs in lists), (keys, N, n)
                divided = [
                    TPoly(QQ, [Fraction(c, d) for c in cs])
                    for cs, d in zip(lists, (denominator, denominator, merge_denominator))
                ]
                assert divided == single[n - 1] == [expected[n - 1]] * 3, (keys, N, n)


def test_linear_value_routes_needs_an_integer_form():
    # The route walk's numerators are over the integer form's L^K; a map
    # without one is refused.
    by_hand = CoefficientMap("by-hand", QQ, lambda k, m: Fraction(1, m**k))
    with pytest.raises(ValueError, match="integer form"):
        list(values._route_walk([(2,), (1,)], 3, by_hand))


@pytest.mark.parametrize("max_r, N", [(4, 6), (4, 3), (3, 5), (2, 1), (1, 6), (0, 4)])
def test_the_oracle_walk_matches_each_tuple_alone_and_the_chain_sums(max_r, N):
    # Random weight sets with negatives, zero and repeats: at every node the
    # walk's numerators are those of the tuple's own walk along its one
    # path, and each route's value at every bound is the chain sum.
    rng = random.Random(70 * max_r + N)
    weights = [rng.randint(-2, 3), 0, rng.choice([-1, -2])]
    weights.append(rng.choice(weights))  # a repeated value
    walked = list(values._route_walk([weights] * max_r, N, RAT))
    assert [keys for keys, *_ in walked] == list(_preorder(weights, max_r))
    for keys, denominator, merge_denominator, by_bound in walked:
        alone = list(values._route_walk([(k,) for k in keys], N, RAT))[-1]
        assert (keys, denominator, merge_denominator, by_bound) == alone
        for n, lists in enumerate(by_bound, start=1):
            expected = chain_sum_oracle(keys, n)
            for cs, d in zip(lists, (denominator, denominator, merge_denominator)):
                assert TPoly(QQ, [Fraction(c, d) for c in cs]) == expected, (keys, N, n)


def _preorder(weights, max_r, keys=()):
    """The key tuples of length <= max_r over weights, each before the
    tuples it starts, in the weights' order."""
    yield keys
    if len(keys) < max_r:
        for k in weights:
            yield from _preorder(weights, max_r, keys + (k,))


def test_the_oracle_walk_extends_each_prefix_once(monkeypatch):
    # A route body runs once per tuple of the sweep, with the one key that
    # tuple adds to its parent (none at the root): 780 key steps for the
    # tuples of length 1..4 over five values, against sum r * 5^r = 2,930
    # when every tuple is walked from the empty one.
    steps = []
    original = values._linear_value_by_recursion

    def counted(keys, *args):
        steps.append(len(keys))
        return original(keys, *args)

    monkeypatch.setattr(values, "_linear_value_by_recursion", counted)
    weights = (-1, 0, 1, 2, 3)
    sweeps.run_oracle_triangle(max_r=4, max_n=4, weight_values=weights)
    assert steps == [0] + [1] * 780 and 780 == sum(5**r for r in range(1, 5))
    steps.clear()
    for r in range(5):
        for keys in product(weights, repeat=r):
            list(values._route_walk([(k,) for k in keys], 4, RAT))
    assert sum(steps) == 2930


def test_the_merge_route_extends_each_composition_once_from_its_parent(monkeypatch):
    # Each merged composition of a tuple costs one strict-sum extension, so
    # the walk over the tuples of length 1..4 over five values makes
    # sum 5^r * 2^(r-1) = 5,555 of them.  Each starts from a vector the
    # parent tuple's state holds: a new part from a composition's sums, a
    # merged part from the sums before its last part; so no composition is
    # summed again from the empty one.
    starts = []
    extend = values._strict_extension

    def counted(sums, row):
        starts.append(sums)
        return extend(sums, row)

    merge_compositions = values._merge_compositions

    def checked(keys, rows, state=None):
        first = len(starts)
        _, groups = result = merge_compositions(keys, rows, state)
        parents = [c for group in state[1] for c in group] if state else []
        held = {id(vector) for c in parents for vector in c[:2]}  # sums and before
        assert all(id(sums) in held for sums in starts[first:])
        assert len(starts) - first == (sum(map(len, groups)) if state else 0)
        return result

    monkeypatch.setattr(values, "_strict_extension", counted)
    monkeypatch.setattr(values, "_merge_compositions", checked)
    sweeps.run_oracle_triangle(max_r=4, max_n=4, weight_values=(-1, 0, 1, 2, 3))
    assert len(starts) == 5555 == sum(5**r * 2 ** (r - 1) for r in range(1, 5))


@pytest.mark.parametrize("N", [2, 8])
def test_packed_routes_at_extreme_labels(N):
    # Labels -2 and 6 in tuples of up to five keys.  At N = 8 the slots are
    # 263 bits wide; at N = 2 every value is one chain of ones, t^(r-1),
    # and the slot is two bits: the one bit the bound allows and a sign bit,
    # which the signed decode reads as 0.  The packed
    # routes, the walk and the merge expansion all match the chain sums and
    # the routes over a hand-built map with no integer form.
    labels = (-2, 6)
    by_hand = CoefficientMap("by-hand", QQ, RAT.fn)
    L = math.lcm(*range(1, N))
    S = {k: int(sum(RAT(k, m) * L ** max(k, 0) for m in range(1, N))) for k in labels}
    bits = (max(S.values()) ** 5).bit_length() + 1
    assert values._slot_bits([labels] * 5, N, RAT.integer_form(L)) == bits
    walked = list(values._route_walk([labels] * 5, N, RAT))
    assert len(walked) == 63
    for keys, denominator, merge_denominator, by_bound in walked:
        for n, lists in enumerate(by_bound, start=1):
            expected = chain_sum_oracle(keys, n)
            for cs, d in zip(lists, (denominator, denominator, merge_denominator)):
                assert TPoly(QQ, [Fraction(c, d) for c in cs]) == expected, (keys, n)
        assert (
            prefixes_of(keys, N, RAT) == prefixes_of(keys, N, by_hand)
            and linear_value_by_recursion(keys, N, RAT)
            == linear_value_by_recursion(keys, N, by_hand)
            == merge_expansion(keys, N)
            == expected
        ), keys
    if N == 2:
        assert all(by_bound[-1][0] == [0] * (len(keys) - 1) + [1] for keys, *_, by_bound in walked)


@pytest.mark.parametrize("label", [2.5, True, "2"])
def test_the_oracle_sweep_refuses_a_weight_that_is_not_an_int_before_any_route(
    label, monkeypatch
):
    def no_route(*args):
        raise AssertionError("a route ran")

    for body in ("_linear_value_prefixes", "_linear_value_by_recursion", "_merge_compositions"):
        monkeypatch.setattr(values, body, no_route)
    with pytest.raises(DomainError):
        sweeps.run_oracle_triangle(max_r=2, max_n=3, weight_values=(1, label))


def test_the_oracle_sweep_over_no_weights_or_repeated_weights():
    # No weight value: only the empty tuple.  A repeated value is kept, as
    # itertools.product keeps it, and the instances stay by length, then in
    # product order, then by N.
    report = sweeps.run_oracle_triangle(max_r=3, max_n=2, weight_values=())
    assert [(i["keys"], i["N"]) for i in report["instances"]] == [([], 1), ([], 2)]
    report = sweeps.run_oracle_triangle(max_r=2, max_n=2, weight_values=(2, -1, 2))
    assert report["pass"] is True
    assert [(i["keys"], i["N"]) for i in report["instances"]] == [
        (list(keys), N)
        for r in range(3)
        for keys in product((2, -1, 2), repeat=r)
        for N in (1, 2)
    ]


@pytest.mark.parametrize("label", [2.5, True, "2"])
def test_every_linear_route_rejects_a_key_that_is_not_an_int(label):
    for call in (*ROUTES, lambda keys, N: list(values._route_walk([(k,) for k in keys], N, RAT))):
        for keys in ([label], [2, label]):
            with pytest.raises(DomainError):
                call(keys, 3)


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


MEMO_MAPS = {
    "rational": rational_map,
    "rational-integer-form": lambda: rational_map().integer_form(6),
    "qseries6": lambda: q_analogue_map(6),
    "qsym": quasisymmetric_map,
}


@pytest.mark.parametrize("make", MEMO_MAPS.values(), ids=MEMO_MAPS.keys())
def test_memo_never_serves_a_bool_label(make):
    # (True, 2) == (1, 2) as a dict key, so the memo must not answer True
    # with the value it keeps for the label 1; nor the row memo, keyed (k, N).
    cmap = make()
    cmap(1, 2)
    with pytest.raises(DomainError):
        cmap(True, 2)
    assert cmap.row(1, 3) == [cmap(1, 1), cmap(1, 2)]
    with pytest.raises(DomainError):
        cmap.row(True, 3)


@pytest.mark.parametrize("make", MEMO_MAPS.values(), ids=MEMO_MAPS.keys())
def test_memo_runs_fn_once_per_label_and_entry(make):
    cmap = make()
    calls = []

    def counting(k, m):
        calls.append((k, m))
        return cmap.fn(k, m)

    counted = CoefficientMap(cmap.name, cmap.ring, counting)
    for _ in range(2):
        assert linear_value((1, 2, 1), 4, counted) == linear_value((1, 2, 1), 4, cmap)
    assert sorted(calls) == [(k, m) for k in (1, 2) for m in (1, 2, 3)]
    assert counted(2, 3) is counted(2, 3) and len(calls) == 6


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
    assert coefficient_map_for("qseries:5").ring.name == "qseries:5"
    assert coefficient_map_for("qsym").name == "qsym"
    with pytest.raises(ValueError):
        coefficient_map_for("floating")
    # the order is a canonical positive decimal, as diagonal offsets are
    for spec in ("qseries:x", "qseries:1_0", "qseries:+3", "qseries: 5", "qseries:05",
                 "qseries:0", "qseries:-1", "qseries:"):
        with pytest.raises(ValueError):
            coefficient_map_for(spec)


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


def test_diagonal_weights_rejects_non_offset_keys():
    # A float, a bool or a non-canonical string is refused, not truncated
    # or parsed.
    for key in (1.7, True, "01", "+1", " 1", "1.0", "x", None):
        with pytest.raises(ValueError):
            DiagonalWeights({key: 2})
    assert DiagonalWeights({-1: 2, "0": 3}).to_json() == {"-1": 2, "0": 3}


def test_diagonal_weights_rejects_repeated_offsets():
    for labels in ({"1": 3, 1: 5}, {"-2": 1, -2: 1}):
        with pytest.raises(ValueError):
            DiagonalWeights(labels)


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
        value_at_zero = schur_value(tab, N, RAT).coefficient(0)
        expected = Fraction(0)
        for filling, v_count, _ in iter_filling_rows(shape, N):
            if v_count:
                continue
            term = Fraction(1)
            for (ri, row) in enumerate(filling):
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
    """Arbitrary tableaux, every shape with at most 6 cells (the empty one
    too), N = 1..7."""
    rng = random.Random(24)
    lo, hi = weight_range
    for shape in partitions_up_to(6):
        for N in range(1, 8):
            rows = [[rng.randint(lo, hi) for _ in range(p)] for p in shape.parts]
            tab = Tableau(shape, rows)
            assert schur_value(tab, N, cmap) == filling_sum_oracle(tab, N, cmap), (
                shape, N, rows)


def _refuse(*_):
    raise AssertionError("the walk took the other route")


_x = MonomialPolynomial.variable_power


def _random_tableau(rng, shape, lo, hi):
    return Tableau(shape, [[rng.randint(lo, hi) for _ in range(p)] for p in shape.parts])


def _assert_true_bounds(value):
    for c in value.coeffs:
        assert max(_field_maxima(c._terms), default=0) <= c._bound <= 2**64 - 1


def test_packed_qsym_walk_matches_enumeration(monkeypatch):
    """Tableaux that are not diagonal-constant, labels 1..3, N <= 5, with
    the coefficient-list route refused."""
    monkeypatch.setattr(values, "_Coefficients", _refuse)
    cmap = quasisymmetric_map()
    rng = random.Random(31)
    for shape in partitions_up_to(5, include_empty=False):
        for N in range(2, 6):
            tab = _random_tableau(rng, shape, 1, 3)
            value = schur_value(tab, N, cmap)
            assert value == filling_sum_oracle(tab, N, cmap), (shape, N, tab.rows)
            _assert_true_bounds(value)


def _on_both_routes(tab, N, monkeypatch):
    """The qsym value of tab at N from the tagged walk (the coefficient
    list refused), and from the coefficient list (the tagged step refused,
    ``PackedTerms.weights`` patched to decline every map)."""
    with monkeypatch.context() as patch:
        patch.setattr(values, "_Coefficients", _refuse)
        tagged = schur_value(tab, N, quasisymmetric_map())
    with monkeypatch.context() as patch:
        patch.setattr(PackedTerms, "weights", staticmethod(lambda rows: None))
        patch.setattr(values, "_tagged_step", _refuse)
        listed = schur_value(tab, N, quasisymmetric_map())
    return tagged, listed


@pytest.mark.parametrize("parts, N", [((3, 3), 8), ((2, 2, 2, 2), 6)])
def test_packed_qsym_walk_matches_the_coefficient_list_route(parts, N, monkeypatch):
    rng = random.Random(N)
    tab = _random_tableau(rng, Partition(parts), 1, 3)
    value, listed = _on_both_routes(tab, N, monkeypatch)
    _assert_true_bounds(value)
    assert value and value == listed


@pytest.mark.parametrize(
    "parts, N", [((6, 2), 3), ((6, 2), 4), ((6, 2), 5), ((7,), 3), ((4, 4), 3)]
)
def test_tagged_decode_expands_long_runs_of_equal_neighbours(parts, N, monkeypatch):
    """Fillings with h = C - height = 6, so the decode expands (1 - t)^6:
    against the oracle and the coefficient-list route, with no zero
    coefficient stored."""
    tab = _random_tableau(random.Random(sum(parts) + N), Partition(parts), 1, 3)
    cmap = quasisymmetric_map()
    rows = [[cmap(k, M) for row in tab.rows for k in row] for M in range(1, N)]
    tagged = PackedTerms.weights(rows)
    graph = layer_graph(parts)
    state = walk(graph, N, {0: 1}, values._tagged_step(graph, tagged))
    assert max(key >> (tagged.shift + 64) for key in state) == sum(parts) - len(parts)
    value, listed = _on_both_routes(tab, N, monkeypatch)
    assert value == filling_sum_oracle(tab, N, cmap) == listed
    assert all(c for poly in value.coeffs for c in poly._terms.values())
    _assert_true_bounds(value)


@pytest.mark.parametrize(
    "name, f",
    [
        ("two terms", lambda k, m: _x(m, k) + _x(m + 1, 1) * 2),
        ("coefficient 2", lambda k, m: _x(m, k) * 2),
    ],
)
def test_hand_built_qsym_map_with_no_single_key_takes_the_coefficient_list_route(
    name, f, monkeypatch
):
    monkeypatch.setattr(PackedTerms, "__init__", _refuse)
    cmap = CoefficientMap(name, QsymRing(), f)
    rng = random.Random(32)
    for shape in partitions_up_to(4, include_empty=False):
        tab = _random_tableau(rng, shape, 1, 3)
        assert schur_value(tab, 4, cmap) == filling_sum_oracle(tab, 4, cmap), shape


def test_hand_built_single_monomial_map_takes_the_packed_route(monkeypatch):
    """f(k, m) = x_1 x_m^(2k): one monomial, coefficient 1, exponents
    bounded by 2k + 1 per cell."""
    monkeypatch.setattr(values, "_Coefficients", _refuse)
    cmap = CoefficientMap("x1 x_m^2k", QsymRing(), lambda k, m: _x(1, 1) * _x(m, 2 * k))
    rng = random.Random(33)
    for shape in partitions_up_to(4, include_empty=False):
        tab = _random_tableau(rng, shape, 1, 3)
        value = schur_value(tab, 4, cmap)
        assert value == filling_sum_oracle(tab, 4, cmap), shape
        _assert_true_bounds(value)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_tagged_walk_keeps_its_tags_above_every_variable_of_the_map(N, monkeypatch):
    """Maps whose keys use x_N and past it, where the quasi-symmetric map
    stops at x_(N-1): a tag field at x_N would overlap their exponents."""
    monkeypatch.setattr(values, "_Coefficients", _refuse)
    maps = [
        CoefficientMap("x_(m+3)^k", QsymRing(), lambda k, m: _x(m + 3, k)),
        CoefficientMap("x_1 x_(m+N)^k", QsymRing(), lambda k, m: _x(1, 1) * _x(m + N, k)),
    ]
    rng = random.Random(34 + N)
    for cmap in maps:
        for shape in partitions_up_to(4, include_empty=False):
            tab = _random_tableau(rng, shape, 1, 3)
            value = schur_value(tab, N, cmap)
            assert value == filling_sum_oracle(tab, N, cmap), (cmap.name, shape)
            _assert_true_bounds(value)


def test_packed_qsym_walk_reaches_a_label_sum_of_the_field_limit(monkeypatch):
    monkeypatch.setattr(values, "_Coefficients", _refuse)
    cmap = quasisymmetric_map()
    for rows in ([[2**63, 2**63 - 1]], [[2**63 - 1], [2**63]], [[2**62, 2**62], [2**63 - 1]]):
        tab = Tableau.from_rows(rows)
        value = schur_value(tab, 3, cmap)
        assert value == filling_sum_oracle(tab, 3, cmap)
        _assert_true_bounds(value)
    top = schur_value(Tableau.from_rows([[2**63, 2**63 - 1]]), 2, cmap)
    assert top.coeffs[0].terms == {((1, 2**64 - 1),): 1}


def test_qsym_labels_past_the_field_limit_take_the_coefficient_list_route(monkeypatch):
    monkeypatch.setattr(PackedTerms, "__init__", _refuse)
    cmap = quasisymmetric_map()
    for rows in ([[2**64]], [[2**63, 2**63]], [[2**63], [2**63]]):
        with pytest.raises(DomainError, match="past the limit 2\\^64 - 1"):
            schur_value(Tableau.from_rows(rows), 3, cmap)
    # Distinct entries on a diagonal keep each exponent below the limit.
    tab = Tableau.from_rows([[2**63, 1], [1, 2**63]])
    assert schur_value(tab, 3, cmap) == filling_sum_oracle(tab, 3, cmap)


def test_schur_value_edge_cases():
    for cmap in (RAT, q_analogue_map(8), quasisymmetric_map()):
        empty = Tableau.from_rows([])
        for N in (1, 2, 5):
            assert schur_value(empty, N, cmap) == TPoly.one(cmap.ring)
            assert filling_sum_oracle(empty, N, cmap) == TPoly.one(cmap.ring)
        single = Tableau.from_rows([[2, 1], [3]])
        assert schur_value(single, 1, cmap) == TPoly.zero(cmap.ring)
        assert filling_sum_oracle(single, 1, cmap) == TPoly.zero(cmap.ring)
    # a diagonal of three cells needs three distinct values
    tab = Tableau.from_rows([[1, 2, 2], [2, 1, 3], [2, 2, 1]])
    assert schur_value(tab, 3, RAT) == TPoly.zero(QQ)
    assert schur_value(tab, 4, RAT) == filling_sum_oracle(tab, 4, RAT) != TPoly.zero(QQ)


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
