"""The q-series maps' packed form against the ``QSeries`` route.

``q_analogue_map(Q)`` has a packed form: its Schur walk, prefix DP,
recursion and LGV sweep run on ints at q = 2^b modulo 2^(bQ), and its
Jacobi-Trudi determinants are masked Laplace expansions over the packed
residues.  A hand-built map with the same function and no packed form runs
the same evaluator bodies on ``values._Coefficients`` of ``QSeries``, and
its determinants go to the Laplace expansion over ``TPoly``s: it is the
oracle here (``tests/test_packed_matrices.py`` covers the path matrices).
"""

import random

import pytest

from schurzeta import rings, values
from schurzeta.lattice import (
    _path_determinant,
    _scaled_lgv_signed_sum,
    layer_endpoints,
    schur_path_endpoints,
)
from schurzeta.jacobi_trudi import _determinants, _h_entries, _h_matrix, _h_runs
from schurzeta.rings import PackedSeriesRing, QSeries, QSeriesRing, TPoly, _scaled_determinant
from schurzeta.shapes import Partition, Tableau, admissible_baselines, partitions_up_to
from schurzeta.values import (
    CoefficientMap,
    DiagonalWeights,
    _determinant_bits,
    _linear_value_by_recursion,
    _linear_value_prefixes,
    _packed_route,
    _series_map,
    _unpacked,
    diagonal_tableau,
    linear_value,
    linear_value_by_recursion,
    q_analogue_map,
    quasisymmetric_map,
    required_offsets,
    schur_value,
)

ORDERS = [1, 2, 3, 8, 16]
N_VALUES = range(1, 7)


def by_hand(cmap):
    """The same map with no packed form: the ``QSeries`` route."""
    return CoefficientMap(cmap.name, cmap.ring, cmap.fn)


def labels_for(Q):
    """Labels 1..3, and two with m(k - 1) >= Q for every m, or for every
    m >= 2, so that f(k, m) = 0 there."""
    return (1, 2, 3, (Q + 1) // 2 + 1, Q + 1)


def rng_for(*key):
    return random.Random(repr(key))


@pytest.mark.parametrize("Q", ORDERS)
def test_schur_values_match_the_series_route(Q):
    cmap = q_analogue_map(Q)
    slow = by_hand(cmap)
    rng = rng_for("schur", Q)
    for shape in partitions_up_to(6):
        for N in N_VALUES:
            rows = [[rng.choice(labels_for(Q)) for _ in range(p)] for p in shape.parts]
            tableau = Tableau(shape, rows)
            fast = schur_value(tableau, N, cmap)
            assert fast.ring is cmap.ring
            assert all(type(c) is QSeries and c.order == Q for c in fast.coeffs)
            assert fast == schur_value(tableau, N, slow), (shape.parts, N, rows)


@pytest.mark.parametrize("Q", ORDERS)
def test_linear_values_match_the_series_route_at_every_prefix(Q):
    # The prefix DP's value of every prefix, decoded at the one width the
    # whole tuple takes, and the recursion's, against the QSeries route.
    cmap = q_analogue_map(Q)
    slow = by_hand(cmap)
    rng = rng_for("linear", Q)
    for r in range(7):
        for N in N_VALUES:
            keys = tuple(rng.choice(labels_for(Q)) for _ in range(r))
            packed, b = _packed_route([(k,) for k in keys], N, cmap)
            assert isinstance(packed.ring, PackedSeriesRing) and b == 1
            prefixes, _ = _linear_value_prefixes(keys, N, packed, b)
            _, by_depth = _linear_value_by_recursion(keys, N, packed, b)
            for p in range(r + 1):
                expected = linear_value(keys[:p], N, slow)
                for value in (prefixes[p], by_depth[p][-1]):
                    assert TPoly(cmap.ring, _unpacked(value, b, packed, cmap.ring)) == expected
            assert linear_value(keys, N, cmap) == linear_value(keys, N, slow)
            assert linear_value_by_recursion(keys, N, cmap) == linear_value(keys, N, slow)


def random_window(rng, shape, Q):
    return DiagonalWeights({d: rng.choice(labels_for(Q)) for d in required_offsets(shape)})


@pytest.mark.parametrize("Q", ORDERS)
def test_h_matrices_and_determinants_match_the_series_route(Q):
    cmap = q_analogue_map(Q)
    slow = by_hand(cmap)
    rng = rng_for("jt", Q)
    for shape in partitions_up_to(6):
        for N in N_VALUES:
            dw = random_window(rng, shape, Q)
            # The entries as TPolys, from the packed DP and from QSeries.
            rows, denominator = _h_matrix(shape, N, cmap, dw)
            oracle, one = _h_matrix(shape, N, slow, dw)
            assert denominator == one == 1 and rows == oracle
            # The packed form's own entries: each is the packing of the
            # oracle's, reduced by the mask, at the determinant's width.
            runs, lengths = _h_runs(shape, dw)
            prefixes = [list(enumerate(row)) for row in lengths]
            packed = cmap.packed_form(_determinant_bits(runs, prefixes, N, cmap))
            entries, b, form = _h_entries(runs, lengths, N, packed)
            ring = packed.ring
            assert form is packed and b == 1
            assert [[values._decoded(e, b) for e in row] for row in entries] == [
                [values._trimmed([ring.encode(c) for c in entry.coeffs]) for entry in row]
                for row in oracle
            ]
            # det H and det E against the Laplace expansion over QSeries.
            det_h, det_e = _determinants(shape, N, cmap, dw)
            laplace_h, laplace_e = _determinants(shape, N, slow, dw)
            assert det_h.poly.ring is cmap.ring and det_h.denominator == 1
            assert det_h.poly == laplace_h.poly and det_e.poly == laplace_e.poly
            assert laplace_h.poly == _scaled_determinant((oracle, 1), cmap.ring).poly
            if N <= 4:  # the identity itself, at the walk's sizes
                assert det_h.poly == schur_value(diagonal_tableau(shape, dw), N, slow)


@pytest.mark.parametrize("Q", ORDERS)
def test_signed_path_system_sums_match_the_series_route(Q):
    # The LGV column sweep runs over the packed form too.
    cmap = q_analogue_map(Q)
    slow = by_hand(cmap)
    rng = rng_for("lgv", Q)
    for shape in partitions_up_to(5, include_empty=False):
        dw = random_window(rng, shape, Q)
        endpoints = [schur_path_endpoints(shape, N) for N in range(1, 6)]
        endpoints += [layer_endpoints(shape, b, M)
                      for b in admissible_baselines(shape) for M in (1, 2, 3)]
        for sources, sinks in endpoints:
            fast = _scaled_lgv_signed_sum(sources, sinks, cmap, dw)
            assert fast.poly.ring is cmap.ring
            assert fast == _scaled_lgv_signed_sum(sources, sinks, slow, dw)


def test_only_rational_rows_go_to_elimination(monkeypatch):
    # Rational rows go to Bareiss, from the integer form or, built by hand,
    # from Fractions; packed q-series entries and tagged qsym entries to
    # their Laplace expansions; the other hand-built maps, with no packed
    # or tagged form, to the Laplace expansion over TPolys.
    shape, N = Partition((3, 2)), 5
    dw = DiagonalWeights({d: 1 + d % 3 for d in required_offsets(shape)})
    sources, sinks = schur_path_endpoints(shape, N)
    calls = []
    for module, name in ((rings, "_bareiss"), (values, "_laplace"), (rings, "_laplace"),
                         (values, "_tagged_laplace")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _n=name, _o=original: calls.append(_n) or _o(*a)
        )
    for cmap, route in ((q_analogue_map(8), "_laplace"), (quasisymmetric_map(), "_tagged_laplace"),
                        (values.rational_map(), "_bareiss")):
        calls.clear()
        fast = [*_determinants(shape, N, cmap, dw), _path_determinant(sources, sinks, cmap, dw)]
        assert calls == [route] * 3, cmap.name
        if route == "_laplace":  # over the residues themselves, not TPolys
            assert all(type(e) is values._Residues
                       for row in _h_entries(*_h_runs(shape, dw), N, cmap)[0] for e in row)
        calls.clear()
        slow = [*_determinants(shape, N, by_hand(cmap), dw),
                _path_determinant(sources, sinks, by_hand(cmap), dw)]
        assert calls == ["_bareiss" if route == "_bareiss" else "_laplace"] * 3
        assert fast == slow


# The decode: the order signed digits of a residue in base 2^b.

def series_ring(Q, b):
    return PackedSeriesRing.of(QSeriesRing(Q), b)


@pytest.mark.parametrize("Q, b", [(1, 2), (1, 9), (3, 2), (4, 7), (8, 64)])
def test_decode_reads_every_digit_in_range(Q, b):
    ring = series_ring(Q, b)
    half = 1 << (b - 1)
    rng = rng_for("digits", Q, b)
    extremes = [-half, half - 1, 0, -1, 1]
    for _ in range(200):
        coeffs = [rng.choice(extremes + [rng.randrange(-half, half)]) for _ in range(Q)]
        series = QSeries(Q, coeffs)
        residue = ring.encode(series)
        assert 0 <= residue <= ring.mask
        assert ring.decode(residue) == series
        # Any integer standing for the residue reads the same
        for multiple in (-2, -1, 1, 3):
            assert ring.decode(residue + multiple * (ring.mask + 1)) == series


@pytest.mark.parametrize("Q, b", [(1, 2), (3, 5), (8, 64)])
def test_decode_of_the_digit_range_ends_and_of_minus_one(Q, b):
    ring = series_ring(Q, b)
    half = 1 << (b - 1)
    for i in range(Q):
        lowest = QSeries(Q, [0] * i + [-half])
        assert ring.decode(ring.encode(lowest)) == lowest
        assert ring.decode((-half << (b * i)) & ring.mask).coeffs[i] == -half
    # The all-ones residue is -1: digit 0 is -1, every digit above it
    # borrows into 0, and the borrow out of the top one is dropped.
    assert ring.decode(ring.mask) == QSeries(Q, [-1])
    assert ring.decode(-1) == QSeries(Q, [-1])


@pytest.mark.parametrize("Q, b", [(1, 3), (2, 4), (8, 16)])
def test_decode_drops_the_carry_out_of_the_top_digit(Q, b):
    ring = series_ring(Q, b)
    half = 1 << (b - 1)
    top = b * (Q - 1)
    # A negative top digit borrows from above the ring's width, and a
    # digit carried past the top slot is a multiple of 2^(bQ): neither is
    # read back.
    for value in (-1, -half, half - 1):
        series = QSeries(Q, [0] * (Q - 1) + [value])
        assert ring.decode(value << top) == series
        assert ring.decode((value << top) + (1 << b * Q)) == series
        assert ring.decode((value << top) - (5 << b * Q)) == series
    # 2^(b-1) in the top slot is out of range and reads as -2^(b-1).
    assert ring.decode(half << top).coeffs[-1] == -half


def test_products_are_reduced_by_the_mask():
    ring = series_ring(8, 10)
    mask = ring.mask
    a = values._Residues([mask, 3, -7], mask)
    product = a * (mask - 5)
    assert product.coeffs == [c * (mask - 5) & mask for c in (mask, 3, -7)]
    assert all(0 <= c <= mask for c in product.coeffs)
    # so states stay near the ring's width however long the path
    cmap = q_analogue_map(8)
    keys = (1, 2, 3, 1, 2, 3)
    packed, b = _packed_route([(k,) for k in keys], 7, cmap)
    prefixes, (last, below) = _linear_value_prefixes(keys, 7, packed, b)
    width = packed.ring.bits * 8
    for value in [*prefixes, *last, *below]:
        assert all(abs(c).bit_length() <= width + 3 for c in value.coeffs)


# Worst cases: a hand-built map whose values are the bound itself, so a
# slot one bit narrower misreads them.

def constant_map(Q, scale):
    ring = QSeriesRing(Q)
    return _series_map("constant", ring, lambda k, m: QSeries(Q, [scale**k]))


@pytest.mark.parametrize("Q", [1, 3, 8])
@pytest.mark.parametrize("scale", [1, 3, 255, 256, 2**20 - 1])
def test_linear_values_at_their_bound(Q, scale):
    # At N = 2 the only chain is all ones: t^(r-1) times the product of the
    # f(k, 1), which is X itself, the top of the slot's range.
    cmap = constant_map(Q, scale)
    for keys in [(1,), (2, 1), (1, 2, 3), (3, 3, 3, 3)]:
        expected = TPoly(cmap.ring, [QSeries(Q, [0])] * (len(keys) - 1)
                         + [QSeries(Q, [scale ** sum(keys)])])
        assert linear_value(keys, 2, cmap) == expected
        assert linear_value_by_recursion(keys, 2, cmap) == expected
        assert linear_value(keys, 2, by_hand(cmap)) == expected


@pytest.mark.parametrize("Q", [1, 3, 8])
@pytest.mark.parametrize("scale", [1, 3, 2**20 - 1])
def test_determinants_at_their_bound(Q, scale):
    # A single column of h cells: H is 1 x 1, the linear value of h labels,
    # and at N = 2 its one coefficient is the determinant bound X itself.
    cmap = constant_map(Q, scale)
    for h in (1, 2, 4):
        shape = Partition((1,) * h)
        dw = DiagonalWeights({d: 2 for d in required_offsets(shape)})
        det_h, det_e = _determinants(shape, 2, cmap, dw)
        laplace_h, laplace_e = _determinants(shape, 2, by_hand(cmap), dw)
        assert det_h.poly == laplace_h.poly and det_e.poly == laplace_e.poly
        assert det_h.poly.coeffs[-1] == QSeries(Q, [scale ** (2 * h)])


@pytest.mark.parametrize("scale", [2, 7, 2**16 + 1])
def test_schur_value_of_a_column_at_its_bound(scale):
    # A column has no horizontal pairs, so at N = h + 1 its one filling
    # 1, 2, ..., h weighs the product of the f(k, m): X, when every other
    # m's share of S is zero.
    Q = 4
    ring = QSeriesRing(Q)
    cmap = _series_map("peaked", ring, lambda k, m: QSeries(Q, [scale**k if m == k else 0]))
    for h in (1, 2, 3):
        tableau = Tableau(Partition((1,) * h), [[i] for i in range(1, h + 1)])
        value = schur_value(tableau, h + 1, cmap)
        assert value == schur_value(tableau, h + 1, by_hand(cmap))
        assert value.coeffs[0] == QSeries(Q, [scale ** (h * (h + 1) // 2)])
