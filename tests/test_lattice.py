"""Lattice paths, vertex-disjoint systems, signed sums, layer identities."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from schurzeta.errors import DomainError
from schurzeta.rings import QQ, TPoly, _scaled_determinant
from schurzeta.shapes import (
    Partition,
    admissible_baselines,
    bit_tableau_stats,
    build_bit_tableau,
    partitions_up_to,
)
from schurzeta import lattice
from schurzeta.lattice import (
    _layer_sides,
    _path_determinant,
    _scaled_lgv_signed_sum,
    _scaled_path_matrix,
    _sweep_plan,
    black,
    layer_endpoints,
    schur_path_endpoints,
    white,
)
from schurzeta.values import (
    CoefficientMap,
    DiagonalWeights,
    coefficient_map_for,
    diagonal_tableau,
    linear_value,
    rational_map,
    required_offsets,
    schur_value,
)

from path_enumeration import (
    edge_kind,
    edge_weight,
    enumerate_path_systems,
    enumerated_signed_sum,
    iter_paths,
    path_from_edge_kinds,
)
from row_matrices import assert_stands_for, single_row

RAT = rational_map()


def by_hand(spec):
    """The map of spec with no integer, packed or tagged form."""
    cmap = coefficient_map_for(spec)
    return CoefficientMap(cmap.name, cmap.ring, cmap.fn)


def frac_pow(m, k):
    return Fraction(1, m**k) if k >= 0 else Fraction(m**-k)


def signed_sum(sources, sinks, cmap, dw):
    """The column sweep's signed path-system sum, divided."""
    return _scaled_lgv_signed_sum(sources, sinks, cmap, dw).divided()


def path_sum(A, B, cmap, dw):
    """The one-entry path matrix A -> B, divided."""
    [value] = single_row(_scaled_path_matrix([A], [B], cmap, dw), cmap.ring)
    return value


def lgv_sides(sources, sinks, dw):
    """The signed sum and the path-matrix determinant, undivided, over the
    rational map: the two sides the LGV sweep compares."""
    matrix = _scaled_path_matrix(sources, sinks, RAT, dw)
    return _scaled_lgv_signed_sum(sources, sinks, RAT, dw), _scaled_determinant(matrix, QQ)


# ---------------------------------------------------------------------------
# single paths


def test_same_column_path_sum_is_one():
    dw = DiagonalWeights({0: 2})
    assert path_sum(white(0, 3), white(0, 0), RAT, dw) == TPoly.one(QQ)


def test_unreachable_targets_give_zero():
    dw = DiagonalWeights({-1: 2, 0: 2})
    assert path_sum(white(1, 3), white(0, 0), RAT, dw) == TPoly.zero(QQ)
    # same column but wrong color
    assert path_sum(white(0, 3), black(0, 0), RAT, dw) == TPoly.zero(QQ)


def test_worked_single_path_weight():
    # nine edges from white(-4, 4) down to white(4, 0); only the four
    # heights > 1 crossings contribute nontrivial factors
    a = {-4: 2, -3: 1, -2: 3, -1: 2, 0: 5, 1: 3, 2: 2, 3: 4}
    dw = DiagonalWeights(a)
    path = path_from_edge_kinds(white(-4, 4), (3, 5, 4, 1, 2, 3, 5, 5, 4), RAT, dw)
    assert path.vertices[0] == white(-4, 4)
    assert path.vertices[-1] == white(4, 0)
    expected = (
        frac_pow(4, a[-4]) * frac_pow(4, a[-3]) * frac_pow(4, a[-2]) * frac_pow(2, a[-1])
    )
    assert path.weight == TPoly(QQ, [0, 0, 0, 0, 0, expected])


def test_path_weight_recomputes_from_edge_list():
    a = {-4: 2, -3: 1, -2: 3, -1: 2, 0: 5, 1: 3, 2: 2, 3: 4}
    dw = DiagonalWeights(a)
    path = path_from_edge_kinds(white(-4, 4), (3, 5, 4, 1, 2, 3, 5, 5, 4), RAT, dw)
    assert [edge_kind(t, h) for t, h in zip(path.vertices, path.vertices[1:])] == [
        3, 5, 4, 1, 2, 3, 5, 5, 4,
    ]
    coeff = Fraction(1)
    tdeg = 0
    for tail, head in zip(path.vertices, path.vertices[1:]):
        c, d = edge_weight(tail, head, RAT, dw)
        coeff *= c
        tdeg += d
    assert path.weight == TPoly(QQ, [0] * tdeg + [coeff])


def test_path_sum_equals_linear_value():
    rng = random.Random(31)
    for r in range(1, 5):
        for N in range(1, 7):
            i = rng.randint(-2, 1)
            j = i + r - 1
            dw = DiagonalWeights({d: rng.randint(-2, 3) for d in range(i, j + 1)})
            by_path = path_sum(white(i, N - 1), white(j + 1, 0), RAT, dw)
            keys = [dw[j - s] for s in range(r)]
            assert by_path == linear_value(keys, N, RAT)


# ---------------------------------------------------------------------------
# path systems


def test_single_pair_systems_match_path_sum():
    dw = DiagonalWeights({0: 2, 1: 3})
    A, B = white(0, 3), white(2, 0)
    systems = list(enumerate_path_systems([A], [B], RAT, dw))
    assert all(s.sign == 1 and s.sigma == (0,) for s in systems)
    total = TPoly.zero(QQ)
    for s in systems:
        total = total + s.weight
    assert total == path_sum(A, B, RAT, dw)


def test_system_weights_recompute_from_edges():
    dw = DiagonalWeights({-1: 2, 0: 1, 1: 2})
    sources, sinks = schur_path_endpoints(Partition((2, 1)), 3)
    for system in enumerate_path_systems(sources, sinks, RAT, dw):
        combined = TPoly.one(QQ)
        for path in system.paths:
            coeff = Fraction(1)
            tdeg = 0
            for tail, head in zip(path.vertices, path.vertices[1:]):
                c, d = edge_weight(tail, head, RAT, dw)
                coeff *= c
                tdeg += d
            assert path.weight == TPoly(QQ, [0] * tdeg + [coeff])
            combined = combined * path.weight
        assert combined == system.weight


def test_disjointness_uses_colors():
    # systems may share a position when one path uses the black copy
    dw = DiagonalWeights({-1: 1, 0: 1, 1: 1})
    sources, sinks = schur_path_endpoints(Partition((2, 2)), 3)
    shared_positions = False
    for system in enumerate_path_systems(sources, sinks, RAT, dw):
        seen = {}
        for idx, path in enumerate(system.paths):
            for v in path.vertices:
                key = (v.x, v.y)
                if key in seen and seen[key] != idx:
                    shared_positions = True
                seen[key] = idx
        vertex_lists = [set(p.vertices) for p in system.paths]
        for i in range(len(vertex_lists)):
            for j in range(i + 1, len(vertex_lists)):
                assert not (vertex_lists[i] & vertex_lists[j])
    assert shared_positions  # the black/white split is actually exercised


def test_signed_sum_matches_determinant_2x2():
    dw = DiagonalWeights({-1: 2, 0: 2, 1: 1})
    sources, sinks = schur_path_endpoints(Partition((2, 2)), 3)
    signed, det = lgv_sides(sources, sinks, dw)
    assert signed == det


def test_signed_sum_impossible_geometry_is_zero():
    dw = DiagonalWeights({0: 2, 1: 2, 2: 2})
    # both sinks strictly left of both sources
    assert signed_sum(
        [white(2, 3), white(3, 3)], [white(0, 0), white(1, 0)], RAT, dw
    ) == TPoly.zero(QQ)


def test_lgv_identity_random_scenarios():
    rng = random.Random(41)
    for shape in [Partition((2, 1)), Partition((2, 2)), Partition((3, 1)), Partition((2, 2, 1))]:
        for N in range(1, 5):
            dw = DiagonalWeights(
                {d: rng.randint(-2, 3) for d in required_offsets(shape)}
            )
            sources, sinks = schur_path_endpoints(shape, N)
            signed, det = lgv_sides(sources, sinks, dw)
            assert signed == det


def test_scenario_sum_matches_schur_value():
    rng = random.Random(42)
    for shape in partitions_up_to(4, include_empty=False):
        for N in range(1, 5):
            dw = DiagonalWeights(
                {d: rng.randint(-2, 3) for d in required_offsets(shape)}
            )
            sources, sinks = schur_path_endpoints(shape, N)
            assert signed_sum(sources, sinks, RAT, dw) == schur_value(
                diagonal_tableau(shape, dw), N, RAT
            )
    empty = schur_path_endpoints(Partition(()), 4)
    assert signed_sum(*empty, RAT, DiagonalWeights({})) == TPoly.one(QQ)


def test_single_cell_scenario():
    dw = DiagonalWeights({0: 3})
    value = signed_sum(*schur_path_endpoints(Partition((1,)), 5), RAT, dw)
    assert value == TPoly(QQ, [sum(Fraction(1, m**3) for m in range(1, 5))])


# ---------------------------------------------------------------------------
# warm-up grid: the single-vertex lattice encodes zeta-star values


def _grid_paths(A, B):
    """Monotone staircase paths in the plain grid: right or down only."""
    (ax, ay), (bx, by) = A, B
    if bx < ax or by > ay:
        return
    path = [A]

    def rec(x, y):
        if (x, y) == B:
            yield tuple(path)
            return
        if x < bx:
            path.append((x + 1, y))
            yield from rec(x + 1, y)
            path.pop()
        if y > by:
            path.append((x, y - 1))
            yield from rec(x, y - 1)
            path.pop()

    yield from rec(ax, ay)


def _grid_weight(path, labels):
    w = Fraction(1)
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        if x2 == x1 + 1:
            w *= frac_pow(y1, labels[x1])
    return w


def test_warm_up_grid_matches_zeta_star_and_only_identity_systems():
    # columns 1..7, heights 1..6; the gap leaving column x carries the
    # label at offset x - 5, so N = 7 and the offsets run -4..1
    labels = {1: 1, 2: 2, 3: 1, 4: 2, 5: 2, 6: 1}
    offsets = {x: x - 5 for x in labels}
    dw = DiagonalWeights({offsets[x]: labels[x] for x in labels})
    N = 7
    A = [(1, 6), (4, 6)]
    B = [(6, 1), (7, 1)]

    def w(i, j):
        return sum(
            (_grid_weight(p, labels) for p in _grid_paths(A[i], B[j])), Fraction(0)
        )

    # pairwise sums match truncated zeta-star values (t = 1), with the
    # first index on the rightmost crossed gap
    for i, j in iproduct(range(2), range(2)):
        gaps = range(A[i][0], B[j][0])
        keys = [dw[offsets[x]] for x in reversed(gaps)]
        expected = sum(linear_value(keys, N, RAT).coeffs, Fraction(0))
        assert w(i, j) == expected

    # vertex-disjoint systems exist only for the identity permutation
    disjoint_id = []
    for p1 in _grid_paths(A[0], B[0]):
        s1 = set(p1)
        for p2 in _grid_paths(A[1], B[1]):
            if not s1 & set(p2):
                disjoint_id.append(_grid_weight(p1, labels) * _grid_weight(p2, labels))
    for p1 in _grid_paths(A[0], B[1]):
        s1 = set(p1)
        for p2 in _grid_paths(A[1], B[0]):
            assert s1 & set(p2)  # crossing paths always share a vertex

    det = w(0, 0) * w(1, 1) - w(0, 1) * w(1, 0)
    assert sum(disjoint_id, Fraction(0)) == det

    # and the signed sum equals the Schur value at t = 1 of the shape the
    # two columns encode
    shape = Partition((2, 2, 2, 1, 1))
    schur_at_one = sum(schur_value(diagonal_tableau(shape, dw), N, RAT).coeffs, Fraction(0))
    assert det == schur_at_one


# ---------------------------------------------------------------------------
# single-layer identity


def layer_sides(shape, b, M, dw):
    """The zero-one tableau's stats, the closed form and the signed sum of
    one layer step, divided."""
    bt = build_bit_tableau(shape, b)
    stats = bit_tableau_stats(bt)
    predicted, signed = _layer_sides(bt, stats, M, RAT, dw)
    return stats, predicted.divided(), signed.divided()


def test_layer_baseline_equal_to_conjugate_gives_one():
    shape = Partition((3, 1))
    dw = DiagonalWeights({d: 2 for d in required_offsets(shape)})
    _, predicted, signed = layer_sides(shape, shape.conjugate().parts, 2, dw)
    assert predicted == signed == TPoly.one(QQ)


def test_layer_worked_example():
    shape = Partition((4, 2, 2, 1))
    a = {-3: 1, -2: 2, -1: 3, 0: 2, 1: 1, 2: 2, 3: 2}
    dw = DiagonalWeights(a)
    M = 3
    stats, predicted, signed = layer_sides(shape, (2, 1, 1, 0), M, dw)
    assert stats.one_ordered and stats.v1 == 2 and stats.h1 == 1
    exponent = a[3] + a[0] + a[-1] + a[-2] + a[-3]
    scale = Fraction(1, M**exponent)
    one_minus_t = TPoly(QQ, [1, -1])
    assert predicted == TPoly(QQ, [0, 0, scale]) * one_minus_t
    assert predicted == signed


def test_layer_not_one_ordered_sum_vanishes():
    shape = Partition((2, 2))
    dw = DiagonalWeights({-1: 2, 0: 1, 1: 3})
    stats, predicted, signed = layer_sides(shape, (0, 0), 3, dw)
    assert not stats.one_ordered
    assert predicted == signed == TPoly.zero(QQ)


def test_layer_rejects_bad_input():
    shape = Partition((2, 2))
    dw = DiagonalWeights({-1: 2, 0: 1, 1: 3})
    with pytest.raises(ValueError):
        layer_sides(shape, (0, 1), 3, dw)
    with pytest.raises(ValueError):
        layer_sides(shape, (1, 1), 0, dw)


def test_path_system_requires_matching_sizes():
    dw = DiagonalWeights({0: 2})
    with pytest.raises(ValueError):
        list(enumerate_path_systems([white(0, 2)], [], RAT, dw))
    with pytest.raises(ValueError):
        list(enumerate_path_systems([], [], RAT, dw))


# ---------------------------------------------------------------------------
# the column sweep against enumeration

RING_SPECS = ["rational", "qseries:8", "qsym"]


def random_window(rng, spec, offsets):
    lo = -2 if spec == "rational" else 1
    return DiagonalWeights({d: rng.randint(lo, 3) for d in offsets})


@pytest.mark.parametrize("spec", RING_SPECS)
def test_sweep_matches_enumeration_on_schur_endpoints(spec):
    cmap = coefficient_map_for(spec)
    rng = random.Random(61)
    nonzero = 0
    for shape in partitions_up_to(5):
        for N in range(1, 6):
            dw = random_window(rng, spec, required_offsets(shape))
            sources, sinks = schur_path_endpoints(shape, N)
            swept = signed_sum(sources, sinks, cmap, dw)
            assert swept == enumerated_signed_sum(sources, sinks, cmap, dw), (shape, N)
            nonzero += bool(swept)
    assert nonzero > 50


@pytest.mark.parametrize("spec", RING_SPECS)
def test_sweep_matches_enumeration_on_layer_endpoints(spec):
    cmap = coefficient_map_for(spec)
    rng = random.Random(62)
    cases = [
        (shape, b)
        for shape in partitions_up_to(5, include_empty=False)
        for b in admissible_baselines(shape)
    ]
    cases.append((Partition((4, 2, 2, 1)), (2, 1, 1, 0)))
    odd_systems = 0
    for shape, b in cases:
        for M in range(1, 5):
            dw = random_window(rng, spec, required_offsets(shape))
            sources, sinks = layer_endpoints(shape, b, M)
            assert signed_sum(sources, sinks, cmap, dw) == enumerated_signed_sum(
                sources, sinks, cmap, dw
            ), (shape, b, M)
            odd_systems += any(
                s.sign < 0 for s in enumerate_path_systems(sources, sinks, cmap, dw)
            )
    assert odd_systems > 0  # the sign of a non-identity pairing is exercised


HAND_BUILT = {
    "black-endpoints": ([black(0, 3), black(1, 2)], [black(2, 3), black(3, 1)]),
    "black-and-white-at-one-position": (
        [white(0, 2), black(0, 2)], [white(2, 0), black(2, 2)]
    ),
    "trivial-path": ([white(0, 2), white(-1, 3)], [white(0, 2), white(2, 0)]),
    "trivial-path-below-zero": ([white(0, -1), white(0, 2)], [white(0, -1), white(1, 0)]),
    "duplicate-sources": ([white(0, 2), white(0, 2)], [white(1, 0), white(2, 0)]),
    "duplicate-sinks": ([white(0, 2), white(1, 2)], [white(2, 0), white(2, 0)]),
    "unreachable-sink": ([white(0, 2), white(1, 3)], [white(2, 0), white(3, 4)]),
    "sinks-left-of-sources": ([white(2, 3), white(3, 3)], [white(0, 0), white(1, 0)]),
    "source-right-of-every-sink": ([white(0, 2), white(3, 2)], [white(1, 0), white(2, 0)]),
    "mixed-heights": (
        [white(-1, 4), white(0, 2), black(1, 3)], [white(2, 0), white(3, 1), black(3, 2)]
    ),
    "swapped-pairing": ([white(-1, 3), white(1, 3)], [white(2, 2), white(0, 2)]),
}
ZERO_CASES = {
    "duplicate-sources",
    "duplicate-sinks",
    "unreachable-sink",
    "sinks-left-of-sources",
    "source-right-of-every-sink",
}


@pytest.mark.parametrize("spec", RING_SPECS)
@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_sweep_matches_enumeration_on_hand_built_endpoints(name, spec):
    cmap = coefficient_map_for(spec)
    dw = DiagonalWeights({-2: 1, -1: 2, 0: 1, 1: 2, 2: 1, 3: 1})
    sources, sinks = HAND_BUILT[name]
    swept = signed_sum(sources, sinks, cmap, dw)
    assert swept == enumerated_signed_sum(sources, sinks, cmap, dw)
    assert bool(swept) == (name not in ZERO_CASES)


def enumerated_path_sum(A, B, cmap, dw):
    acc = TPoly.zero(cmap.ring)
    for _, coeff, tdeg in iter_paths(A, B, cmap, dw, frozenset()):
        acc = acc + TPoly.monomial(cmap.ring, coeff, tdeg)
    return acc


PATH_MATRIX_LAYOUT = (
    [white(-2, 4), white(0, 3), black(1, 4), white(3, 2), white(4, 0)],
    [white(0, 0), black(1, 1), white(2, 2), black(3, 0), white(4, 0), white(-1, 5),
     white(0, 3), black(4, 2)],
)


@pytest.mark.parametrize("spec", RING_SPECS)
@pytest.mark.parametrize("name", ["layout", *HAND_BUILT])
def test_path_matrix_matches_enumerated_paths(name, spec):
    # Black sinks, sinks above height 0 and in several columns, sinks above
    # a source (zero entries) and sources right of a sink.
    cmap = coefficient_map_for(spec)
    dw = random_window(random.Random(63), spec, range(-2, 5))
    sources, sinks = PATH_MATRIX_LAYOUT if name == "layout" else HAND_BUILT[name]
    expected = [[enumerated_path_sum(A, B, cmap, dw) for B in sinks] for A in sources]
    assert_stands_for(_scaled_path_matrix(sources, sinks, cmap, dw), expected, cmap.ring)
    for A, row in zip(sources, expected):
        assert row == [path_sum(A, B, cmap, dw) for B in sinks], A
    if name == "layout":
        entries = [entry for row in expected for entry in row]
        assert sum(bool(e) for e in entries) > 10 and not all(entries)


def test_path_matrix_reads_only_the_columns_a_path_leaves():
    # Sinks up to column 2: column 2 is never left, and columns left of the
    # source never entered.
    sources, sinks = [white(0, 3), white(1, 2)], [white(1, 0), black(2, 1)]
    needed = {0: 2, 1: -1}
    expected = _scaled_path_matrix(sources, sinks, RAT, DiagonalWeights(needed))
    assert all(expected[0][0])
    assert _scaled_path_matrix(
        sources, sinks, RAT, DiagonalWeights({-1: "x", **needed, 2: "x"})
    ) == expected
    with pytest.raises(ValueError):
        _scaled_path_matrix(sources, sinks, RAT, DiagonalWeights({0: 2}))
    # The determinant on every map's own form reads the same columns: packed
    # ints, masked q-series residues, tagged qsym keys, and by hand.
    needed = {0: 2, 1: 3}
    for cmap in (*map(coefficient_map_for, RING_SPECS), *map(by_hand, RING_SPECS)):
        det = _path_determinant(sources, sinks, cmap, DiagonalWeights(needed))
        assert det.divided()
        assert _path_determinant(
            sources, sinks, cmap, DiagonalWeights({-1: "x", **needed, 2: "x"})) == det
        with pytest.raises(ValueError, match="no offset 1"):
            _path_determinant(sources, sinks, cmap, DiagonalWeights({0: 2}))


@pytest.mark.parametrize("spec", RING_SPECS)
def test_sweep_endpoint_counts(spec):
    cmap = coefficient_map_for(spec)
    dw = DiagonalWeights({0: 2, 1: 2})
    with pytest.raises(ValueError):
        signed_sum([white(0, 2)], [], cmap, dw)
    with pytest.raises(ValueError):
        signed_sum([white(0, 2)], [white(1, 0), white(2, 0)], cmap, dw)
    assert signed_sum([], [], cmap, dw) == TPoly.one(cmap.ring)


def test_sweep_reads_only_the_labels_a_path_needs():
    # (2, 2) at N = 3: sources in columns -1 and 0, sinks in columns 1 and 2,
    # so every system leaves columns -1, 0 and 1, and none leaves column 2.
    sources, sinks = schur_path_endpoints(Partition((2, 2)), 3)
    with pytest.raises(ValueError):
        signed_sum(sources, sinks, RAT, DiagonalWeights({-1: 2, 1: 2}))
    with pytest.raises(DomainError):
        signed_sum(sources, sinks, RAT, DiagonalWeights({-1: 2, 0: "x", 1: 2}))
    with pytest.raises(DomainError):
        signed_sum(
            sources, sinks, coefficient_map_for("qsym"), DiagonalWeights({-1: 2, 0: 0, 1: 2})
        )
    needed = {-1: 2, 0: 1, 1: 3}
    assert signed_sum(
        sources, sinks, RAT, DiagonalWeights({**needed, 2: "x"})
    ) == signed_sum(sources, sinks, RAT, DiagonalWeights(needed))


def test_large_scenario_sum_matches_determinant_and_schur_value():
    # 491,081 path systems, too many to enumerate in a test; the sweep never lists them.
    shape, N = Partition((4, 4, 4)), 6
    rng = random.Random(444)
    dw = DiagonalWeights({d: rng.randint(-2, 3) for d in required_offsets(shape)})
    sources, sinks = schur_path_endpoints(shape, N)
    signed, det = lgv_sides(sources, sinks, dw)
    assert signed.divided()
    assert signed == det
    assert signed.divided() == schur_value(diagonal_tableau(shape, dw), N, RAT)


# ---------------------------------------------------------------------------
# the compiled sweep: one plan per geometry moved to its normal position

# (sources, sinks), each named for what it covers; every one is moved below
# by the translations that keep its plan.
TRANSLATED = {
    "black-endpoints": ([black(0, 3), black(1, 2)], [black(2, 3), black(3, 1)]),
    "negative-x": ([white(-4, 3), white(-3, 3)], [white(-2, 1), white(-1, 0)]),
    "lowest-at-0": ([white(0, 3), black(1, 2), white(1, 4)],
                    [white(2, 0), white(3, 1), black(3, 2)]),
    "lowest-at-1": ([white(0, 4), white(1, 3)], [white(2, 1), white(3, 2)]),
    "lowest-at-2": ([white(0, 5), black(1, 4), white(2, 5)],
                    [white(2, 2), black(3, 3), white(4, 2)]),
    "swapped-pairing": ([white(-1, 3), white(1, 3)], [white(2, 2), white(0, 2)]),
}


def moved(vertices, dx, dy):
    return [lattice.Vertex(v.x + dx, v.y + dy, v.black) for v in vertices]


def translations(sources, sinks):
    """Moves that keep the plan: any column shift, and height shifts that
    keep the lowest endpoint at height 1 or above when it is there."""
    low = min(v.y for v in (*sources, *sinks))
    heights = (0, 1, 3) if low >= 1 else (0,)
    return [(dx, dy) for dx in (-3, 0, 2) for dy in heights if low + dy >= 1 or dy == 0]


@pytest.mark.parametrize("spec", RING_SPECS)
@pytest.mark.parametrize("name", list(TRANSLATED))
def test_translated_geometries_share_one_plan(name, spec):
    cmap = coefficient_map_for(spec)
    rng = random.Random(71)
    sources, sinks = TRANSLATED[name]
    plan = _sweep_plan(sources, sinks)[0]
    values = set()
    for dx, dy in translations(sources, sinks):
        a, b = moved(sources, dx, dy), moved(sinks, dx, dy)
        assert _sweep_plan(a, b)[0] is plan, (dx, dy)
        dw = random_window(rng, spec, range(-8, 8))
        swept = signed_sum(a, b, cmap, dw)
        assert swept == enumerated_signed_sum(a, b, cmap, dw), (dx, dy)
        values.add(str(swept.to_json()))
    assert len(values) > 1  # one plan, weights that differ


@pytest.mark.parametrize("spec", RING_SPECS)
def test_lowest_endpoint_at_zero_keeps_its_own_plan(spec):
    # At height 0 no edge leaves a vertex; moved up to height 1 the same
    # endpoints are a different geometry, with a different plan and value.
    cmap = coefficient_map_for(spec)
    dw = random_window(random.Random(72), spec, range(-1, 5))
    sources, sinks = [white(0, 2), white(1, 2)], [white(1, 0), white(3, 0)]
    up, up_sinks = moved(sources, 0, 1), moved(sinks, 0, 1)
    assert _sweep_plan(sources, sinks)[0] is not _sweep_plan(up, up_sinks)[0]
    for a, b in ((sources, sinks), (up, up_sinks)):
        assert signed_sum(a, b, cmap, dw) == enumerated_signed_sum(a, b, cmap, dw)
    assert signed_sum(sources, sinks, cmap, dw) != signed_sum(up, up_sinks, cmap, dw)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_empty_unequal_and_repeated_endpoints(spec):
    cmap = coefficient_map_for(spec)
    dw = DiagonalWeights({d: 2 for d in range(-2, 5)})
    assert signed_sum([], [], cmap, dw) == TPoly.one(cmap.ring)
    assert _sweep_plan([], [])[0].signs == [1]
    with pytest.raises(ValueError, match="^need equally many sources and sinks$"):
        signed_sum([white(0, 2), white(1, 2)], [white(2, 0)], cmap, dw)
    for sources, sinks in (
        ([white(0, 2), white(0, 2)], [white(1, 0), white(2, 0)]),
        ([white(0, 2), white(1, 2)], [white(2, 0), white(2, 0)]),
    ):
        assert _sweep_plan(sources, sinks)[0].signs == []
        assert signed_sum(sources, sinks, cmap, dw) == TPoly.zero(cmap.ring)
        assert signed_sum(sources, sinks, cmap, dw) == enumerated_signed_sum(
            sources, sinks, cmap, dw)
    # The repeated case is still over the L^K of the columns its paths
    # would leave: two paths leave columns 0 and 1, each label 2, so K = 8.
    zero = _scaled_lgv_signed_sum(
        [white(0, 3), white(0, 3)], [white(2, 0), white(2, 1)], RAT, dw)
    assert zero.denominator == 6**8 and not zero.poly


# A window missing a crossed column, or holding a label the map rejects:
# the sweep raises what, and where, a sweep that looks up f(a_x, h) as it
# reaches each move would, the leftmost column looked up first, even where
# no system exists.
SQUARE = schur_path_endpoints(Partition((2, 2)), 3)  # columns -1, 0 and 1 are left
RAISES = [
    (SQUARE, {-1: 2, 1: 2}, "rational", ValueError,
     "diagonal weight window has no offset 0"),
    (SQUARE, {-1: 2}, "rational", ValueError, "diagonal weight window has no offset 0"),
    (SQUARE, {0: 1}, "rational", ValueError, "diagonal weight window has no offset -1"),
    (SQUARE, {-1: 2, 0: "x", 1: 2}, "rational", DomainError,
     "rational weights must be integers, got 'x'"),
    (SQUARE, {-1: "x", 0: 1}, "rational", DomainError,
     "rational weights must be integers, got 'x'"),
    (SQUARE, {-1: 2, 0: 0, 1: 2}, "qsym", DomainError,
     "quasi-symmetric weights must be integers >= 1, got 0"),
    (SQUARE, {-1: 2, 0: 0, 1: 2}, "qseries:8", DomainError,
     "q-analogue weights must be integers >= 1, got 0"),
    # The same plan moved right by 3 and up by 2.
    (tuple(moved(side, 3, 2) for side in SQUARE), {2: 2, 4: 2}, "rational", ValueError,
     "diagonal weight window has no offset 3"),
    (tuple(moved(side, 3, 2) for side in SQUARE), {2: 2, 3: 1}, "rational", ValueError,
     "diagonal weight window has no offset 4"),
    # A sink above a source: no system, but column 1 is looked up.
    (([white(0, 2), white(1, 3)], [white(2, 0), white(3, 4)]), {0: 1}, "rational",
     ValueError, "diagonal weight window has no offset 1"),
    (([white(0, 1)], [white(2, 3)]), {}, "rational", None, None),
]


@pytest.mark.parametrize("case", range(len(RAISES)))
def test_missing_columns_and_bad_labels_raise_where_they_are_looked_up(case):
    (sources, sinks), window, spec, error, message = RAISES[case]
    dw, cmap = DiagonalWeights(window), coefficient_map_for(spec)
    if error is None:  # nothing to look up: a source below its sink
        assert signed_sum(sources, sinks, cmap, dw) == TPoly.zero(cmap.ring)
        for route in (cmap, by_hand(spec)):
            assert not _path_determinant(sources, sinks, route, dw).poly
        return
    with pytest.raises(error) as raised:
        signed_sum(sources, sinks, cmap, dw)
    assert str(raised.value) == message
    # The path-matrix determinant, on the map's packed or tagged form and by
    # hand, looks up the columns its rows leave in the same order.
    for route in (cmap, by_hand(spec)):
        with pytest.raises(error) as raised:
            _path_determinant(sources, sinks, route, dw)
        assert str(raised.value) == message


def test_plan_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(lattice._PLANS, "bound", 60)
    lattice._PLANS.cache_clear()
    first = layer_endpoints(Partition((2, 1)), (0, 0), 2)
    plan = _sweep_plan(*first)[0]
    built = 0
    for shape in partitions_up_to(5, include_empty=False):
        for b in admissible_baselines(shape):
            for M in (1, 2):
                found = _sweep_plan(*layer_endpoints(shape, b, M))[0]
                held = lattice._PLANS.held()
                assert held <= 60 or held == found.size
                built += 1
    assert built > 50
    # Moved right by 1: the leftmost endpoint to column 0, the lowest at height 1.
    assert first == ([white(-1, 2), white(1, 2)], [white(1, 1), white(2, 1)])
    assert (((0, 2, False), (2, 2, False)), ((2, 1, False), (3, 1, False))) not in lattice._PLANS
    rebuilt, x0, dy = _sweep_plan(*first)
    assert (x0, dy) == (-1, 0)
    assert rebuilt is not plan and rebuilt == plan
    lattice._PLANS.cache_clear()
