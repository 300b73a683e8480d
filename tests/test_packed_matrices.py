"""The determinant routes on the packed forms against the hand-built maps.

Every Jacobi-Trudi and path matrix over ``q_analogue_map`` is written on
its packed form, ``values._Residues`` at the width of
``values._determinant_bits``, and goes to the masked Laplace expansion;
over ``quasisymmetric_map`` it is written on the tagged form,
``values._Tagged``, and goes to ``values._tagged_laplace``; the rational
path rows run on packed ints at t = 2^b.  A map built by hand from the same
function, with no form, runs ``values._Coefficients`` and the Laplace
expansion over ``TPoly``s (rational rows: ``Fraction``s and elimination):
it is the oracle here, with ``tests/path_enumeration.py`` for the path sums
and ``tests/monomial_reference.py`` for the quasi-symmetric products.
"""

import random
from itertools import permutations

import pytest

from schurzeta import values
from schurzeta.errors import DomainError
from schurzeta.jacobi_trudi import _determinants, _h_determinant, _h_entries, _h_matrix, _h_runs
from schurzeta.lattice import (
    _path_determinant,
    _path_sums,
    _scaled_path_matrix,
    black,
    layer_endpoints,
    schur_path_endpoints,
    white,
)
from schurzeta.rings import (
    QQ,
    MonomialPolynomial,
    PolyRing,
    QsymRing,
    TPoly,
    _field_maxima,
    _trimmed,
    ring_determinant,
)
from schurzeta.shapes import Partition, admissible_baselines, partitions_up_to
from schurzeta.values import (
    CoefficientMap,
    DiagonalWeights,
    _determinant_bits,
    _determinant_form,
    coefficient_map_for,
    diagonal_tableau,
    quasisymmetric_map,
    required_offsets,
    schur_value,
)

from monomial_reference import reference_product, reference_sum
from path_enumeration import iter_paths, permutation_sign
from row_matrices import assert_stands_for

RING_SPECS = ["rational", "qseries:8", "qsym"]
QSYM = quasisymmetric_map()


def by_hand(cmap):
    """The same map with no integer, packed or tagged form."""
    return CoefficientMap(cmap.name, cmap.ring, cmap.fn)


def random_window(rng, spec, offsets):
    lo = -2 if spec == "rational" else 1
    return DiagonalWeights({d: rng.randint(lo, 3) for d in offsets})


def enumerated_path_sum(A, B, cmap, dw):
    acc = TPoly.zero(cmap.ring)
    for _, coeff, degree in iter_paths(A, B, cmap, dw, frozenset()):
        acc = acc + TPoly.monomial(cmap.ring, coeff, degree)
    return acc


def split_tagged(entry, shift):
    """A ``_Tagged`` entry as a TPoly over qsym, split at bit shift with
    the test's own loop."""
    powers = {}
    for key, c in entry.terms.items():
        powers.setdefault(key >> shift, {})[key & ((1 << shift) - 1)] = c
    coeffs = [MonomialPolynomial._make(powers.get(d, {}), 2**64 - 1)
              for d in range(max(powers, default=-1) + 1)]
    return TPoly(QSYM.ring, coeffs)


def tpoly_rows(matrix, ring):
    """Rows of TPolys over a non-rational ring, D = 1."""
    rows, denominator = matrix
    assert denominator == 1
    return [[TPoly(ring, entry.coeffs) for entry in row] for row in rows]


# Endpoints: the Schur paths at N = 1..6 of every shape of up to 5 cells, a
# few layers, and a layout with black sinks, sinks above their sources or
# below height 0, trivial paths and sinks in several columns.
LAYOUT = (
    [white(-2, 4), white(0, 3), black(1, 4), white(3, 2), white(4, 0)],
    [white(0, 0), black(1, 1), white(2, 2), black(3, 0), white(4, 0), white(-1, 5),
     white(0, 3), black(4, 2), white(5, -1)],
)


def endpoint_cases(max_cells, max_n):
    cases = [LAYOUT]
    for shape in partitions_up_to(max_cells, include_empty=False):
        cases += [schur_path_endpoints(shape, N) for N in range(1, max_n + 1)]
        cases += [layer_endpoints(shape, b, 2) for b in list(admissible_baselines(shape))[:2]]
    return cases


def window_for(rng, spec, sources, sinks):
    xs = [v.x for v in (*sources, *sinks)]
    return random_window(rng, spec, range(min(xs) - 1, max(xs) + 1))


@pytest.mark.parametrize("spec", RING_SPECS)
def test_packed_path_rows_match_the_hand_built_route(spec):
    cmap = coefficient_map_for(spec)
    slow = by_hand(cmap)
    rng = random.Random(f"rows-{spec}")
    for sources, sinks in endpoint_cases(5, 6):
        dw = window_for(rng, spec, sources, sinks)
        oracle = _scaled_path_matrix(sources, sinks, slow, dw)
        if spec == "rational":
            # packed ints at t = 2^b, against the enumerated paths
            expected = [[enumerated_path_sum(A, B, cmap, dw) for B in sinks] for A in sources]
            assert_stands_for(_scaled_path_matrix(sources, sinks, cmap, dw), expected, QQ)
            continue
        expected = tpoly_rows(oracle, cmap.ring)
        top = max(a.y for a in sources)
        if spec == "qsym":
            form = cmap.tagged_form(top + 1)
            shift = form.ring.shift
            rows = [[split_tagged(v, shift) if v is not None else TPoly.zero(cmap.ring)
                     for v in _path_sums(A, sinks, form, dw)[0]] for A in sources]
            assert rows == expected, (sources, sinks)
            continue
        # the residues at the row's own width, decoded, and at a width of
        # the determinant's, masked, against the oracle's encodings
        assert tpoly_rows(_scaled_path_matrix(sources, sinks, cmap, dw), cmap.ring) == expected
        packed = cmap.packed_form(40)
        for A, want in zip(sources, expected):
            sums, b, form = _path_sums(A, sinks, packed, dw)
            assert form is packed and b == 1
            got = [values._decoded(v, 1) if v is not None else [] for v in sums]
            assert got == [_trimmed([packed.ring.encode(c) for c in e.coeffs]) for e in want]


@pytest.mark.parametrize("spec", RING_SPECS)
def test_path_determinants_match_the_hand_built_route(spec):
    cmap = coefficient_map_for(spec)
    slow = by_hand(cmap)
    rng = random.Random(f"det-{spec}")
    for shape in partitions_up_to(6):
        for N in range(1, 7):
            sources, sinks = schur_path_endpoints(shape, N)
            dw = random_window(rng, spec, required_offsets(shape))
            det = _path_determinant(sources, sinks, cmap, dw)
            assert det == _path_determinant(sources, sinks, slow, dw), (shape.parts, N)
            if spec != "rational":
                assert det.denominator == 1 and det.poly.ring is cmap.ring
            if shape.size <= 4 and N <= 4:  # LGV: the Schur value, by its walk
                assert det.divided() == schur_value(diagonal_tableau(shape, dw), N, slow)
    for sources, sinks in endpoint_cases(3, 3):
        dw = window_for(rng, spec, sources, sinks)
        enumerated = [[enumerated_path_sum(A, B, cmap, dw) for B in sinks] for A in sources]
        if len(sources) == len(sinks):
            assert _path_determinant(sources, sinks, cmap, dw).divided() == ring_determinant(
                enumerated, PolyRing(cmap.ring))


def reference_determinant(matrix):
    """det of a square matrix of TPolys over qsym by the permutation
    expansion, on the decoded term dicts with tuple-key arithmetic."""
    total: dict = {}
    for sigma in permutations(range(len(matrix))):
        product = {0: {(): 1}}
        for i, j in enumerate(sigma):
            step: dict = {}
            for d1, terms in product.items():
                for d2, c in enumerate(matrix[i][j].coeffs):
                    if c:
                        d = d1 + d2
                        step[d] = reference_sum(step.get(d, {}), reference_product(terms, c.terms))
            product = step
        for d, terms in product.items():
            total[d] = reference_sum(total.get(d, {}), terms, permutation_sign(sigma))
    return TPoly(QsymRing(), [MonomialPolynomial(total.get(d, {}))
                              for d in range(max(total, default=-1) + 1)])


def test_tagged_h_rows_and_determinants_match_the_hand_built_route():
    slow = by_hand(QSYM)
    rng = random.Random("tagged-jt")
    for shape in partitions_up_to(6):
        for N in range(1, 7):
            dw = random_window(rng, "qsym", required_offsets(shape))
            runs, lengths = _h_runs(shape, dw)
            form, bound = _determinant_form(QSYM, N, runs, [list(enumerate(r)) for r in lengths])
            assert form.ring.shift == 64 * (N - 1) and bound <= 2**64 - 1
            entries = _h_entries(runs, lengths, N, form)[0]
            oracle = tpoly_rows(_h_matrix(shape, N, slow, dw), QSYM.ring)
            assert [[split_tagged(e, form.ring.shift) for e in row] for row in entries] == oracle
            det_h, det_e = _determinants(shape, N, QSYM, dw)
            slow_h, slow_e = _determinants(shape, N, slow, dw)
            assert det_h == slow_h and det_e == slow_e, (shape.parts, N)
            for c in det_h.poly.coeffs:  # a true exponent bound, no stored zero
                assert max(_field_maxima(c._terms), default=0) <= c._bound == bound
                assert all(c._terms.values())
            if shape.size <= 4 and N <= 4:
                assert det_h.poly == reference_determinant(oracle)


def test_masked_laplace_keeps_every_product_within_the_ring_width():
    # Reduced by the mask, every minor's coefficients stay within a few
    # bits of b * Q however many products the expansion multiplies.
    Q8 = coefficient_map_for("qseries:8")
    shape, N = Partition((4, 3, 3)), 5
    dw = DiagonalWeights({d: 1 + d % 3 for d in required_offsets(shape)})
    runs, lengths = _h_runs(shape, dw)
    prefixes = [list(enumerate(r)) for r in lengths]
    form = Q8.packed_form(_determinant_bits(runs, prefixes, N, Q8))
    entries = _h_entries(runs, lengths, N, form)[0]
    zero, one = values._packed_constants(form.ring)
    minors = []
    original = values._Residues.__mul__

    def recorded(self, w):
        product = original(self, w)
        if type(w) is not int:
            minors.append(product)
        return product

    values._Residues.__mul__ = recorded
    try:
        det = values._laplace(entries, values.Ring(form.name, zero, one))
    finally:
        values._Residues.__mul__ = original
    width = form.ring.bits * 8
    assert len(minors) > 20
    assert all(0 <= c <= form.ring.mask for p in minors for c in p.coeffs)
    assert all(abs(c).bit_length() <= width + 3 for c in det.coeffs)
    assert values._form_determinant(entries, form, 0, Q8.ring) == _determinants(
        shape, N, by_hand(Q8), dw)[0]


# Trivial paths, a source and its sink in one column, weigh 1: the slot
# bound X = 1 itself, the top of the two-bit slot's digit range.
@pytest.mark.parametrize("spec", RING_SPECS)
def test_path_rows_at_their_bound(spec):
    cmap = coefficient_map_for(spec)
    dw = DiagonalWeights({0: 2, 1: 3})
    sources = [white(0, 2), black(1, 3), white(2, 0)]
    sinks = [white(0, 1), black(1, 3), white(2, 0)]
    for A, B in zip(sources, sinks):
        sums, b, packed = _path_sums(A, [B], cmap.integer_form(1) if spec == "rational"
                                     else cmap, dw)
        assert values._unpacked(sums[0], b, packed, packed.ring if spec == "rational"
                                else cmap.ring) == [1 if spec == "rational" else cmap.ring.one]
    det = _path_determinant(sources, sinks, cmap, dw)
    assert det.divided() == TPoly.one(cmap.ring)


# Labels near 2^63: the exponent bound passes 2^64 - 1, and the matrix
# takes the TPoly rows, which raise DomainError where an exponent would
# pass the limit, and compute every other value.
def _refuse(*_):
    raise AssertionError("the tagged route was taken")


@pytest.mark.parametrize("parts, window, N, raises", [
    # X = 2^64 on both matrices, the largest exponent 2^63 + 2^62
    ((2,), {0: 2**63, 1: 2**62}, 2, False),
    ((2, 1), {-1: 2**63, 0: 2**63, 1: 2**63}, 3, True),  # h_2 meets x_m^(2^64)
    ((2, 1), {-1: 1, 0: 2**64, 1: 1}, 3, True),          # one label past the limit
])
def test_labels_past_the_field_limit_take_the_tpoly_rows(parts, window, N, raises, monkeypatch):
    monkeypatch.setattr(values, "_tagged_laplace", _refuse)
    monkeypatch.setattr(values._Tagged, "__init__", _refuse)
    shape = Partition(parts)
    dw = DiagonalWeights(window)
    sources, sinks = schur_path_endpoints(shape, N)
    for compute in (lambda c: _h_determinant(shape, N, c, dw),
                    lambda c: _path_determinant(sources, sinks, c, dw)):
        if raises:
            for cmap in (QSYM, by_hand(QSYM)):
                with pytest.raises(DomainError, match="past the limit 2\\^64 - 1"):
                    compute(cmap)
        else:
            assert compute(QSYM) == compute(by_hand(QSYM))


def test_labels_at_the_field_limit_stay_tagged(monkeypatch):
    # X = 2^64 - 1 exactly: the tagged route, with no carry into the tag.
    shape, N = Partition((2,)), 2
    dw = DiagonalWeights({-1: 1, 0: 2**63 - 1, 1: 2**62})
    runs, lengths = _h_runs(shape, dw)
    _, bound = _determinant_form(QSYM, N, runs, [list(enumerate(r)) for r in lengths])
    assert bound == 2**64 - 1
    det_h, det_e = _determinants(shape, N, QSYM, dw)
    monkeypatch.setattr(values, "_tagged_laplace", _refuse)
    slow_h, slow_e = _determinants(shape, N, by_hand(QSYM), dw)
    assert det_h == slow_h and det_e == slow_e
    assert det_h.poly.coeffs[0].terms == {((1, 2**63 - 1 + 2**62),): 1}
