"""Jacobi-Trudi determinant expressions for diagonal-constant tableaux.

For a shape with diagonal weights a_d (the label on every cell with
column - row = d) the Schur-type value equals two determinants:

* the row reading ("H side"): a width x width matrix whose (i, j) entry is
  the linear value of the descending offsets a_(j-1), a_(j-2), ...,
  a_(j - (conjugate_i + j - i));
* the column reading ("E side"): a height x height matrix of linear values
  of the ascending offsets a_(1-j), ..., a_(part_i - i), evaluated at 1-t.

Entries with index length zero are one, with negative length zero.  Only
the H side has a matrix builder.  The E matrix of a shape is, entry by
entry, the H matrix of the conjugate shape on the reflected window
(offset d carries a_(-d)) at 1-t; since t -> 1-t is a ring homomorphism,
det E is that H determinant with t -> 1-t substituted once
(``_determinants``).

Both determinants take the one matrix format of ``rings``, (rows, D): over
the rational map's integer form, rows of integer coefficient lists, each
row over one denominator, and D the product of the row denominators; over
the q-analogue map's packed form, at a width bounding the determinant
(``_determinant_bits``), rows of coefficient lists of packed residues with
D = 1, which go to the same elimination and are decoded once; over any
other map (qsym, or a q-series map built by hand), rows of ``TPoly``s with
D = 1, for the Laplace expansion.  ``_h_matrix`` writes it from one
evaluator run per matrix.  The entries of one H column are prefixes of
a single run of offsets, so each column comes from one prefix-DP pass
(``values._linear_value_prefixes``), all packed at one slot width, and
only the entries the matrix uses are decoded.  The determinants stay
undivided (``rings.ScaledPoly``): t -> 1-t is substituted on the
numerators, and the checks in ``sweeps`` compare them so.
``PalindromeReport`` holds them undivided too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .rings import ScaledPoly, _scaled_determinant
from .shapes import Partition
from .values import (
    CoefficientMap,
    DiagonalWeights,
    _linear_value_prefixes,
    _packed_route,
    _series_norm,
    _undivided_rows,
    _unpacked,
    linear_value,  # noqa: F401  (bench/selftest.py checks it is traced here)
    rational_map,
)


def _h_matrix(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> tuple[list[list], int]:
    """The width x width row-reading matrix as (rows, D): entry (i, j) is
    the linear value of the first conjugate_i + j - i offsets of the
    descending run a_(j-1), a_(j-2), ...; one at length zero, zero below it.

    Every entry of a column is a prefix of the same run, so one prefix-DP
    pass gives the whole column.  All columns run over one integer form
    (``values._undivided_rows``), or one packed form, at one slot width:
    position s of every run holds a label of levels[s], so each entry's
    coefficients are within the bound ``values._packed_route`` takes over
    the levels.  Over a map's packed form itself (``_h_determinant``) the
    rows are coefficient lists of packed residues, D = 1, and no entry is
    decoded.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    return _h_rows(*_h_runs(shape, weights), N, cmap)


def _h_runs(shape: Partition, weights: DiagonalWeights) -> tuple[list[list], list[list[int]]]:
    """The H matrix's runs of labels, one per column, and its entries'
    prefix lengths: entry (i, j) reads the first lengths[i][j] labels of
    runs[j], and is zero when that is negative."""
    conj = shape.conjugate().parts
    n = shape.width
    # Column j + 1 reads a_j, a_(j-1), ...; row 1 takes its longest prefix.
    runs = [[weights[j - s] for s in range(conj[0] + j)] for j in range(n)]
    return runs, [[conj[i] + j - i for j in range(n)] for i in range(n)]


def _h_rows(runs: list[list], lengths: list[list[int]], N: int, cmap: CoefficientMap) -> tuple:
    """``_h_matrix`` from its runs and prefix lengths (``_h_runs``), N >= 1."""

    def body(c: CoefficientMap) -> list[list]:
        longest = len(runs[-1]) if runs else 0
        levels = [{run[s] for run in runs if s < len(run)} for s in range(longest)]
        packed, b = _packed_route(levels, N, c)
        columns = [_linear_value_prefixes(run, N, packed, b)[0] for run in runs]
        return [
            [_unpacked(columns[j][r], b, packed, c.ring) if r >= 0 else []
             for j, r in enumerate(row)]
            for row in lengths
        ]

    prefixes = [[(j, max(r, 0)) for j, r in enumerate(row)] for row in lengths]
    return _undivided_rows(cmap, N - 1, runs, prefixes, body)


def _h_determinant(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> ScaledPoly:
    """det H, undivided.  Over a map with a packed form the matrix is
    written over that form at the slot width of ``_determinant_bits``, as
    rows of packed residues, and ``rings._scaled_determinant`` eliminates
    them over Z[t] and decodes the result; any other map writes its own
    rows."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    runs, lengths = _h_runs(shape, weights)
    if cmap.packed_form is not None:
        cmap = cmap.packed_form(_determinant_bits(runs, lengths, N, cmap))
    return _scaled_determinant(_h_rows(runs, lengths, N, cmap), cmap.ring)


def _determinant_bits(
    runs: list[list], lengths: list[list[int]], N: int, cmap: CoefficientMap
) -> int:
    """Bits per q-slot for det H over cmap's packed form: one more than the
    bit length of

        X = product over the rows i of the sum over j of X_ij,
        X_ij = product over the labels k of entry (i, j) of S(k),

    S(k) = ||f(k, 1)||_1 + ... + ||f(k, N-1)||_1 (X_ij = 0 for a zero
    entry, 1 for a length-0 one), X at least 1: a bound taken from the
    entries alone.

    Proof.  Let ||p|| be the l1 norm of a polynomial in t and q: the sum of
    its coefficients' absolute values.  It is subadditive, and
    submultiplicative also after truncation at q^Q, which only drops
    terms.  An entry sums t^e times a product of f(k, m) over the chains
    below N of its labels, so ||entry|| is at most the sum over all maps
    from its labels to 1..N-1 of the products of their norms, X_ij.  The
    determinant sums, over the permutations s, +-prod_i entry(i, s(i)), so
    ||det H|| <= sum over s of prod_i X_(i, s(i)) <= prod_i sum_j X_ij = X,
    the last sum running over all maps i -> j.  So every q-coefficient of
    det H is at most X < 2^(bits - 1), in the digit range of the packed
    ring, and the decode after elimination is exact."""
    products = [
        list(accumulate([cmap.total(k, N, _series_norm) for k in run], mul, initial=1))
        for run in runs
    ]
    bound = 1
    for row in lengths:
        bound *= sum(p[r] for p, r in zip(products, row) if r >= 0)
    return max(bound, 1).bit_length() + 1


def _determinants(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> tuple[ScaledPoly, ScaledPoly]:
    """(det H, det E) of the diagonal-constant tableau, undivided; no Schur
    walk runs."""
    det_h = _h_determinant(shape, N, cmap, weights)
    # E(shape, a) is H(shape', a reflected) entrywise at 1-t, and t -> 1-t is
    # a ring homomorphism, so one substitution of one determinant gives det E.
    reflected = DiagonalWeights({-d: k for d, k in weights.items()})
    return det_h, _h_determinant(shape.conjugate(), N, cmap, reflected).subs_one_minus_t()


@dataclass(frozen=True)
class PalindromeReport:
    """The square-shape determinant and its image under t -> 1-t, kept
    undivided."""

    keys: tuple[int, ...]
    N: int
    poly_scaled: ScaledPoly
    flipped_scaled: ScaledPoly
    equal: bool


def palindrome_weights(keys) -> DiagonalWeights:
    """Symmetric diagonal window: offset d carries the key with index |d|."""
    keys = tuple(keys)
    r = len(keys)
    return DiagonalWeights({d: keys[abs(d)] for d in range(1 - r, r)})


def verify_palindromic_matrix(
    keys, N: int, cmap: CoefficientMap | None = None
) -> PalindromeReport:
    """Build the r x r determinant for the square shape with the symmetric
    diagonal window over keys and check it is fixed by t -> 1-t."""
    keys = tuple(keys)
    r = len(keys)
    if r < 1:
        raise ValueError("need at least one key")
    if cmap is None:
        cmap = rational_map()
    shape = Partition((r,) * r)
    poly = _h_determinant(shape, N, cmap, palindrome_weights(keys))
    flipped = poly.subs_one_minus_t()
    return PalindromeReport(keys, N, poly, flipped, poly == flipped)
