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
any other map, rows of ``TPoly``s with D = 1.  ``_h_matrix`` writes it from
one evaluator run per matrix.  The entries of one H column are prefixes of
a single run of offsets, so each column comes from one prefix-DP pass
(``values._linear_value_prefixes``), all packed at one slot width, and
only the entries the matrix uses are decoded.  The determinants stay
undivided (``rings.ScaledPoly``): t -> 1-t is substituted on the
numerators, and the checks in ``sweeps`` compare them so.
``PalindromeReport`` holds them undivided too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import ScaledPoly, _scaled_determinant
from .shapes import Partition
from .values import (
    CoefficientMap,
    DiagonalWeights,
    _decoded,
    _linear_value_prefixes,
    _slot_bits,
    _undivided_rows,
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
    (``values._undivided_rows``) at one slot width: position s of every run
    holds a label of levels[s], so each entry's coefficients are within the
    bound ``_slot_bits`` takes over the levels.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    conj = shape.conjugate().parts
    n = shape.width
    # Column j + 1 reads a_j, a_(j-1), ...; row 1 takes its longest prefix.
    runs = [[weights[j - s] for s in range(conj[0] + j)] for j in range(n)]
    lengths = [[conj[i] + j - i for j in range(n)] for i in range(n)]

    def body(c: CoefficientMap) -> list[list]:
        longest = len(runs[-1]) if runs else 0
        levels = [{run[s] for run in runs if s < len(run)} for s in range(longest)]
        b = _slot_bits(levels, N, c)
        columns = [_linear_value_prefixes(run, N, c, b)[0] for run in runs]
        return [
            [_decoded(columns[j][r], b) if r >= 0 else [] for j, r in enumerate(row)]
            for row in lengths
        ]

    prefixes = [[(j, max(r, 0)) for j, r in enumerate(row)] for row in lengths]
    return _undivided_rows(cmap, N - 1, runs, prefixes, body)


def _determinants(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> tuple[ScaledPoly, ScaledPoly]:
    """(det H, det E) of the diagonal-constant tableau, undivided; no Schur
    walk runs."""
    det_h = _scaled_determinant(_h_matrix(shape, N, cmap, weights), cmap.ring)
    # E(shape, a) is H(shape', a reflected) entrywise at 1-t, and t -> 1-t is
    # a ring homomorphism, so one substitution of one determinant gives det E.
    reflected = DiagonalWeights({-d: k for d, k in weights.items()})
    e_at_t = _h_matrix(shape.conjugate(), N, cmap, reflected)
    return det_h, _scaled_determinant(e_at_t, cmap.ring).subs_one_minus_t()


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
    matrix = _h_matrix(shape, N, cmap, palindrome_weights(keys))
    poly = _scaled_determinant(matrix, cmap.ring)
    flipped = poly.subs_one_minus_t()
    return PalindromeReport(keys, N, poly, flipped, poly == flipped)
