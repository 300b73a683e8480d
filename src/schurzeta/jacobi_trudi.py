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
(``_determinants``).  The entries of one H column are prefixes of a single
run of offsets, so each column comes from one prefix DP
(``values._scaled_linear_value_prefixes``) instead of one ``linear_value``
call per entry.

Entries and determinants stay undivided (``rings.ScaledPoly``): over the
rational map they are integer numerators, t -> 1-t is substituted on them,
and the checks in ``sweeps`` compare them so.  ``PalindromeReport`` holds
them undivided too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import ScaledPoly, TPoly, _scaled_determinant
from .shapes import Partition
from .values import (
    CoefficientMap,
    DiagonalWeights,
    _scaled_linear_value_prefixes,
    linear_value,  # noqa: F401  (bench/selftest.py checks it is traced here)
    rational_map,
)


def _h_matrix(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> list[list[ScaledPoly]]:
    """The width x width row-reading matrix, undivided: entry (i, j) is the
    linear value of the first conjugate_i + j - i offsets of the descending
    run a_(j-1), a_(j-2), ...; one at length zero, zero below it.

    Every entry of a column is a prefix of the same run, so one prefix DP
    (``_scaled_linear_value_prefixes``) gives the whole column.
    """
    conj = shape.conjugate().parts
    n = shape.width
    zero = ScaledPoly(TPoly.zero(cmap.ring))
    columns = []
    for j in range(1, n + 1):
        lengths = [conj[i - 1] + j - i for i in range(1, n + 1)]
        run = [weights[j - 1 - s] for s in range(max(lengths))]
        prefixes = _scaled_linear_value_prefixes(run, N, cmap)
        columns.append([prefixes[r] if r >= 0 else zero for r in lengths])
    return [list(row) for row in zip(*columns)]


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
