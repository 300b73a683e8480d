"""Jacobi-Trudi determinant expressions for diagonal-constant tableaux.

For a shape with diagonal weights a_d (the label on every cell with
column - row = d) the Schur-type value equals two determinants:

* the row reading ("H side"): a width x width matrix whose (i, j) entry is
  the linear value of the descending offsets a_(j-1), a_(j-2), ...,
  a_(j - (conjugate_i + j - i));
* the column reading ("E side"): a height x height matrix of linear values
  of the ascending offsets a_(1-j), ..., a_(part_i - i), evaluated at 1-t.

Entries with index length zero are one, with negative length zero.  The E
side is produced by computing the linear values at t and then substituting
t -> 1-t, which reuses the tested substitution instead of a second
summation routine.  On either side the entries of one column are prefixes
of a single run of offsets, so each column comes from one prefix DP
(``linear_value_prefixes``) instead of one chain enumeration per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .rings import PolyRing, TPoly, ring_determinant
from .shapes import Partition
from .values import (
    CoefficientMap,
    DiagonalWeights,
    diagonal_tableau,
    linear_value,  # noqa: F401  (bench/selftest.py checks it is traced here)
    linear_value_prefixes,
    rational_map,
    schur_value,
)


def _h_matrix(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> list[list[TPoly]]:
    conj = shape.conjugate().parts
    return _prefix_matrix(
        shape.width,
        lambda i, j: conj[i - 1] + j - i,
        lambda j, s: weights[j - 1 - s],
        N,
        cmap,
        at_one_minus_t=False,
    )


def _e_matrix(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> list[list[TPoly]]:
    parts = shape.parts
    return _prefix_matrix(
        shape.height,
        lambda i, j: parts[i - 1] - i + j,
        lambda j, s: weights[1 - j + s],
        N,
        cmap,
        at_one_minus_t=True,
    )


def _prefix_matrix(
    n: int,
    length: Callable[[int, int], int],
    key: Callable[[int, int], Any],
    N: int,
    cmap: CoefficientMap,
    at_one_minus_t: bool,
) -> list[list[TPoly]]:
    """The n x n matrix whose (i, j) entry is the linear value of the first
    length(i, j) keys of column j's run key(j, 0), key(j, 1), ...; one at
    length zero, zero below it, and at 1-t if asked.

    Every entry of a column is a prefix of the same run, so one
    linear_value_prefixes call gives the whole column.
    """
    zero = TPoly.zero(cmap.ring)
    columns = []
    for j in range(1, n + 1):
        lengths = [length(i, j) for i in range(1, n + 1)]
        prefixes = linear_value_prefixes([key(j, s) for s in range(max(lengths))], N, cmap)
        column = [prefixes[r] if r >= 0 else zero for r in lengths]
        columns.append([p.subs_one_minus_t() for p in column] if at_one_minus_t else column)
    return [list(row) for row in zip(*columns)]


@dataclass(frozen=True)
class JTReport:
    """Direct Schur value and both determinants for one instance."""

    shape: Partition
    N: int
    schur: TPoly
    det_h: TPoly
    det_e: TPoly
    equal: bool


def verify_jacobi_trudi(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> JTReport:
    """Compute the Schur value of the diagonal-constant tableau and both
    determinants, and compare all three."""
    poly_ring = PolyRing(cmap.ring)
    schur = schur_value(diagonal_tableau(shape, weights), N, cmap)
    det_h = ring_determinant(_h_matrix(shape, N, cmap, weights), poly_ring)
    det_e = ring_determinant(_e_matrix(shape, N, cmap, weights), poly_ring)
    equal = schur == det_h and det_h == det_e
    return JTReport(shape, N, schur, det_h, det_e, equal)


@dataclass(frozen=True)
class PalindromeReport:
    keys: tuple[int, ...]
    N: int
    poly: TPoly
    flipped: TPoly
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
    poly = ring_determinant(matrix, PolyRing(cmap.ring))
    flipped = poly.subs_one_minus_t()
    return PalindromeReport(keys, N, poly, flipped, poly == flipped)
