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

The entries of one H column are prefixes of a single run of offsets, so
each column comes from one prefix-DP pass (``values._linear_value_prefixes``),
all packed at one slot width, and the matrix (``_h_entries``) from one
evaluator run.  Its form and route depend on the map:

* over the rational map's integer form, the rows of ``rings`` (rows, D):
  integer coefficient lists, each row over one denominator, and D the
  product of the row denominators, for fraction-free elimination;
* over the q-analogue map's packed form, at a width bounding the
  determinant (``values._determinant_bits``), ``_Residues`` entries,
  t-lists of masked residues, for the masked Laplace expansion, decoded
  once (``values._form_determinant``);
* over the quasi-symmetric map's tagged form, when the exponent bound of
  ``values._determinant_form`` fits the 64-bit fields, ``_Tagged``
  entries, one dict of tagged monomial keys each, for the same Laplace
  expansion, split by power of t once;
* over any other map (a hand-built one, or qsym labels past that bound),
  ``TPoly`` rows with D = 1 (``_h_matrix``), for the Laplace expansion
  over t-polynomials.

Only the entries the matrix uses are decoded.  The determinants stay
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
    _determinant_form,
    _form_determinant,
    _linear_value_prefixes,
    _packed_constants,
    _packed_route,
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
    (``values._undivided_rows``), or one packed form, at one slot width
    (``_h_entries``).
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
        entries, b, packed = _h_entries(runs, lengths, N, c)
        return [[_unpacked(e, b, packed, c.ring) for e in row] for row in entries]

    prefixes = [[(j, max(r, 0)) for j, r in enumerate(row)] for row in lengths]
    return _undivided_rows(cmap, N - 1, runs, prefixes, body)


def _h_entries(runs: list[list], lengths: list[list[int]], N: int, cmap: CoefficientMap) -> tuple:
    """The H matrix undecoded, (entries, b, packed): each entry the value
    the prefix DP leaves for it over the map ``packed`` that cmap's packed
    route runs on, at t = 2^b, and that route's zero below length zero.
    Position s of every run holds a label of levels[s], so each entry's
    coefficients are within the bound ``values._packed_route`` takes over
    the levels."""
    longest = len(runs[-1]) if runs else 0
    levels = [{run[s] for run in runs if s < len(run)} for s in range(longest)]
    packed, b = _packed_route(levels, N, cmap)
    zero = _packed_constants(packed.ring)[0]
    columns = [_linear_value_prefixes(run, N, packed, b)[0] for run in runs]
    entries = [[columns[j][r] if r >= 0 else zero for j, r in enumerate(row)] for row in lengths]
    return entries, b, packed


def _h_determinant(
    shape: Partition, N: int, cmap: CoefficientMap, weights: DiagonalWeights
) -> ScaledPoly:
    """det H, undivided.  Over a map with a packed or tagged form
    (``values._determinant_form``) the entries are written over that form
    and go to the Laplace expansion over it (``values._form_determinant``);
    any other map writes the rows of ``rings._scaled_determinant``.

    The width of the packed form, ``values._determinant_bits`` with
    factor 1, holds: entry (i, j) sums t^e times a product of f(k, m) over
    the chains below N of its labels, so its l1 norm in t and q is at most
    the sum over all maps from its labels to 1..N-1 of the products of
    their norms, X_ij (0 for a zero entry, 1 for a length-0 one)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    runs, lengths = _h_runs(shape, weights)
    route = _determinant_form(cmap, N, runs, [list(enumerate(row)) for row in lengths])
    if route is None:
        return _scaled_determinant(_h_rows(runs, lengths, N, cmap), cmap.ring)
    form, bound = route
    return _form_determinant(_h_entries(runs, lengths, N, form)[0], form, bound, cmap.ring)


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
