"""Reading the package's determinant format back as values.

``rings._scaled_determinant`` takes a matrix as (rows, D).  Over the
rationals each row holds trimmed integer coefficient lists over one
denominator, and D is the product of the row denominators; over any other
ring the rows hold ``TPoly``s and D is 1.  The row denominators themselves
are not kept, so a test reads a matrix against the values it should stand
for, or reads a one-row matrix, whose row denominator is D.
"""

from __future__ import annotations

from fractions import Fraction

from schurzeta.rings import QQ, TPoly


def single_row(matrix, ring) -> list[TPoly]:
    """The values of a one-row matrix, divided."""
    (row,), denominator = matrix
    if ring != QQ:
        assert denominator == 1
        return list(row)
    return [TPoly(QQ, [Fraction(c, denominator) for c in coeffs]) for coeffs in row]


def as_tpolys(rows) -> list[list[TPoly]]:
    """Integer rows as rational t-polynomials, each row still times its
    denominator."""
    return [[TPoly(QQ, [Fraction(c) for c in coeffs]) for coeffs in row] for row in rows]


def assert_stands_for(matrix, expected, ring) -> None:
    """Assert that matrix, as (rows, D), stands for expected, a square list
    of rows of ``TPoly``s over ring: over the rationals every row is trimmed
    integer lists equal to its expected row times one positive integer, and
    D is the product of those scales; over any other ring the rows are the
    expected values and D is 1."""
    rows, denominator = matrix
    assert len(rows) == len(expected)
    if ring != QQ:
        assert denominator == 1
        assert [list(row) for row in rows] == [list(row) for row in expected]
        return
    product = 1
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        for coeffs in row:
            assert all(type(c) is int for c in coeffs) and (not coeffs or coeffs[-1])
        nonzero = [(coeffs, value) for coeffs, value in zip(row, want) if value]
        if not nonzero:  # a zero row has no scale to read off
            assert not any(row)
            product = None
            continue
        coeffs, value = nonzero[0]
        scale = Fraction(coeffs[-1]) / value.coeffs[-1]
        assert scale.denominator == 1 and scale > 0
        for coeffs, value in zip(row, want):
            assert coeffs == [c * scale for c in value.coeffs]
        if product is not None:
            product *= int(scale)
    if product is not None:
        assert denominator == product
