"""Tuple-key reference arithmetic for monomial polynomials.

The test-side oracle for ``rings.MonomialPolynomial``, which packs each
monomial into one integer: these functions work on the decoded ``terms``
dicts, whose keys are sorted tuples of (variable, exponent) pairs, and
merge two keys variable by variable.  They share no code with the packed
arithmetic they check.
"""

from __future__ import annotations


def merge_keys(k1: tuple, k2: tuple) -> tuple:
    """The key of the product of two monomials."""
    exponents = dict(k1)
    for v, e in k2:
        exponents[v] = exponents.get(v, 0) + e
    return tuple(sorted(exponents.items()))


def reference_product(a: dict, b: dict) -> dict:
    """Terms of the product of two polynomials given by their terms."""
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = merge_keys(k1, k2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def reference_sum(a: dict, b: dict, sign: int = 1) -> dict:
    """Terms of a + sign * b."""
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + sign * coeff
    return {k: c for k, c in out.items() if c}
