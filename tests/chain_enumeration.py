"""Exhaustive enumeration of weakly increasing chains.

The test-side oracle for the linear-value dynamic program
(``values._scaled_linear_value`` and ``values.linear_value``) and
for the values every route reads off one run at each bound: it visits
every chain 0 < m_1 <= ... <= m_r < N, straight from the definition in the
``values.linear_value`` docstring, and shares no code with the program it
checks but the map's values f(k, m).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from schurzeta.rings import QQ, TPoly
from schurzeta.values import CoefficientMap


def chain_sum_oracle(keys: Sequence[int], N: int, cmap: CoefficientMap | None = None) -> TPoly:
    """The sum over every chain of t^(adjacent equalities) times the product
    of f(k_i, m_i); f is m^(-k) over the rationals when no map is given."""
    ring = QQ if cmap is None else cmap.ring
    r = len(keys)
    if r == 0:
        return TPoly.one(ring)
    acc = [ring.zero] * r
    for chain in combinations_with_replacement(range(1, N), r):
        e = sum(1 for i in range(r - 1) if chain[i] == chain[i + 1])
        term = ring.one
        for k, m in zip(keys, chain):
            if cmap is not None:
                term = term * cmap(k, m)
            else:
                term *= Fraction(1, m**k) if k >= 0 else Fraction(m**-k)
        acc[e] = acc[e] + term
    return TPoly(ring, acc)
