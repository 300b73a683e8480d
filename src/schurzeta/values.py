"""Interpolated truncated multiple zeta values, in linear and Schur form.

The central objects are sums over weakly increasing integer chains (or over
ordered fillings of a Young diagram) in which every repeated value
contributes a factor t (vertically) or 1-t (horizontally), and every entry m
with weight label k contributes a ring element f(k, m).  Swapping in
different coefficient maps f yields the classical rational values, their
q-analogues, or quasi-symmetric functions, all computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from operator import mul
from typing import Any, Callable, Mapping, Sequence

from .errors import DomainError
from .rings import (
    MonomialPolynomial,
    QQ,
    QSeries,
    QSeriesRing,
    QsymRing,
    Ring,
    TPoly,
    q_integer,
)
from .shapes import Partition, Tableau, corners, layer_table


@dataclass(frozen=True)
class CoefficientMap:
    """A deterministic map (weight label, positive integer) -> ring element."""

    name: str
    ring: Ring
    fn: Callable[[Any, int], Any] = field(repr=False)

    def __call__(self, k: Any, m: int) -> Any:
        return self.fn(k, m)


def rational_map() -> CoefficientMap:
    """f(k, m) = m^(-k) as an exact rational; k may be any integer."""
    cache: dict = {}

    def fn(k: Any, m: int) -> Fraction:
        if not isinstance(k, int):
            raise DomainError(f"rational weights must be integers, got {k!r}")
        try:
            return cache[(k, m)]
        except KeyError:
            value = Fraction(1, m**k) if k >= 0 else Fraction(m ** (-k))
            cache[(k, m)] = value
            return value

    return CoefficientMap("rational", QQ, fn)


def q_analogue_map(order: int = 16) -> CoefficientMap:
    """f(k, m) = q^(m(k-1)) / [m]_q^k modulo q^order; requires k >= 1.

    Weights below 1 would need negative powers of q and are rejected.
    """
    ring = QSeriesRing(order)
    inverses: dict[int, QSeries] = {}
    cache: dict = {}

    def fn(k: Any, m: int) -> QSeries:
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"q-analogue weights must be integers >= 1, got {k!r}")
        try:
            return cache[(k, m)]
        except KeyError:
            pass
        exponent = m * (k - 1)
        if exponent >= order:
            value = ring.zero
        else:
            if m not in inverses:
                inverses[m] = q_integer(m, order).inverse()
            q_power = QSeries(order, [0] * exponent + [1])
            value = q_power * inverses[m] ** k
        cache[(k, m)] = value
        return value

    return CoefficientMap(f"qseries:{order}", ring, fn)


def quasisymmetric_map() -> CoefficientMap:
    """f(k, m) = x_m^k over integer monomial polynomials; requires k >= 1."""
    cache: dict = {}

    def fn(k: Any, m: int) -> MonomialPolynomial:
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"quasi-symmetric weights must be integers >= 1, got {k!r}")
        try:
            return cache[(k, m)]
        except KeyError:
            value = MonomialPolynomial.variable_power(m, k)
            cache[(k, m)] = value
            return value

    return CoefficientMap("qsym", QsymRing(), fn)


def coefficient_map_for(spec: str) -> CoefficientMap:
    """Build a coefficient map from a selector: rational | qseries:Q | qsym."""
    if spec == "rational":
        return rational_map()
    if spec == "qsym":
        return quasisymmetric_map()
    if spec == "qseries":
        return q_analogue_map()
    if spec.startswith("qseries:"):
        try:
            order = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad q-series order in ring selector {spec!r}") from None
        if order < 1:
            raise ValueError("q-series order must be a positive integer")
        return q_analogue_map(order)
    raise ValueError(f"unknown ring selector {spec!r}")


class DiagonalWeights:
    """Weight labels a_d indexed by the diagonal offset d = column - row."""

    __slots__ = ("_labels",)

    def __init__(self, labels: Mapping[Any, Any]):
        object.__setattr__(self, "_labels", {int(d): k for d, k in labels.items()})

    def __setattr__(self, *_):
        raise AttributeError("DiagonalWeights values are immutable")

    def __getitem__(self, d: int) -> Any:
        try:
            return self._labels[d]
        except KeyError:
            raise ValueError(f"diagonal weight window has no offset {d}") from None

    def __contains__(self, d: int) -> bool:
        return d in self._labels

    def offsets(self) -> list[int]:
        return sorted(self._labels)

    def items(self):
        return sorted(self._labels.items())

    def __eq__(self, other):
        if not isinstance(other, DiagonalWeights):
            return NotImplemented
        return self._labels == other._labels

    def to_json(self) -> dict:
        return {str(d): k for d, k in sorted(self._labels.items())}

    def __repr__(self):
        return f"DiagonalWeights({dict(sorted(self._labels.items()))})"


def required_offsets(shape: Partition) -> range:
    """Diagonal offsets needed by a shape's cells and both determinant
    readings: 1 - height .. width - 1."""
    if shape.size == 0:
        return range(0)
    return range(1 - shape.height, shape.width)


def diagonal_tableau(shape: Partition, weights: DiagonalWeights) -> Tableau:
    """The tableau whose entry at (i, j) is the weight at offset j - i."""
    return Tableau(
        shape,
        (
            tuple(weights[j - i] for j in range(1, p + 1))
            for i, p in enumerate(shape.parts, start=1)
        ),
    )


def schur_value(weights: Tableau, N: int, cmap: CoefficientMap) -> TPoly:
    """Sum over all ordered fillings of the shape, each contributing
    t^v (1-t)^h times the product of f(label, entry) over the cells.

    Computed one value at a time over the shape's layer table: after
    value M each sub-partition mu carries the sum over the ordered
    fillings of mu by 1..M, and value M+1 extends them by the layers
    nu/mu, each weighing t^v (1-t)^h times the product of f(label, M+1)
    over its cells.  The cost is polynomial in N and in the number of
    sub-partitions; the result has degree at most (cell count - 1) in t.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    ring = cmap.ring
    shape = weights.shape
    if shape.size == 0:
        return TPoly.one(ring)
    table = layer_table(shape)
    depth = table.depth
    if depth[0] >= N:  # a diagonal longer than the N-1 values: no filling
        return TPoly.zero(ring)
    labels = weights.rows
    layers = table.layers
    zero = ring.zero
    # Coefficient lists by ascending power of t, None for unreachable states.
    by_state: list[list | None] = [None] * len(table.states)
    by_state[0] = [ring.one]
    for M in range(1, N):
        remaining = N - 1 - M
        f = [[cmap(label, M) for label in row] for row in labels]
        layer_weights: dict[int, Any] = {}
        # Per target and (v, h): the sum of the source states, each times
        # its layer's product of f(label, M).
        sums: dict[tuple[int, int, int], list] = {}
        for source, target, layer in table.steps:
            coeffs = by_state[source]
            if coeffs is None or depth[target] > remaining:
                continue
            w = layer_weights.get(layer)
            if w is None:
                w = reduce(mul, (f[i - 1][j - 1] for i, j in layers[layer].cells))
                layer_weights[layer] = w
            scaled = [c * w for c in coeffs]
            key = (target, layers[layer].v, layers[layer].h)
            if key in sums:
                _add_shifted(sums[key], scaled, 0, 1, zero)
            else:
                sums[key] = scaled
        new = [c if d <= remaining else None for c, d in zip(by_state, depth)]
        for (target, v, h), acc in sums.items():
            out = list(new[target] or ())
            for s in range(h + 1):  # times t^v (1-t)^h
                _add_shifted(out, acc, v + s, (-1) ** s * math.comb(h, s), zero)
            new[target] = out
        by_state = new
    return TPoly(ring, by_state[-1] or ())


def _add_shifted(out: list, coeffs: list, shift: int, factor: int, zero: Any) -> None:
    """out += t^shift * factor * coeffs, growing out as needed."""
    if len(out) < shift + len(coeffs):
        out.extend([zero] * (shift + len(coeffs) - len(out)))
    for k, c in enumerate(coeffs, start=shift):
        if factor == 1:
            out[k] = out[k] + c
        elif factor == -1:
            out[k] = out[k] - c
        else:
            out[k] = out[k] + c * factor


def linear_value(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> TPoly:
    """Sum over weakly increasing chains 0 < m_1 <= ... <= m_r < N of
    t^(number of adjacent equalities) times the product of f(k_i, m_i).

    The first key attaches to the smallest chain entry; this matches the
    single-column Schur value with the first key in the top cell.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    ring = cmap.ring
    r = len(keys)
    if r == 0:
        return TPoly.one(ring)
    acc = [ring.zero] * r
    for chain in combinations_with_replacement(range(1, N), r):
        e = sum(1 for idx in range(r - 1) if chain[idx] == chain[idx + 1])
        prod = ring.one
        for k, m in zip(keys, chain):
            prod = prod * cmap(k, m)
        acc[e] = acc[e] + prod
    return TPoly(ring, acc)


def linear_value_by_recursion(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> TPoly:
    """Same value as linear_value, by peeling the block of maximal entries.

    A chain bounded by n splits into its run of g+1 trailing entries equal
    to some m plus a shorter chain bounded by m, which gives

        value(keys, n) = sum over g, m of
            t^g * f(keys[-1], m) * ... * f(keys[-1-g], m) * value(keys[:-g-1], m)

    memoized on (prefix length, m).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    ring = cmap.ring
    one = TPoly.one(ring)
    zero = TPoly.zero(ring)
    memo: dict[tuple[int, int], TPoly] = {}

    def value(p: int, n: int) -> TPoly:
        if p == 0:
            return one
        if n <= 1:
            return zero
        cached = memo.get((p, n))
        if cached is not None:
            return cached
        acc = zero
        for m in range(1, n):
            block = ring.one
            for g in range(p):
                block = block * cmap(keys[p - 1 - g], m)
                sub = value(p - g - 1, m)
                if sub:
                    acc = acc + sub.scale(block).shifted(g)
        memo[(p, n)] = acc
        return acc

    return value(len(keys), N)


def _strict_power_sum(exponents: Sequence[int], N: int) -> Fraction:
    """Sum over strictly increasing chains 0 < m_1 < ... < m_s < N of the
    product m_i^(-c_i)."""
    total = Fraction(0)
    s = len(exponents)
    if s == 0:
        return Fraction(1)
    for chain in combinations(range(1, N), s):
        term = Fraction(1)
        for c, m in zip(exponents, chain):
            term *= Fraction(1, m**c) if c >= 0 else Fraction(m ** (-c))
        total += term
    return total


def merge_expansion(keys: Sequence[int], N: int) -> TPoly:
    """The rational value assembled coefficientwise from strict sums.

    Each of the 2^(r-1) ways of merging adjacent keys (replacing a comma by
    a plus) contributes its strict truncated sum at t^(number of merges);
    weak chains partition by their equality pattern, so this must agree with
    linear_value under the rational map.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(int(k) for k in keys)
    r = len(keys)
    if r == 0:
        return TPoly.one(QQ)
    acc = [Fraction(0)] * r
    for mask in range(1 << (r - 1)):
        merged = [keys[0]]
        for gap in range(r - 1):
            if mask >> gap & 1:
                merged[-1] += keys[gap + 1]
            else:
                merged.append(keys[gap + 1])
        acc[bin(mask).count("1")] += _strict_power_sum(merged, N)
    return TPoly(QQ, acc)


def corner_condition(weights: Tableau) -> bool:
    """Whether the untruncated limit would converge: integer weights at
    least 2 on every corner cell and at least 1 elsewhere.

    Purely diagnostic; truncated values exist for arbitrary weights.
    """
    corner_cells = corners(weights.shape)
    for i, j, k in weights.cells():
        if not isinstance(k, int):
            raise ValueError(f"corner condition needs integer weights, got {k!r}")
        if k < (2 if (i, j) in corner_cells else 1):
            return False
    return True
