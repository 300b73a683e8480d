"""Interpolated truncated multiple zeta values, in linear and Schur form.

The central objects are sums over weakly increasing integer chains (or over
ordered fillings of a Young diagram) in which every repeated value
contributes a factor t (vertically) or 1-t (horizontally), and every entry m
with weight label k contributes a ring element f(k, m).  Swapping in
different coefficient maps f yields the classical rational values, their
q-analogues, or quasi-symmetric functions, all computed exactly.

Over the rational map every term of a value carries one factor m^(-k) per
label, so all terms share the denominator L^K, where L = lcm(1, ..., N-1)
and K is the sum of the positive labels.  The map therefore carries an
integer form, f(k, m) * L^max(k, 0); each evaluator runs its body once over
that form and divides by L^K at the end, so no ``Fraction`` is normalized
inside the sums.  Any other map, including a hand-built rational one, runs
the same body over its own ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from operator import getitem, mul
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
    _ZZ,
    _divide_integer_poly,
    q_integer,
)
from .shapes import Partition, Tableau, _depth, _layers_from


@dataclass(frozen=True)
class CoefficientMap:
    """A deterministic map (weight label, positive integer) -> ring element.

    ``integer_form``, when set, takes L and returns the map over the
    integers f(k, m) * L^max(k, 0), for every m dividing L; the evaluators
    then sum integers and divide once (see the module docstring).
    """

    name: str
    ring: Ring
    fn: Callable[[Any, int], Any] = field(repr=False)
    integer_form: Callable[[int], "CoefficientMap"] | None = field(default=None, repr=False)

    def __call__(self, k: Any, m: int) -> Any:
        return self.fn(k, m)


def _is_int(k: Any) -> bool:
    """Whether a weight label is an integer; bool is an int subclass but
    not a weight."""
    return isinstance(k, int) and not isinstance(k, bool)


def rational_map() -> CoefficientMap:
    """f(k, m) = m^(-k) as an exact rational; k may be any integer."""
    cache: dict = {}

    def fn(k: Any, m: int) -> Fraction:
        if not _is_int(k):
            raise DomainError(f"rational weights must be integers, got {k!r}")
        try:
            return cache[(k, m)]
        except KeyError:
            value = Fraction(1, m**k) if k >= 0 else Fraction(m ** (-k))
            cache[(k, m)] = value
            return value

    forms: dict[int, CoefficientMap] = {}

    def integer_form(L: int) -> CoefficientMap:
        form = forms.get(L)
        if form is None:
            form = forms[L] = CoefficientMap(f"rational*{L}", _ZZ, _scaled_powers(L))
        return form

    return CoefficientMap("rational", QQ, fn, integer_form)


def _scaled_powers(L: int) -> Callable[[Any, int], int]:
    """f(k, m) = m^(-k) * L^max(k, 0) as an int, for m dividing L."""
    cache: dict = {}

    def fn(k: Any, m: int) -> int:
        if not _is_int(k):
            raise DomainError(f"rational weights must be integers, got {k!r}")
        try:
            return cache[(k, m)]
        except KeyError:
            if L % m:
                raise ValueError(f"entry {m} does not divide the scale {L}") from None
            value = (L // m) ** k if k >= 0 else m ** (-k)
            cache[(k, m)] = value
            return value

    return fn


_LCMS: dict[int, int] = {}  # top -> lcm(1..top), the scale of an integer form


def _integer_form(
    cmap: CoefficientMap, top: int, labels: Sequence[Any]
) -> tuple[CoefficientMap, int] | None:
    """cmap's integer form for entries 1..top, with its scale L = lcm(1..top).

    None when cmap has no integer form, or when one of the labels the value
    multiplies is not an integer: the generic route then raises where the
    map first meets that label, just as it would without the form.
    """
    if cmap.integer_form is None or not all(_is_int(k) for k in labels):
        return None
    L = _LCMS.get(top)
    if L is None:
        L = _LCMS[top] = math.lcm(*range(1, top + 1))  # 1 when top < 1
    return cmap.integer_form(L), L


def _positive_sum(labels: Sequence[int]) -> int:
    """K = sum of max(k, 0) over the labels: the power of L in the common
    denominator of every term that multiplies them."""
    return sum(k for k in labels if k > 0)


def _evaluate(
    cmap: CoefficientMap, top: int, labels: Sequence[Any], body: Callable[[CoefficientMap], TPoly]
) -> TPoly:
    """body(cmap) for a value whose every term multiplies f(k, m) once per
    label, with entries m in 1..top: run over cmap's integer form when it has
    one, then divided once by L^K."""
    return _evaluate_each(cmap, top, labels, [labels], lambda c: [body(c)])[0]


def _evaluate_each(
    cmap: CoefficientMap,
    top: int,
    labels: Sequence[Any],
    parts: Sequence[Sequence[Any]],
    body: Callable[[CoefficientMap], list[TPoly]],
) -> list[TPoly]:
    """body(cmap) for a list of values, the i-th multiplying the labels
    parts[i], all of them among ``labels``: as ``_evaluate``, with one body
    run and each value divided by its own L^K."""
    form = _integer_form(cmap, top, labels)
    if form is None:
        return body(cmap)
    imap, L = form
    return [
        _divide_integer_poly(value, L ** _positive_sum(part))
        for value, part in zip(body(imap), parts)
    ]


def q_analogue_map(order: int = 16) -> CoefficientMap:
    """f(k, m) = q^(m(k-1)) / [m]_q^k modulo q^order; requires k >= 1.

    Weights below 1 would need negative powers of q and are rejected.
    """
    ring = QSeriesRing(order)
    inverses: dict[int, QSeries] = {}
    cache: dict = {}

    def fn(k: Any, m: int) -> QSeries:
        if not _is_int(k) or k < 1:
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
        if not _is_int(k) or k < 1:
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


def _is_offset(key: Any) -> bool:
    """A diagonal offset: an ``int`` that is not a ``bool``, or the
    canonical decimal string of one, such as "-1" (not "-01" or "+1")."""
    if isinstance(key, str):
        try:
            return str(int(key)) == key
        except ValueError:
            return False
    return isinstance(key, int) and not isinstance(key, bool)


class DiagonalWeights:
    """Weight labels a_d indexed by the diagonal offset d = column - row.

    Offsets are ints or their canonical decimal strings (JSON object keys);
    anything else, or two keys naming the same offset, raises ValueError.
    """

    __slots__ = ("_labels",)

    def __init__(self, labels: Mapping[Any, Any]):
        clean: dict[int, Any] = {}
        for d, k in labels.items():
            if not _is_offset(d):
                raise ValueError(
                    f"diagonal offset {d!r} is not an int or a decimal string such as \"-1\""
                )
            if int(d) in clean:
                raise ValueError(f"diagonal offset {d!r} names offset {int(d)} a second time")
            clean[int(d)] = k
        object.__setattr__(self, "_labels", clean)

    def __setattr__(self, *_):
        raise AttributeError("DiagonalWeights values are immutable")

    def __getitem__(self, d: int) -> Any:
        try:
            return self._labels[d]
        except KeyError:
            raise ValueError(f"diagonal weight window has no offset {d}") from None

    def __contains__(self, d: int) -> bool:
        return d in self._labels

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

    Computed one value at a time: after value M each sub-partition mu
    that a filling by 1..M can reach carries the sum over those fillings,
    and value M+1 extends them by the layers nu/mu (``shapes._layers_from``),
    each weighing t^v (1-t)^h times the product of f(label, M+1) over its
    cells.  A target with a diagonal longer than the values left is
    skipped, so only the states live at M are walked.  The cost is
    polynomial in N and in the number of sub-partitions; the result has
    degree at most (cell count - 1) in t.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    labels = [k for row in weights.rows for k in row]
    return _evaluate(cmap, N - 1, labels, lambda c: _schur_value(weights, N, c))


def _schur_value(weights: Tableau, N: int, cmap: CoefficientMap) -> TPoly:
    ring = cmap.ring
    zero = ring.zero
    parts = weights.shape.parts
    labels = [k for row in weights.rows for k in row]  # by cell number
    start = (0,) * len(parts)
    if _depth(parts, start) >= N:  # a diagonal longer than the N-1 values: no filling
        return TPoly.zero(ring)
    # Coefficient lists by ascending power of t, per live sub-partition.
    by_state: dict[tuple[int, ...], list] = {start: [ring.one]}
    for M in range(1, N):
        remaining = N - 1 - M  # values left after M: deeper states are dead
        f = [cmap(label, M) for label in labels]
        layer_weights: dict[tuple, Any] = {}  # cells -> product of f over them
        # Per (target, v, h): the sum of the source states, each times its
        # layer's product of f(label, M).
        sums: dict[tuple, list] = {}
        for mu, coeffs in by_state.items():
            for key, depth, cells in _layers_from(parts, mu):
                if depth > remaining:
                    continue
                w = layer_weights.get(cells)
                if w is None:
                    w = layer_weights[cells] = reduce(mul, map(f.__getitem__, cells))
                scaled = [c * w for c in coeffs]
                acc = sums.get(key)
                if acc is None:
                    sums[key] = scaled
                else:
                    _add_shifted(acc, scaled, 0, 1, zero)
        new = {mu: c for mu, c in by_state.items() if _depth(parts, mu) <= remaining}
        for (nu, v, h), acc in sums.items():
            out = list(new.get(nu, ()))
            for s in range(h + 1):  # times t^v (1-t)^h
                _add_shifted(out, acc, v + s, (-1) ** s * math.comb(h, s), zero)
            new[nu] = out
        by_state = new
    return TPoly(ring, by_state.get(parts, ()))


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
    single-column Schur value with the first key in the top cell.  The
    chains are enumerated one by one over a per-call table of f(k_i, m).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    return _evaluate(cmap, N - 1, keys, lambda c: _linear_value(keys, N, c))


def _linear_value(keys: tuple, N: int, cmap: CoefficientMap) -> TPoly:
    ring = cmap.ring
    r = len(keys)
    if r == 0:
        return TPoly.one(ring)
    # table[i][m] = f(keys[i], m): every pair a chain below N meets, looked
    # up once (index 0 unused).
    table = [[None, *(cmap(k, m) for m in range(1, N))] for k in keys]
    acc = [ring.zero] * r
    for chain in combinations_with_replacement(range(1, N), r):
        # a weakly increasing chain has r - (distinct entries) equalities
        e = r - len(set(chain))
        acc[e] = acc[e] + reduce(mul, map(getitem, table, chain))
    return TPoly(ring, acc)


def linear_value_prefixes(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> list[TPoly]:
    """linear_value(keys[:p], N, cmap) for every p = 0 .. len(keys), from
    one pass over the keys.

    The chains of keys[:p] ending exactly at m sum to

        last_p(m) = f(k_p, m) * (t * last_(p-1)(m) + sum over m' < m of last_(p-1)(m'))

    (the empty chain lies below every m), so all the prefixes together take
    O(len(keys)^2 * N) coefficient operations, where enumerating the chains
    of one prefix of length r takes about C(r+N-2, r) * r.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    prefixes = [keys[:p] for p in range(len(keys) + 1)]
    return _evaluate_each(
        cmap, N - 1, keys, prefixes, lambda c: _linear_value_prefixes(keys, N, c)
    )


def _linear_value_prefixes(keys: tuple, N: int, cmap: CoefficientMap) -> list[TPoly]:
    ring = cmap.ring
    zero = ring.zero
    values = [TPoly.one(ring)]
    # Coefficient lists by ascending power of t, indexed by m - 1: the
    # chains of the current prefix ending at m, and those ending below m.
    last: list[list] = [[]] * (N - 1)
    below: list[list] = [[ring.one]] * (N - 1)
    for k in keys:
        new_last, new_below = [], []
        total: list = []
        for m in range(1, N):
            new_below.append(total)
            acc = [zero, *last[m - 1]]  # t * last_(p-1)(m)
            for i, c in enumerate(below[m - 1]):
                acc[i] = acc[i] + c
            w = cmap(k, m)
            acc = [c * w for c in acc]
            new_last.append(acc)
            total = [a + b for a, b in zip(total, acc)] + acc[len(total):]
        last, below = new_last, new_below
        values.append(TPoly(ring, total))
    return values


def linear_value_by_recursion(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> TPoly:
    """Same value as linear_value, by peeling the block of maximal entries.

    A chain bounded by n splits into its run of g+1 trailing entries equal
    to some m plus a shorter chain bounded by m, which gives

        value(keys, n) = sum over g, m of
            t^g * f(keys[-1], m) * ... * f(keys[-1-g], m) * value(keys[:-g-1], m)

    memoized on (prefix length, m) as coefficient lists, over a per-call
    table of f(k_i, m).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    return _evaluate(cmap, N - 1, keys, lambda c: _linear_value_by_recursion(keys, N, c))


def _linear_value_by_recursion(keys: tuple, N: int, cmap: CoefficientMap) -> TPoly:
    ring = cmap.ring
    zero = ring.zero
    # table[i][m] = f(keys[i], m), looked up once (index 0 unused).
    table = [[None, *(cmap(k, m) for m in range(1, N))] for k in keys]
    one = [ring.one]
    # Coefficient lists by ascending power of t; a chain of p entries has
    # at most p - 1 equalities, so p coefficients hold value(p, n).
    memo: dict[tuple[int, int], list] = {}

    def value(p: int, n: int) -> list:
        if p == 0:
            return one
        if n <= 1:
            return []
        acc = memo.get((p, n))
        if acc is not None:
            return acc
        acc = [zero] * p
        for m in range(1, n):
            block = None
            for g in range(p):
                f = table[p - 1 - g][m]
                block = f if block is None else block * f
                for i, c in enumerate(value(p - g - 1, m), g):
                    acc[i] = acc[i] + c * block
        memo[(p, n)] = acc
        return acc

    return TPoly(ring, value(len(keys), N))


def _strict_power_sum(
    exponents: Sequence[int], N: int, L: int, powers: dict[int, list[int]]
) -> int:
    """L^(sum of the positive c_i) times the sum over strictly increasing
    chains 0 < m_1 < ... < m_s < N of the product m_i^(-c_i); an integer,
    since every m below N divides L.

    powers[c][m] = (L // m)^c for c >= 0 and m^(-c) otherwise, the factor
    of entry m under exponent c; rows are filled in on first use.
    """
    if len(exponents) >= N:
        return 0  # no strict chain that long below N
    rows = []
    for c in exponents:
        row = powers.get(c)
        if row is None:
            if c >= 0:
                row = powers[c] = [None, *((L // m) ** c for m in range(1, N))]
            else:
                row = powers[c] = [None, *(m ** -c for m in range(1, N))]
        rows.append(row)
    total = 0
    for chain in combinations(range(1, N), len(rows)):
        total += math.prod(map(getitem, rows, chain))
    return total


def merge_expansion(keys: Sequence[int], N: int) -> TPoly:
    """The rational value assembled coefficientwise from strict sums.

    Each of the 2^(r-1) ways of merging adjacent keys (replacing a comma by
    a plus) contributes its strict truncated sum at t^(number of merges);
    weak chains partition by their equality pattern, so this must agree with
    linear_value under the rational map.  The strict sums are taken times
    L^K, L = lcm(1..N-1) and K the sum of the positive keys (merging never
    raises the sum of the positive parts), and divided out once; this
    arithmetic is the route's own, independent of the maps' integer form.
    The strict sums read their factors from a per-call table of powers.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(int(k) for k in keys)
    r = len(keys)
    if r == 0:
        return TPoly.one(QQ)
    L = math.lcm(*range(1, N))
    K = sum(k for k in keys if k > 0)
    powers: dict[int, list[int]] = {}  # the strict sums' table, per call
    acc = [0] * r
    for mask in range(1 << (r - 1)):
        merged = [keys[0]]
        for gap in range(r - 1):
            if mask >> gap & 1:
                merged[-1] += keys[gap + 1]
            else:
                merged.append(keys[gap + 1])
        missing = K - sum(c for c in merged if c > 0)
        acc[bin(mask).count("1")] += _strict_power_sum(merged, N, L, powers) * L**missing
    return TPoly(QQ, [Fraction(a, L**K) for a in acc])
