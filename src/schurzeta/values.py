"""Interpolated truncated multiple zeta values, in linear and Schur form.

The central objects are sums over weakly increasing integer chains (or over
ordered fillings of a Young diagram) in which every repeated value
contributes a factor t (vertically) or 1-t (horizontally), and every entry m
with weight label k contributes a ring element f(k, m).  Swapping in
different coefficient maps f yields the classical rational values, their
q-analogues, or quasi-symmetric functions, all computed exactly.

Linear values have one evaluator, the prefix dynamic program of
``linear_value_prefixes``; ``linear_value`` is its full-length value.  The
peeling recursion and the merge expansion are independent routes to the same
values, kept as its oracles.  Each route's one body extends the state of a
key path by more keys, and the state holds the path's values at every bound
n = 1..N.  The single-N functions run it from the empty path over all their
keys and return the value at N, divided by its denominator.  The oracle
sweep walks the trie of key tuples (``_route_walk``): each route extends
its parent node's state by one key, so a prefix shared by many tuples is
walked once, and every node's values reach the sweep as integer numerators
over their denominators, undivided: the sweep compares numerators and
divides only in the text it reports.

Over the rational map every term of a value carries one factor m^(-k) per
label, so all terms share the denominator L^K, where L = lcm(1, ..., N-1)
and K is the sum of the positive labels.  The map therefore carries an
integer form, f(k, m) * L^max(k, 0); each evaluator runs its body once over
that form, so no ``Fraction`` is normalized inside the sums.  Its undivided
result (``_undivided``) is a ``rings.ScaledPoly``: the integer numerators
over D = L^K, or, for any other map (a hand-built rational one included),
the body's value over the map's own ring with D = 1.  The identity checks
compare and render rational sides undivided; the public functions return
the same values divided, as a ``TPoly``.

Over an integer form the Schur walk also packs each t-polynomial into one
``int``, its value at t = 2^b (Kronecker substitution), so every step of
the walk is one big-integer operation; the slot width b comes from an
a-priori bound on the value's coefficients, proved in ``schur_value``.
When every f(k, m) is one monomial, as over the quasi-symmetric map, a
state is one dict of packed monomial keys per power of t
(``rings.PackedTerms``): a layer weight is a sum of keys, and sums add
into their dicts in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Any, Callable, Mapping, Sequence

from .errors import DomainError
from .rings import (
    MonomialPolynomial,
    PackedTerms,
    QQ,
    QSeries,
    QSeriesRing,
    QsymRing,
    Ring,
    TPoly,
    ScaledPoly,
    _ZZ,
    _trimmed,
    q_integer,
)
from .shapes import Partition, Tableau, _depth, _layers_from


@dataclass(frozen=True)
class CoefficientMap:
    """A deterministic map (weight label, positive integer) -> ring element.

    ``integer_form``, when set, takes L and returns the map over the
    integers f(k, m) * L^max(k, 0), for every m dividing L; the evaluators
    then sum integers and divide once (see the module docstring).

    Calling the map memoises ``fn`` per (k, m) for labels whose type is
    exactly ``int``; any other label goes straight to ``fn``, which rejects
    it, so ``True`` is never served the value of 1.  The constructors'
    ``fn`` therefore check and compute, and keep no cache of their own.
    """

    name: str
    ring: Ring
    fn: Callable[[Any, int], Any] = field(repr=False)
    integer_form: Callable[[int], "CoefficientMap"] | None = field(default=None, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, k: Any, m: int) -> Any:
        if type(k) is not int:
            return self.fn(k, m)
        try:
            return self._memo[k, m]
        except KeyError:
            value = self._memo[k, m] = self.fn(k, m)
            return value


def _is_int(k: Any) -> bool:
    """Whether a weight label is an integer; bool is an int subclass but
    not a weight."""
    return isinstance(k, int) and not isinstance(k, bool)


def rational_map() -> CoefficientMap:
    """f(k, m) = m^(-k) as an exact rational; k may be any integer."""
    def fn(k: Any, m: int) -> Fraction:
        if not _is_int(k):
            raise DomainError(f"rational weights must be integers, got {k!r}")
        return Fraction(1, m**k) if k >= 0 else Fraction(m ** (-k))

    forms: dict[int, CoefficientMap] = {}

    def integer_form(L: int) -> CoefficientMap:
        form = forms.get(L)
        if form is None:
            form = forms[L] = CoefficientMap(f"rational*{L}", _ZZ, _scaled_powers(L))
        return form

    return CoefficientMap("rational", QQ, fn, integer_form)


def _scaled_powers(L: int) -> Callable[[Any, int], int]:
    """f(k, m) = m^(-k) * L^max(k, 0) as an int, for m dividing L."""
    def fn(k: Any, m: int) -> int:
        if not _is_int(k):
            raise DomainError(f"rational weights must be integers, got {k!r}")
        if L % m:
            raise ValueError(f"entry {m} does not divide the scale {L}")
        return (L // m) ** k if k >= 0 else m ** (-k)

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


def _undivided(
    cmap: CoefficientMap, top: int, labels: Sequence[Any], body: Callable[[CoefficientMap], TPoly]
) -> ScaledPoly:
    """body(cmap) for a value whose every term multiplies f(k, m) once per
    label, with entries m in 1..top, undivided: run over cmap's integer form
    when it has one, as numerators over D = L^K, else over cmap with D = 1."""
    return _undivided_each(cmap, top, labels, [labels], lambda c: [body(c)])[0]


def _undivided_each(
    cmap: CoefficientMap,
    top: int,
    labels: Sequence[Any],
    parts: Sequence[Sequence[Any]],
    body: Callable[[CoefficientMap], list[TPoly]],
) -> list[ScaledPoly]:
    """body(cmap) for a list of values, the i-th multiplying the labels
    parts[i], all of them among ``labels``: as ``_undivided``, with one body
    run and each value over its own L^K."""
    form = _integer_form(cmap, top, labels)
    if form is None:
        return [ScaledPoly(value) for value in body(cmap)]
    imap, L = form
    return [
        ScaledPoly(value, L ** _positive_sum(part)) for value, part in zip(body(imap), parts)
    ]


def q_analogue_map(order: int = 16) -> CoefficientMap:
    """f(k, m) = q^(m(k-1)) / [m]_q^k modulo q^order; requires k >= 1.

    Weights below 1 would need negative powers of q and are rejected.
    """
    ring = QSeriesRing(order)
    inverses: dict[int, QSeries] = {}

    def fn(k: Any, m: int) -> QSeries:
        if not _is_int(k) or k < 1:
            raise DomainError(f"q-analogue weights must be integers >= 1, got {k!r}")
        exponent = m * (k - 1)
        if exponent >= order:
            return ring.zero
        if m not in inverses:
            inverses[m] = q_integer(m, order).inverse()
        return QSeries(order, [0] * exponent + [1]) * inverses[m] ** k

    return CoefficientMap(f"qseries:{order}", ring, fn)


def quasisymmetric_map() -> CoefficientMap:
    """f(k, m) = x_m^k over integer monomial polynomials; requires k >= 1."""
    def fn(k: Any, m: int) -> MonomialPolynomial:
        if not _is_int(k) or k < 1:
            raise DomainError(f"quasi-symmetric weights must be integers >= 1, got {k!r}")
        return MonomialPolynomial.variable_power(m, k)

    return CoefficientMap("qsym", QsymRing(), fn)


def coefficient_map_for(spec: str) -> CoefficientMap:
    """Build a coefficient map from a selector: rational | qseries:Q | qsym,
    Q written as a canonical positive decimal ("8", not "08", "+8" or "0_8")."""
    if spec == "rational":
        return rational_map()
    if spec == "qsym":
        return quasisymmetric_map()
    if spec == "qseries":
        return q_analogue_map()
    if spec.startswith("qseries:"):
        order = spec[len("qseries:"):]
        if not _is_offset(order) or int(order) < 1:
            raise ValueError(f"ring selector {spec!r} needs a canonical q-series order such as 8")
        return q_analogue_map(int(order))
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

    Over a map's integer form each state's t-polynomial p is one ``int``,
    p(2^b): a layer step is one big-integer multiply-add, t^v is a shift
    by b*v, and a factor 1 - t is p - (p << b).  Over any other ring p is
    a coefficient list with the same operations, and the walk is the same
    code.  The value is decoded once, into signed digits in base 2^b
    (``_signed_digits``), which are its coefficients c_k when every
    |c_k| < 2^(b-1).  ``_slot_bits`` takes b one bit longer than the bit
    length of the bound X below, so |c_k| <= X < 2^(b-1).

    Proof of the bound.  c_k sums, over the ordered fillings F, the
    coefficient of t^k in t^v(F) (1-t)^h(F) times the product over the
    cells of f(label, entry).  That coefficient is +-C(h, k - v) or 0, at
    most 2^h, and h counts equal neighbours within a row, so h <= C - height
    for C cells.  A filling is one of the maps from the cells to 1..N-1, so
    summing over all such maps instead,

        |c_k| <= X = 2^(C - height) * prod over cells c of S_c,
        S_c = sum over m in 1..N-1 of |f(label_c, m)|.

    The packing p -> p(2^b) is a ring map Z[t] -> Z, so the walk's
    intermediate values may carry from one slot into the next: the packed
    result is still exactly the final value at 2^b, and only its decode
    needs the bound.

    When every f(label, M) is one monomial with coefficient 1, p is a
    ``rings.PackedTerms``: per power of t, a dict from packed monomials to
    coefficients.  A layer weight is the sum of its cells' keys and * adds
    it to every key.  Coefficients are separate ints, so no slot bound is
    needed: only an exponent could carry, and each is at most X, the sum
    over cells of the cell's largest exponent.  When X passes 2^64 - 1 the
    walk takes the coefficient-list route, whose products refuse such
    exponents.
    """
    return _scaled_schur_value(weights, N, cmap).divided()


def _scaled_schur_value(weights: Tableau, N: int, cmap: CoefficientMap) -> ScaledPoly:
    """``schur_value`` undivided."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    labels = [k for row in weights.rows for k in row]
    return _undivided(cmap, N - 1, labels, lambda c: _schur_value(weights, N, c))


def _schur_value(weights: Tableau, N: int, cmap: CoefficientMap) -> TPoly:
    ring = cmap.ring
    parts = weights.shape.parts
    labels = [k for row in weights.rows for k in row]  # by cell number
    start = (0,) * len(parts)
    if _depth(parts, start) >= N:  # a diagonal longer than the N-1 values: no filling
        return TPoly.zero(ring)
    # Each live sub-partition carries a t-polynomial that supports +=, -=,
    # * by a layer weight, and << b for * t.  The walk owns every state and
    # every sum: * and << make new values (a PackedTerms view shares its
    # dicts until written), and += and -= may change their left side in
    # place (an int rebinds, a PackedTerms adds into its dicts).
    rows = [[cmap(label, M) for label in labels] for M in range(1, N)]
    packed = None if ring is _ZZ else PackedTerms.weights(rows)
    b, combine = 1, mul  # combine makes a layer weight from its cells' f
    if ring is _ZZ:
        b = _slot_bits(parts, labels, N, cmap)
        by_state: dict[tuple[int, ...], Any] = {start: 1}
    elif packed is not None:
        (rows, bound), combine = packed, add
        by_state = {start: PackedTerms([{0: 1}])}
    else:
        by_state = {start: _Coefficients([ring.one], ring.zero)}
    for M in range(1, N):
        remaining = N - 1 - M  # values left after M: deeper states are dead
        f = rows[M - 1]
        layer_weights: dict[tuple, Any] = {}  # cells -> layer weight
        # Per (target, v, h): the sum of the source states, each times its
        # layer's weight.
        sums: dict[tuple, Any] = {}
        for mu, poly in by_state.items():
            for key, depth, cells in _layers_from(parts, mu):
                if depth > remaining:
                    continue
                w = layer_weights.get(cells)
                if w is None:
                    w = layer_weights[cells] = reduce(combine, map(f.__getitem__, cells))
                acc = sums.get(key)
                if acc is None:
                    sums[key] = poly * w
                else:
                    acc += poly * w
                    sums[key] = acc
        new = {mu: p for mu, p in by_state.items() if _depth(parts, mu) <= remaining}
        for (nu, v, h), acc in sums.items():
            acc <<= b * v  # times t^v
            for _ in range(h):
                acc -= acc << b  # times 1 - t
            old = new.get(nu)
            if old is None:
                new[nu] = acc
            else:
                old += acc
                new[nu] = old
        by_state = new
    value = by_state.get(parts)
    if value is None:
        return TPoly.zero(ring)
    if ring is _ZZ:
        return TPoly(ring, _signed_digits(value, b))
    if packed is not None:
        return TPoly(ring, value.coefficients(bound))
    return TPoly(ring, value.coeffs)


def _slot_bits(parts: tuple[int, ...], labels: Sequence[int], N: int, cmap: CoefficientMap) -> int:
    """Bits b per power of t for an integer-form Schur value: one more
    than the bit length of the bound X on its coefficients proved in
    ``schur_value``.  X >= 1, so b >= 2."""
    totals: dict[int, int] = {}
    bound = 1 << (len(labels) - len(parts))
    for k in labels:
        total = totals.get(k)
        if total is None:
            total = totals[k] = sum(abs(cmap(k, m)) for m in range(1, N))
        bound *= total
    return bound.bit_length() + 1


def _signed_digits(value: int, b: int) -> list[int]:
    """The coefficients c_0, c_1, ... of the integer polynomial p with
    p(2^b) = value, given |c_k| < 2^(b-1): the digits of value in base 2^b
    taken from -2^(b-1) .. 2^(b-1) - 1, where they are unique."""
    mask = (1 << b) - 1
    half = 1 << (b - 1)
    coeffs = []
    while value:
        c = value & mask
        if c >= half:
            c -= 1 << b
        coeffs.append(c)
        value = (value - c) >> b
    return coeffs


class _Coefficients:
    """A t-polynomial over a ring with no integer form, as its coefficient
    list by ascending power of t: the arithmetic the Schur walk does on a
    packed ``int`` (+, -, * by a ring element, and << n for * t^n),
    coefficient by coefficient.  The padding that << and a longer operand
    bring in is the ring's zero object itself, and no sum or difference is
    formed with it."""

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs: list, zero: Any):
        self.coeffs = coeffs
        self.zero = zero

    def __add__(self, other: "_Coefficients") -> "_Coefficients":
        zero = self.zero
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a[:]
        for i, c in enumerate(b):
            if c is not zero:
                out[i] = c if out[i] is zero else out[i] + c
        return _Coefficients(out, zero)

    def __sub__(self, other: "_Coefficients") -> "_Coefficients":
        zero = self.zero
        out = self.coeffs + [zero] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            if c is not zero:
                out[i] = -c if out[i] is zero else out[i] - c
        return _Coefficients(out, zero)

    def __mul__(self, w: Any) -> "_Coefficients":
        zero = self.zero
        return _Coefficients([zero if c is zero else c * w for c in self.coeffs], zero)

    def __lshift__(self, n: int) -> "_Coefficients":
        return _Coefficients([self.zero] * n + self.coeffs, self.zero)


def linear_value(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> TPoly:
    """Sum over weakly increasing chains 0 < m_1 <= ... <= m_r < N of
    t^(number of adjacent equalities) times the product of f(k_i, m_i).

    The first key attaches to the smallest chain entry; this matches the
    single-column Schur value with the first key in the top cell.  The value
    is the full-length prefix of ``linear_value_prefixes``' dynamic program,
    the one evaluator behind every Jacobi-Trudi column; only that value is
    divided by L^K.
    """
    return _scaled_linear_value(keys, N, cmap).divided()


def _scaled_linear_value(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> ScaledPoly:
    """``linear_value`` undivided."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    return _undivided(
        cmap, N - 1, keys, lambda c: TPoly(c.ring, _linear_value_prefixes(keys, N, c)[0][-1])
    )


def linear_value_prefixes(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> list[TPoly]:
    """The linear value of keys[:p] for every p = 0 .. len(keys), from one
    pass over the keys.

    The chains of keys[:p] ending exactly at m sum to

        last_p(m) = f(k_p, m) * (t * last_(p-1)(m) + sum over m' < m of last_(p-1)(m'))

    (the empty chain lies below every m), so all the prefixes together take
    O(len(keys)^2 * N) coefficient operations, where enumerating the chains
    of one prefix of length r takes about C(r+N-2, r) * r.
    """
    return [value.divided() for value in _scaled_linear_value_prefixes(keys, N, cmap)]


def _scaled_linear_value_prefixes(
    keys: Sequence[Any], N: int, cmap: CoefficientMap
) -> list[ScaledPoly]:
    """``linear_value_prefixes`` undivided, each prefix over its own L^K."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    prefixes = [keys[:p] for p in range(len(keys) + 1)]
    return _undivided_each(
        cmap,
        N - 1,
        keys,
        prefixes,
        lambda c: [TPoly(c.ring, value) for value in _linear_value_prefixes(keys, N, c)[0]],
    )


def _linear_value_prefixes(
    keys: tuple, N: int, cmap: CoefficientMap, state: tuple | None = None
) -> tuple[list, tuple[list, list]]:
    """The value at N of the path after each key, and the end state.

    The path is the one ``state`` ends (the empty path when None), extended
    by keys, and its state is (last, below): coefficient lists by ascending
    power of t, indexed by m - 1, of its chains ending at m (m < N) and of
    those ending below m (m <= N), that is, its value at every bound
    1 .. N.  values[0] is the start's value at N; the callers make a
    ``TPoly`` of only the values they return."""
    ring = cmap.ring
    zero = ring.zero
    if state is None:
        last, below = [[]] * (N - 1), [[ring.one]] * N
    else:
        last, below = state
    values = [below[-1]]
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
        new_below.append(total)
        last, below = new_last, new_below
        values.append(total)
    return values, (last, below)


def linear_value_by_recursion(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> TPoly:
    """Same value as linear_value, by peeling the block of maximal entries.

    A chain bounded by n splits into its run of g+1 trailing entries equal
    to some m plus a shorter chain bounded by m, which gives

        value(keys, n) = sum over g, m of
            t^g * f(keys[-1], m) * ... * f(keys[-1-g], m) * value(keys[:-g-1], m)

    computed bottom-up by prefix length p, each prefix at every bound
    n = 1..N, from the shorter prefixes' values and the rows f(k_i, m); the
    value is the full tuple's at N.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)
    return _undivided(
        cmap, N - 1, keys,
        lambda c: TPoly(c.ring, _linear_value_by_recursion(keys, N, c)[1][-1][-1]),
    ).divided()


def _linear_value_by_recursion(
    keys: tuple, N: int, cmap: CoefficientMap, state: tuple | None = None
) -> tuple[list, list]:
    """The state (rows, by_depth) of the path that ``state`` ends (the
    empty path when None), extended by keys: rows[i][m] = f(k_(i+1), m)
    (index 0 unused), and by_depth[p][n - 1] = value(p, n) for the path's
    prefix of length p, as coefficient lists.  A chain of p entries has at
    most p - 1 equalities, so p coefficients hold value(p, n)."""
    ring = cmap.ring
    zero = ring.zero
    if state is None:
        rows, by_depth = [], [[[ring.one]] * N]
    else:
        rows, by_depth = list(state[0]), list(state[1])
    for k in keys:
        rows.append([None, *(cmap(k, m) for m in range(1, N))])
        p = len(rows)
        acc = [zero] * p  # value(p, n) sums the entries m below n
        by_bound = [acc]
        for m in range(1, N):
            acc = acc[:]
            block = None
            for g in range(p):
                f = rows[p - 1 - g][m]
                block = f if block is None else block * f
                for i, c in enumerate(by_depth[p - 1 - g][m - 1], g):
                    acc[i] = acc[i] + c * block
            by_bound.append(acc)
        by_depth.append(by_bound)
    return rows, by_depth


def merge_expansion(keys: Sequence[int], N: int) -> TPoly:
    """The rational value assembled coefficientwise from strict sums.

    Each of the 2^(r-1) ways of merging adjacent keys (replacing a comma by
    a plus) contributes its strict truncated sum at t^(number of merges);
    weak chains partition by their equality pattern, so this must agree with
    linear_value under the rational map.  The strict sums are taken times
    L^K, L = lcm(1..N-1) and K the sum of the positive keys (merging never
    raises the sum of the positive parts), and divided out here, once; this
    arithmetic is the route's own, independent of the maps' integer form.
    One prefix pass over the entries m takes each strict sum at every bound
    n = 1..N (``_strict_sums``), and the value is the last of them.  A key
    that is not an ``int``, or is a ``bool``, raises DomainError.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    sums, denominator = _merge_expansion(_merge_compositions(keys), _StrictSums(N))
    return TPoly(QQ, [Fraction(a, denominator) for a in sums[-1]])


def _merge_compositions(keys: Sequence[Any], state: list | None = None) -> list:
    """The merged compositions of the path that ``state`` ends (the empty
    path when None), extended by keys, as (composition, merges) pairs, the
    unmerged path first: each key starts a new part or is added to the last
    part."""
    compositions = [((), 0)] if state is None else state
    for k in keys:
        if not _is_int(k):
            raise DomainError(f"merge expansion keys must be integers, got {k!r}")
        extended = []
        for merged, merges in compositions:
            extended.append((merged + (k,), merges))
            if merged:
                extended.append((merged[:-1] + (merged[-1] + k,), merges + 1))
        compositions = extended
    return compositions


class _StrictSums:
    """The merge expansion's table at one bound N, shared by every key tuple
    expanded at N: its own L = lcm(1..N-1), each exponent's factors by entry
    m, and each merged composition's strict sums by bound (``_strict_sums``)."""

    def __init__(self, N: int):
        self.N, self.L = N, math.lcm(*range(1, N))
        self.powers: dict[int, list] = {}
        self.sums: dict[tuple[int, ...], list[int]] = {}


def _merge_expansion(compositions: list, table: _StrictSums) -> tuple[list[list[int]], int]:
    """The merge expansion of a path's compositions at every bound
    n = 1..table.N, as trimmed integer coefficient lists over their common
    denominator L^K; no division."""
    keys = compositions[0][0]
    N, L = table.N, table.L
    K = _positive_sum(keys)
    acc = [[0] * (len(keys) + 1) for _ in range(N)]  # acc[n - 1][merges]
    for merged, merges in compositions:
        scale = L ** (K - _positive_sum(merged))
        for coeffs, s in zip(acc, _strict_sums(merged, table)):
            coeffs[merges] += s * scale
    return [_trimmed(coeffs) for coeffs in acc], L**K


def _strict_sums(exponents: tuple[int, ...], table: _StrictSums) -> list[int]:
    """For every bound n = 1..N, L^(sum of the positive c_i) times the sum
    over strictly increasing chains 0 < m_1 < ... < m_s < n of the product
    m_i^(-c_i); integers, since every m below N divides L.  Read from the
    table, or taken and stored there.

    One pass over m: after entry m, sums[j] holds the chains of the first j
    exponents with every entry at most m, and a chain of j exponents ending
    at m extends one of j - 1 exponents ending below m.  The factor of
    entry m under exponent c is (L // m)^c for c >= 0 and m^(-c) otherwise.
    """
    by_bound = table.sums.get(exponents)
    if by_bound is not None:
        return by_bound
    N, L, powers = table.N, table.L, table.powers
    rows = []
    for c in exponents:
        row = powers.get(c)
        if row is None:
            if c >= 0:
                row = powers[c] = [None, *((L // m) ** c for m in range(1, N))]
            else:
                row = powers[c] = [None, *(m ** -c for m in range(1, N))]
        rows.append(row)
    s = len(rows)
    sums = [1] + [0] * s
    by_bound = [sums[s]]
    for m in range(1, N):
        for j in range(min(m, s), 0, -1):
            sums[j] += sums[j - 1] * rows[j - 1][m]
        by_bound.append(sums[s])
    table.sums[exponents] = by_bound
    return by_bound


def linear_value_routes(
    keys: Sequence[int], N: int, cmap: CoefficientMap, table: _StrictSums | None = None
) -> tuple[int, int, list[tuple[list[int], list[int], list[int]]]]:
    """The routes linear_value, linear_value_by_recursion and merge_expansion
    at every bound n = 1..N, under a rational map with an integer form, as
    (D, D', by_bound): by_bound[n - 1] holds each route's trimmed integer
    coefficients by ascending power of t, the first two over D, the third
    over D'.

    This is ``_route_walk`` along the one path ``keys``, at N; each route's
    state holds the smaller bounds.  The prefix DP and the recursion run
    over one integer form at L = lcm(1..N-1), so D = L^K; the merge
    expansion takes its own L and K, over ``table`` (fresh when None), so
    D' is its L^K.  Nothing is divided: the caller compares numerators.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    table = _StrictSums(N) if table is None else table
    if table.N != N:
        raise ValueError(f"strict-sum table for N = {table.N} used at N = {N}")
    # The walk yields the path's prefixes first, the full path last.
    *_, (_, denominator, merge_denominator, by_bound) = _route_walk(
        [(k,) for k in keys], N, cmap, table)
    return denominator, merge_denominator, by_bound


def _route_walk(
    levels: Sequence[Sequence[Any]], N: int, cmap: CoefficientMap, table: _StrictSums
):
    """Depth first over the trie of key tuples whose i-th key is drawn from
    levels[i], each node before its children and the children in the
    levels' order: yields (keys, D, D', by_bound) per node, as
    ``linear_value_routes`` gives them.  Each route extends its parent
    node's state by the node's one key, so every prefix is walked once, and
    only the current path's states are held.  Every key is checked before
    any route runs."""
    for level in levels:
        for k in level:
            if not _is_int(k):
                raise DomainError(f"linear-value keys must be integers, got {k!r}")
    form = _integer_form(cmap, N - 1, [k for level in levels for k in level])
    if form is None:
        raise ValueError(f"linear_value_routes needs a map with an integer form, not {cmap.name}")
    imap, L = form

    def visit(keys: tuple, parent: tuple):
        new = keys[-1:]
        dp, recursion, compositions = states = (
            _linear_value_prefixes(new, N, imap, parent[0])[1],
            _linear_value_by_recursion(new, N, imap, parent[1]),
            _merge_compositions(new, parent[2]),
        )
        merged, merge_denominator = _merge_expansion(compositions, table)
        by_bound = [
            (_trimmed(a), _trimmed(b), c) for a, b, c in zip(dp[1], recursion[1][-1], merged)
        ]
        yield keys, L ** _positive_sum(keys), merge_denominator, by_bound
        if len(keys) < len(levels):
            for k in levels[len(keys)]:
                yield from visit(keys + (k,), states)

    yield from visit((), (None, None, None))
