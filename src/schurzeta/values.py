"""Interpolated truncated multiple zeta values, in linear and Schur form.

The central objects are sums over weakly increasing integer chains (or over
ordered fillings of a Young diagram) in which every repeated value
contributes a factor t (vertically) or 1-t (horizontally), and every entry m
with weight label k contributes a ring element f(k, m).  Swapping in
different coefficient maps f yields the classical rational values, their
q-analogues, or quasi-symmetric functions, all computed exactly.

Linear values have one evaluator, the prefix dynamic program of
``_linear_value_prefixes``; ``linear_value`` is its full-length value.  The
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
the body's value over the map's own ring with D = 1.  A matrix builder
takes ``_undivided_rows`` instead, which writes its whole matrix from one
body run in the determinant format (rows, D) of ``rings``: over the integer
form each row is scaled to one denominator, so no entry is wrapped.  The
identity checks compare and render rational sides undivided; the entry points
``schur_value`` and ``linear_value`` and the reference routes return the
same values divided, as a ``TPoly``.

Over an integer form the Schur walk, the prefix DP, the recursion and the
lattice path rows also pack each t-polynomial into one ``int``, its value
at t = 2^b (Kronecker substitution), so every step is one big-integer
operation; the slot width b comes from an a-priori bound on the
coefficients (``_slot_bits``), proved in ``schur_value``,
``_linear_value_prefixes`` and ``lattice``.  The merge expansion is not
packed.
The q-analogue map has a packed form instead (``_series_map``): each
q-series is one ``int``, its value at q = 2^b reduced modulo 2^(bQ), so a
product of series is one big-integer multiply and a mask.  The same bodies
run over it with t kept as a list of such ints (``_Residues``), at a q-slot
width b proved from the l1 norms of the q-coefficients (``_packed_route``);
a value's coefficients are decoded into Q signed digits each, once
(``_unpacked``).  A q-series map with no packed form runs them over lists
of ``QSeries`` (``_Coefficients``), the tests' oracle.
When every f(k, m) is one monomial, as over the quasi-symmetric map, a
Schur walk state is one dict of tagged keys (``rings.PackedTerms``).

Determinants take one of three forms, chosen once per matrix
(``_determinant_form``): the rational map's integer rows, for elimination
in ``rings``; the q-analogue map's ``_Residues`` at a width bounding the
determinant (``_determinant_bits``), for the masked Laplace expansion; the
quasi-symmetric map's tagged form (``_Tagged``, each entry one dict of
tagged monomial keys) when an exponent bound fits the 64-bit fields, for
``_tagged_laplace``.  ``_form_determinant`` takes the last two and decodes
the result once.  Any other map, a hand-built one among them, writes
``TPoly`` rows for ``rings._laplace``: the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import itemgetter, mul
from typing import Any, Callable, Mapping, Sequence

from .errors import DomainError
from .rings import (
    MonomialPolynomial,
    PackedSeriesRing,
    PackedTerms,
    QQ,
    QSeries,
    QSeriesRing,
    QsymRing,
    Ring,
    TPoly,
    TaggedRing,
    ScaledPoly,
    _EXPONENT_MAX,
    _FIELD_BITS,
    _ZZ,
    _integer_numerators,
    _laplace,
    _trimmed,
    q_integer,
)
from .shapes import LayerGraph, Partition, Tableau, layer_graph, walk


@dataclass(frozen=True)
class CoefficientMap:
    """A deterministic map (weight label, positive integer) -> ring element.

    ``integer_form``, when set, takes L and returns the map over the
    integers f(k, m) * L^max(k, 0), for every m dividing L; the evaluators
    then sum integers and divide once (see the module docstring).
    ``packed_form``, when set, takes b and returns the map over the
    ``rings.PackedSeriesRing`` at q = 2^b: f(k, m) packed into one ``int``
    (``_packed_route``).  ``tagged_form``, when set, takes N and returns
    the map over the ``rings.TaggedRing`` whose tag lies above every
    variable of f(k, m) for m < N: f(k, m), one monomial with coefficient
    1, as its packed key (``_determinant_form``).

    Calling the map memoises ``fn`` per (k, m), ``row`` the list of
    f(k, m) for m < N per (k, N), and ``total`` its sum of norms per
    (k, N, norm), for labels whose type is exactly ``int``;
    any other label goes straight to ``fn``, which rejects it, so ``True``
    is never served the value of 1.  The constructors' ``fn`` therefore
    check and compute, and keep no cache of their own.
    """

    name: str
    ring: Ring
    fn: Callable[[Any, int], Any] = field(repr=False)
    integer_form: Callable[[int], "CoefficientMap"] | None = field(default=None, repr=False)
    packed_form: Callable[[int], "CoefficientMap"] | None = field(default=None, repr=False)
    tagged_form: Callable[[int], "CoefficientMap"] | None = field(default=None, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _totals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, k: Any, m: int) -> Any:
        if type(k) is not int:
            return self.fn(k, m)
        try:
            return self._memo[k, m]
        except KeyError:
            value = self._memo[k, m] = self.fn(k, m)
            return value

    def row(self, k: Any, N: int) -> list:
        """[f(k, 1), ..., f(k, N - 1)]; callers must not change it."""
        if type(k) is not int:
            return [self.fn(k, m) for m in range(1, N)]
        try:
            return self._rows[k, N]
        except KeyError:
            row = self._rows[k, N] = [self(k, m) for m in range(1, N)]
            return row

    def total(self, k: Any, N: int, norm: Callable[[Any], int]) -> int:
        """norm(f(k, 1)) + ... + norm(f(k, N - 1)): S(k) of the slot bounds."""
        if type(k) is not int:
            return sum(map(norm, self.row(k, N)))
        try:
            return self._totals[k, N, norm]
        except KeyError:
            total = self._totals[k, N, norm] = sum(map(norm, self.row(k, N)))
            return total


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


def _undivided(
    cmap: CoefficientMap, top: int, labels: Sequence[Any], body: Callable[[CoefficientMap], TPoly]
) -> ScaledPoly:
    """body(cmap) for a value whose every term multiplies f(k, m) once per
    label, with entries m in 1..top, undivided: one body run over cmap's
    integer form when it has one, as numerators over D = L^K, K the sum of
    the positive labels, else over cmap with D = 1."""
    form = _integer_form(cmap, top, labels)
    if form is None:
        return ScaledPoly(body(cmap))
    imap, L = form
    return ScaledPoly(body(imap), L ** sum(k for k in labels if k > 0))


def _undivided_rows(
    cmap: CoefficientMap,
    top: int,
    runs: Sequence[Sequence[Any]],
    prefixes: Sequence[Sequence[tuple[int, int]]],
    body: Callable[[CoefficientMap], list[list[Sequence]]],
) -> tuple[list[list], int]:
    """The matrix of coefficient lists body(cmap) returns, from one body
    run, in the determinant format (rows, D) of ``rings._scaled_determinant``.
    Entry (i, j) multiplies f(k, m) once per label k of runs[r][:p], for
    (r, p) = prefixes[i][j] (p = 0 for a zero entry), with entries m in
    1..top.

    Over cmap's integer form each entry is its integer numerators over its
    own L^K, K the sum of its positive labels, kept as running sums along
    each run; a row is scaled to its largest L^K and D is the product of
    those.  A map with no integer form gives its values as ``TPoly``s with
    D = 1, and over the rationals as integer rows
    (``rings._integer_numerators``)."""
    form = _integer_form(cmap, top, [k for run in runs for k in run])
    if form is None:
        matrix = body(cmap)
        if cmap.ring == QQ:
            return _integer_numerators([[_trimmed(v) for v in row] for row in matrix])
        return [[TPoly(cmap.ring, v) for v in row] for row in matrix], 1
    imap, L = form
    sums = [list(accumulate([k if k > 0 else 0 for k in run], initial=0)) for run in runs]
    rows = []
    denominator = 1
    for values, row in zip(body(imap), prefixes):
        exponents = [sums[r][p] for r, p in row]
        K = max(exponents, default=0)
        denominator *= L**K
        row = []
        for value, k in zip(values, exponents):
            if k != K:
                scale = L ** (K - k)
                value = [c * scale for c in value]
            row.append(value)
        rows.append(row)
    return rows, denominator


def q_analogue_map(order: int = 16) -> CoefficientMap:
    """f(k, m) = q^(m(k-1)) / [m]_q^k modulo q^order; requires k >= 1.

    Weights below 1 would need negative powers of q and are rejected.
    Every f(k, m) has integer coefficients, since [m]_q has constant term
    1, so the map has a packed form (``_series_map``).
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

    return _series_map(f"qseries:{order}", ring, fn)


def _series_map(name: str, ring: Ring, fn: Callable[[Any, int], QSeries]) -> CoefficientMap:
    """The map fn over a q-series ring, every value of which has integer
    coefficients, with its packed form: at each slot width b, f(k, m) at
    q = 2^b modulo 2^(b * order) (``rings.PackedSeriesRing``), made once
    per b and memoised as any map is."""
    forms: dict[int, CoefficientMap] = {}

    def packed_form(b: int) -> CoefficientMap:
        form = forms.get(b)
        if form is None:
            packed = PackedSeriesRing.of(ring, b)
            encode = packed.encode
            form = forms[b] = CoefficientMap(packed.name, packed, lambda k, m: encode(cmap(k, m)))
        return form

    cmap = CoefficientMap(name, ring, fn, packed_form=packed_form)
    return cmap


def quasisymmetric_map() -> CoefficientMap:
    """f(k, m) = x_m^k over integer monomial polynomials; requires k >= 1.

    Its tagged form for entries m < N holds x_m^k as its packed key,
    k << 64(m - 1), with t tagged at bit 64(N - 1), above the fields of
    x_1 .. x_(N-1); made once per N and memoised as any map is."""
    def fn(k: Any, m: int) -> MonomialPolynomial:
        if not _is_int(k) or k < 1:
            raise DomainError(f"quasi-symmetric weights must be integers >= 1, got {k!r}")
        return MonomialPolynomial.variable_power(m, k)

    forms: dict[int, CoefficientMap] = {}

    def tagged_form(N: int) -> CoefficientMap:
        form = forms.get(N)
        if form is None:
            ring = TaggedRing.of(_FIELD_BITS * max(N - 1, 0))
            form = forms[N] = CoefficientMap(
                ring.name, ring, lambda k, m: next(iter(cmap(k, m)._terms)))
        return form

    cmap = CoefficientMap("qsym", QsymRing(), fn, tagged_form=tagged_form)
    return cmap


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

    Computed one value at a time by ``shapes.walk``: after value M each
    sub-partition mu that a filling by 1..M can reach carries the sum over
    those fillings, and value M+1 extends them by the layers nu/mu, each
    weighing t^v (1-t)^h times the product of f(label, M+1) over its cells
    (``_group_step``).  The cost is polynomial in N and in the number of
    sub-partitions; the result has degree at most (cell count - 1) in t.

    Over a map's integer form each state's t-polynomial p is one ``int``,
    p(2^b): a layer step is one big-integer multiply-add, t^v is a shift
    by b*v, and a factor 1 - t is p - (p << b).  Over any other ring p is
    a coefficient list with the same operations, and the walk is the same
    code.  The value is decoded once, into signed digits in base 2^b
    (``_decoded``), which are its coefficients c_k when every
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

    Over the q-analogue map the walk runs over its packed form
    (``_packed_route``): t stays a list, and each coefficient is one int,
    a q-series at q = 2^b' modulo 2^(b'Q).  The same sum bounds every
    q-coefficient of c_k, with S_c = sum over m of ||f(label_c, m)||_1:
    the l1 norm of a product of series is at most the product of their
    norms, truncation only drops terms, and the signed binomials are
    bounded as above.  So each q-coefficient is at most X < 2^(b'-1), and
    its signed digit is read back exactly.

    When every f(label, M) is one monomial with coefficient 1, the walk
    runs on tagged keys (``_tagged_step``): a key is a packed monomial plus
    v and h in two 64-bit fields above every field a key of f uses, for
    t^v (1-t)^h times the monomial, and ``rings.PackedTerms`` expands
    (1-t)^h once, at the decode.  No field carries: an exponent is at most
    X, the sum over cells of the cell's largest exponent, and the walk
    takes this route only when X <= 2^64 - 1; v counts the cells with an
    equal neighbour above, so v <= C - width, and h those with one to the
    left, so h <= C - height, and neither reaches 2^64.  When X passes
    2^64 - 1 the walk takes the coefficient-list route, whose products
    refuse such exponents.
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
    graph = layer_graph(parts)
    if graph.depth[graph.start] >= N:  # no filling: the rows below are not needed
        return TPoly.zero(ring)
    c, b = _packed_route([(k,) for k in labels], N, cmap, len(labels) - len(parts))
    rows = [[c(label, M) for label in labels] for M in range(1, N)]
    tagged = PackedTerms.weights(rows)
    if tagged is not None:
        terms = walk(graph, N, {0: 1}, _tagged_step(graph, tagged))
        return TPoly(ring, tagged.coefficients(terms or {}))
    value = walk(graph, N, _packed_constants(c.ring)[1], _group_step(graph, rows, b))
    return TPoly(ring, () if value is None else _unpacked(value, b, c, ring))


def _group_step(graph: LayerGraph, rows: list, bits: int) -> Callable:
    """The ``shapes.walk`` step on t-polynomials with +, -, * by a layer
    weight and << bits for * t (packed ints or ``_Coefficients``).  Layer
    weights are computed once per value, by layer id; the sources' products
    are summed per group (target, v, h), and t^v (1-t)^h times each sum."""

    def step(M, remaining, sources, new):
        f = rows[M - 1]
        groups, targets, layers, b = graph.groups, graph.targets, graph.layers, bits
        layer_weights: list = [None] * len(layers)  # the sources' ids are all built
        sums: list = [None] * len(groups)
        used = []
        for _, poly, transitions in sources:
            for g, d, layer in transitions:
                if d > remaining:
                    break
                w = layer_weights[layer]
                if w is None:
                    w = layer_weights[layer] = reduce(mul, map(f.__getitem__, layers[layer]))
                acc = sums[g]
                if acc is None:
                    sums[g] = poly * w
                    used.append(g)
                else:
                    sums[g] = acc + poly * w
        for g in used:
            acc = sums[g]
            _, v, h = groups[g]
            acc <<= b * v  # times t^v
            for _ in range(h):
                acc -= acc << b  # times 1 - t
            s = targets[g]
            if s is None:
                s = graph.reach(g)
            old = new.get(s)
            new[s] = acc if old is None else old + acc

    return step


def _tagged_step(graph: LayerGraph, tagged: PackedTerms) -> Callable:
    """The ``shapes.walk`` step on dicts from ``rings.PackedTerms``' tagged
    keys to counts.  A layer's weight is one key, its cells' keys plus the
    tag of its t^v (1-t)^h (v and h depend on the cells alone), added to
    every key of the source straight into the target's dict, with no
    per-group sum.  The sources go largest id first, so a dict the walk
    carried over unchanged is read before any layer adds into it."""

    def step(M, remaining, sources, new):
        f = tagged.keys[M - 1]
        groups, targets, layers, tag = graph.groups, graph.targets, graph.layers, tagged.tag
        layer_weights: list = [None] * len(layers)
        for _, terms, transitions in sorted(sources, key=itemgetter(0), reverse=True):
            for g, d, layer in transitions:
                if d > remaining:
                    break
                w = layer_weights[layer]
                if w is None:
                    _, v, h = groups[g]
                    w = layer_weights[layer] = sum(map(f.__getitem__, layers[layer])) + tag(v, h)
                s = targets[g]
                if s is None:
                    s = graph.reach(g)
                target = new.get(s)
                if target is None:
                    new[s] = {key + w: c for key, c in terms.items()}
                    continue
                get = target.get
                for key, c in terms.items():
                    key += w
                    target[key] = get(key, 0) + c

    return step


class _Coefficients:
    """A t-polynomial over a ring with no integer form, as its coefficient
    list by ascending power of t: the arithmetic the Schur walk and the
    linear routes do on a packed ``int`` (+, -, * by a ring element, and
    << n for * t^n), coefficient by coefficient.  The padding that << and a
    longer operand bring in is the ring's zero object itself, and no sum or
    difference is formed with it."""

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


class _Residues:
    """A t-polynomial over a ``rings.PackedSeriesRing``, as its coefficient
    list by ascending power of t: ints standing for their residues modulo
    2^(bQ), the ring's ``mask`` + 1.  The arithmetic of ``_Coefficients``
    (+, -, * by a packed series, << n for * t^n) on those ints, and, for
    the Laplace expansion (``_form_determinant``), unary -, truth and *
    by another t-list: a product is reduced by the mask, which is the
    truncation at q^Q, and sums and differences are left as they are,
    congruent to the residues they stand for.  ``_decoded`` reduces every
    coefficient once."""

    __slots__ = ("coeffs", "mask")

    def __init__(self, coeffs: list, mask: int):
        self.coeffs = coeffs
        self.mask = mask

    def __add__(self, other: "_Residues") -> "_Residues":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a[:]
        for i, c in enumerate(b):
            out[i] += c
        return _Residues(out, self.mask)

    def __sub__(self, other: "_Residues") -> "_Residues":
        out = self.coeffs + [0] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return _Residues(out, self.mask)

    def __neg__(self) -> "_Residues":
        return _Residues([-c for c in self.coeffs], self.mask)

    def __bool__(self) -> bool:
        mask = self.mask
        return any(c & mask for c in self.coeffs)

    def __mul__(self, w: "int | _Residues") -> "_Residues":
        mask = self.mask
        if type(w) is int:
            w &= mask
            return _Residues([c * w & mask for c in self.coeffs], mask)
        a, b = self.coeffs, w.coeffs
        if not a or not b:
            return _Residues([], mask)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _Residues([c & mask for c in out], mask)

    def __lshift__(self, n: int) -> "_Residues":
        return _Residues([0] * n + self.coeffs, self.mask)


class _Tagged:
    """A t-polynomial over a ``rings.TaggedRing``: one dict from tagged
    keys, a packed monomial plus d << shift for t^d, to positive counts.
    The arithmetic of ``_Coefficients`` on it: +, * by a monomial key,
    which adds the key to every key, and << n, which adds n to every key,
    so that << (1 << shift), the tag, is * t.  ``_tagged_laplace`` splits
    the keys by their power of t."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other: "_Tagged") -> "_Tagged":
        big, small = self.terms, other.terms
        if not small:
            return self
        if not big:
            return other
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        get = out.get
        for key, c in small.items():
            out[key] = get(key, 0) + c  # counts are positive: nothing cancels
        return _Tagged(out)

    def __mul__(self, w: int) -> "_Tagged":
        if not self.terms:
            return self
        return _Tagged({key + w: c for key, c in self.terms.items()})

    __lshift__ = __mul__  # << n adds n to every key, as * by a key does


def linear_value(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> TPoly:
    """Sum over weakly increasing chains 0 < m_1 <= ... <= m_r < N of
    t^(number of adjacent equalities) times the product of f(k_i, m_i).

    The first key attaches to the smallest chain entry; this matches the
    single-column Schur value with the first key in the top cell.  The value
    is the full-length prefix of ``_linear_value_prefixes``' dynamic
    program, the one evaluator behind every Jacobi-Trudi column, decoded
    and divided by L^K once.
    """
    return _scaled_linear_value(keys, N, cmap).divided()


def _scaled_linear_value(keys: Sequence[Any], N: int, cmap: CoefficientMap) -> ScaledPoly:
    """``linear_value`` undivided: one pass of the prefix DP over the keys,
    and only its last value decoded."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)

    def body(c: CoefficientMap) -> TPoly:
        packed, b = _packed_route([(k,) for k in keys], N, c)
        values, _ = _linear_value_prefixes(keys, N, packed, b)
        return TPoly(c.ring, _unpacked(values[-1], b, packed, c.ring))

    return _undivided(cmap, N - 1, keys, body)


def _slot_bits(
    levels: Sequence[Sequence[Any]], N: int, cmap: CoefficientMap, pairs: int = 0
) -> int:
    """Bits b per power of t for a packed value whose i-th label is drawn
    from levels[i]: over the integers ``_bound_bits`` with S(k) =
    |f(k, 1)| + ... + |f(k, N-1)|; over a ``rings.TaggedRing`` its tag,
    1 << shift, for which << b is * t on a ``_Tagged``; over any other ring
    1, for which << 1 is * t on a ``_Coefficients`` or a ``_Residues``.
    Every coefficient of the value is at most X: the Schur walk passes one
    level per cell and pairs = C - height (proved in ``schur_value``), the
    linear routes their levels and no pairs (proved in
    ``_linear_value_prefixes``), a path row the columns its paths leave
    (proved in ``lattice``)."""
    if cmap.ring is _ZZ:
        return _bound_bits(levels, N, cmap, abs, pairs)
    if isinstance(cmap.ring, TaggedRing):
        return 1 << cmap.ring.shift
    return 1


def _bound_bits(
    levels: Sequence[Sequence[Any]], N: int, cmap: CoefficientMap, norm: Callable, pairs: int
) -> int:
    """One more than the bit length of

        X = 2^pairs * product over the levels of the largest S(k) there,
        S(k) = norm(f(k, 1)) + ... + norm(f(k, N-1)),

    a level whose largest S(k) is 0 counted as 1, and X at least 1.  The
    labels are looked up level by level, so a label the map rejects raises
    where the route would first meet it."""
    totals: dict = {}
    for level in levels:
        for k in level:
            if k not in totals:
                totals[k] = cmap.total(k, N, norm)
    bound = 1 << pairs
    for level in levels:
        bound *= max(map(totals.__getitem__, level), default=1) or 1
    return bound.bit_length() + 1


def _series_norm(series: QSeries) -> int:
    """||series||_1, the sum of its coefficients' absolute values."""
    return sum(map(abs, series.coeffs))


def _packed_route(
    levels: Sequence[Sequence[Any]], N: int, cmap: CoefficientMap, pairs: int = 0
) -> tuple[CoefficientMap, int]:
    """The map a packed route runs over, and its bits b per power of t.

    A map with a packed form (the q-series maps) runs over that form at
    q = 2^b', with b' from ``_bound_bits`` over the l1 norms of the
    q-coefficients, S(k) = ||f(k, 1)||_1 + ... + ||f(k, N-1)||_1; its
    states are ``_Residues``, t-lists, so b = 1.  Every q-coefficient of a
    value is then at most X, by the proofs ``_slot_bits`` names with
    ||.||_1 in place of |.|: the l1 norm of a product of series is at most
    the product of their norms, truncation at q^Q only drops terms, and
    those proofs sum norms over all maps from the cells (or keys) to
    1..N-1, with no use of signs.  A level whose S(k) are all 0 (labels
    with (k - 1) * m >= Q at every m, so f = 0) is counted as 1, so a
    bound for a path is also one for each of its prefixes.  So
    ``_unpacked`` reads the value's series back exactly.

    Any other map runs as it is, at ``_slot_bits``."""
    if cmap.packed_form is None:
        return cmap, _slot_bits(levels, N, cmap, pairs)
    return cmap.packed_form(_bound_bits(levels, N, cmap, _series_norm, pairs)), 1


def _packed_constants(ring: Ring) -> tuple[Any, Any]:
    """0 and 1 as the packed routes hold them: ints over the integers,
    ``_Residues`` over a packed series ring, ``_Tagged`` over a tagged
    ring, else ``_Coefficients``."""
    if ring is _ZZ:
        return 0, 1
    if isinstance(ring, PackedSeriesRing):
        return _Residues([], ring.mask), _Residues([1], ring.mask)
    if isinstance(ring, TaggedRing):
        return _Tagged({}), _Tagged({0: 1})
    return _Coefficients([], ring.zero), _Coefficients([ring.one], ring.zero)


def _determinant_bits(
    runs: Sequence[Sequence[Any]],
    prefixes: Sequence[Sequence[tuple[int, int]]],
    N: int,
    cmap: CoefficientMap,
    factor: int = 1,
) -> int:
    """Bits per q-slot for the determinant of a matrix over cmap's packed
    form whose entry (i, j) has l1 norm at most

        X_ij = factor^p * product of S(k) over the labels k of runs[r][:p],
        (r, p) = prefixes[i][j], and X_ij = 0 where p < 0 (a zero entry),

    S(k) = ||f(k, 1)||_1 + ... + ||f(k, N-1)||_1: one more than the bit
    length of X = product over the rows i of the sum over j of X_ij, X at
    least 1.  The H entries have this bound with factor 1
    (``jacobi_trudi._h_determinant``), the path sums with factor 2
    (``lattice``), each proved there.

    Proof.  Let ||p|| be the l1 norm of a polynomial in t and q: the sum
    of its coefficients' absolute values.  It is subadditive, and
    submultiplicative also after truncation at q^Q, which only drops
    terms.  The determinant sums, over the permutations s,
    +-prod_i entry(i, s(i)), so ||det|| <= sum over s of
    prod_i X_(i, s(i)) <= prod_i sum_j X_ij = X, the last sum running over
    all maps i -> j.  So every q-coefficient of the determinant is at most
    X < 2^(bits - 1), in the digit range of the packed ring.  The packing
    and the mask are ring maps, so the masked Laplace expansion
    (``_form_determinant``) gives a residue congruent to the packing of
    the determinant, and its decode is exact.  The labels are looked up
    run by run, as the routes that write the runs' entries look them up."""
    products = [
        list(accumulate([factor * cmap.total(k, N, _series_norm) for k in run], mul, initial=1))
        for run in runs
    ]
    bound = 1
    for row in prefixes:
        bound *= sum(products[r][p] for r, p in row if p >= 0)
    return max(bound, 1).bit_length() + 1


def _determinant_form(
    cmap: CoefficientMap,
    N: int,
    runs: Sequence[Sequence[Any]],
    prefixes: Sequence[Sequence[tuple[int, int]]],
    factor: int = 1,
) -> tuple[CoefficientMap, int] | None:
    """The packed form a determinant over cmap runs on, for a matrix given
    as in ``_determinant_bits`` whose entries multiply f(k, m), m < N, once
    per label: (form, X), or None when the matrix is to be written as the
    rows of ``rings._scaled_determinant``.

    A map with a packed form (the q-series maps) runs over it at the width
    of ``_determinant_bits``, with X = 0 unused.  A map with a tagged form
    (the quasi-symmetric map) runs over it when X <= 2^64 - 1, where

        X = sum over the rows i of the largest E_ij over j,
        E_ij = sum of e(k) over the labels k of runs[r][:p], (r, p) =
        prefixes[i][j], and E_ij = 0 where p < 0,

    e(k) the largest exponent of f(k, 1), ..., f(k, N-1).  Proof that no
    key carries: a term of entry (i, j) multiplies one f(k, m) per label,
    each one monomial, so each of its exponents is at most E_ij.  Every
    term of the Laplace expansion, and of each minor it memoises,
    multiplies entries from distinct rows, so its exponents are at most
    X <= 2^64 - 1, and no exponent passes its 64-bit field into the next
    one, nor into the tag, whose bits above them hold the power of t alone.
    Past 2^64 - 1, or with neither form, None: the t-polynomial rows take
    the determinant, and their products raise ``DomainError`` where an
    exponent would pass the limit.  The labels are looked up run by run,
    as in ``_determinant_bits``."""
    if cmap.packed_form is not None:
        return cmap.packed_form(_determinant_bits(runs, prefixes, N, cmap, factor)), 0
    if cmap.tagged_form is None:
        return None
    largest: dict = {}  # int label -> e(k); any other label raises in cmap.row
    sums = []
    for run in runs:
        exponents = []
        for k in run:
            e = largest.get(k) if type(k) is int else None
            if e is None:
                e = largest[k] = max([f._bound for f in cmap.row(k, N)], default=0)
            exponents.append(e)
        sums.append(list(accumulate(exponents, initial=0)))
    bound = sum(max([sums[r][p] for r, p in row if p >= 0], default=0) for row in prefixes)
    if bound > _EXPONENT_MAX:
        return None
    return cmap.tagged_form(N), bound


def _form_determinant(
    matrix: Sequence[Sequence[Any]], form: CoefficientMap, bound: int, ring: Ring
) -> ScaledPoly:
    """The determinant, with D = 1, of a square matrix of t-polynomials
    over the packed map form (``_determinant_form``), decoded once into a
    t-polynomial over ring: over a q-series packed form, the ``_Residues``
    go to the memoised Laplace expansion (``rings._laplace``), and its
    masked residues are read back into q-series (``_unpacked``); over a
    tagged form, the ``_Tagged`` entries go to ``_tagged_laplace``, and its
    dicts become monomial polynomials with exponent bound ``bound``."""
    if isinstance(form.ring, TaggedRing):
        coeffs = _tagged_laplace(matrix, form.ring.shift)
        return ScaledPoly(TPoly(ring, [MonomialPolynomial._make(c, bound) for c in coeffs]))
    zero, one = _packed_constants(form.ring)
    det = _laplace(matrix, Ring(form.name, zero, one))
    return ScaledPoly(TPoly(ring, _unpacked(det, 1, form, ring)))


def _tagged_laplace(matrix: Sequence[Sequence[_Tagged]], shift: int) -> list[dict]:
    """The determinant of a square matrix of ``_Tagged`` entries, as one
    dict from packed monomials to nonzero counts per power of t: the Laplace
    expansion of ``rings._laplace``, memoised on the unused columns.

    Each entry is split by its power of t once, the keys at bit ``shift``,
    and every minor is held so, one dict per power.  A minor is one pass
    over its columns: each product of an entry's t^i dict and a smaller
    minor's t^j dict (a key-sum convolution) is summed, with its sign,
    straight into the minor's t^(i+j) dict, and cancelled counts are
    dropped at the end.  One dict per power does the same key sums as one
    tagged dict per minor, but each pass writes into a table a fraction of
    the minor's size.  With every minor one dict, det H of (5,5,5) at N = 6
    took 1.6 times as long (CPython 3.11, x86-64), and 1.5 times with the
    tagged keys kept in the per-power dicts: the cost is the size of the
    tables written into, not of the keys."""
    mask = (1 << shift) - 1
    rows = []
    for row in matrix:
        split_row = []
        for entry in row:
            powers: list[dict] = []
            for key, c in entry.terms.items():
                d = key >> shift
                while d >= len(powers):
                    powers.append({})
                powers[d][key & mask] = c
            split_row.append(powers)
        rows.append(split_row)
    n = len(rows)
    # The minors on the last row alone are its entries.
    memo: dict[int, list[dict]] = {1 << j: e for j, e in enumerate(rows[-1])} if rows else {}
    memo[0] = [{0: 1}]

    def expand(cols: int) -> list[dict]:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = rows[n - cols.bit_count()]  # the row to expand along
        out: list[dict] = []
        negative = False  # the sign alternates over the remaining columns only
        for j in range(n):
            bit = 1 << j
            if not cols & bit:
                continue
            entry = row[j]
            if entry:
                minor = expand(cols ^ bit)
                while len(out) < len(entry) + len(minor) - 1:
                    out.append({})
                for i, a in enumerate(entry):
                    for d, b in enumerate(minor, i):
                        at = out[d]
                        get = at.get
                        for k1, c1 in a.items():
                            if negative:
                                c1 = -c1
                            for k2, c2 in b.items():
                                key = k1 + k2
                                at[key] = get(key, 0) + c1 * c2
            negative = not negative
        out = [{key: c for key, c in at.items() if c} for at in out]
        while out and not out[-1]:
            out.pop()
        memo[cols] = out
        return out

    return expand((1 << n) - 1)


def _unpacked(value: Any, b: int, packed: CoefficientMap, ring: Ring) -> list:
    """The coefficients over ring of a value a packed route ran over the
    map ``packed`` (``_packed_route``): ``_decoded``'s, each read back into
    a q-series when packed is the packed form of ring."""
    coeffs = _decoded(value, b)
    if packed.ring is ring:
        return coeffs
    return list(map(packed.ring.decode, coeffs))


def _decoded(value: Any, b: int) -> list:
    """A packed t-polynomial's coefficients by ascending power of t, given
    every |c_k| < 2^(b-1) (``_slot_bits``): an int
    p(2^b)'s digits in base 2^b taken from -2^(b-1) .. 2^(b-1) - 1, where
    they are unique, so trimmed; a ``_Residues``' ints reduced by its mask,
    trimmed; a ``_Coefficients``' own list."""
    if type(value) is not int:
        if type(value) is _Residues:
            mask = value.mask
            return _trimmed([c & mask for c in value.coeffs])
        return value.coeffs
    mask = (1 << b) - 1
    half = 1 << (b - 1)
    coeffs = []
    while value:
        c = value & mask
        value >>= b
        if c >= half:  # a negative digit borrows one from the rest
            c -= 1 << b
            value += 1
        coeffs.append(c)
    return coeffs


def _linear_value_prefixes(
    keys: tuple, N: int, cmap: CoefficientMap, b: int, state: tuple | None = None
) -> tuple[list, tuple[list, list]]:
    """The value at N of the path after each key, and the end state.

    The path is the one ``state`` ends (the empty path when None), extended
    by keys, and its state is (last, below): the t-polynomials, indexed by
    m - 1, of its chains ending at m (m < N) and of those ending below m
    (m <= N), that is, its value at every bound 1 .. N.  The chains of
    keys[:p] ending exactly at m sum to

        last_p(m) = f(k_p, m) * (t * last_(p-1)(m) + sum over m' < m of last_(p-1)(m'))

    (the empty chain lies below every m), so all the prefixes together take
    O(len(keys) * N) operations, where enumerating the chains of one prefix
    of length r takes about C(r+N-2, r) * r.

    Each t-polynomial is packed at t = 2^b, with b from ``_slot_bits``:
    one ``int`` over the integers, a ``_Coefficients`` over any other ring.
    A key step is, per m, one ((last << b) + below) * f(k, m) and one add,
    the same code on either.  values[0] is the start's value at N; the
    callers decode (``_decoded``) only the values they return.

    Proof that each coefficient c_j of a value the linear routes return is
    below 2^(b-1).  Over the integers the map is an integer form, whose
    f(k, m) are positive: (L // m)^k or m^(-k).  c_j of keys k_1 .. k_p at
    a bound n sums the products of the f(k_i, m_i) over the weak chains
    below n with j equalities, so c_j >= 0, and all c_j together are at
    most the sum over all maps i -> m_i in 1..N-1, the product of the
    S(k_i).  That is at most X (``_slot_bits``, with no pairs) for every
    prefix of a path, since each
    S(k) >= 1 when N >= 2 (at N = 1 only the empty path's value, 1, is
    nonzero).  So 0 <= c_j < 2^(b-1), and the c_j are the signed base-2^b
    digits of p(2^b) (``_decoded``), the bit above each one reading 0 as
    its sign; as the packing is a ring map, only returned values need the
    bound.  Over a q-series map's packed form the same sum bounds every
    q-coefficient of c_j in absolute value, with ||f(k, m)||_1 in place
    of f(k, m) (``_packed_route``), and S(k) may be 0 there (f(k, m) = 0
    when m(k - 1) >= Q), so each level counts at least 1 and the bound of
    a path still covers its prefixes."""
    zero, one = _packed_constants(cmap.ring)
    if state is None:
        last, below = [zero] * (N - 1), [one] * N
    else:
        last, below = state
    values = [below[-1]]
    for k in keys:
        total = zero
        new_last, new_below = [], [zero]
        for f, previous, under in zip(cmap.row(k, N), last, below):
            acc = ((previous << b) + under) * f
            new_last.append(acc)
            total = total + acc
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
    value is the full tuple's at N.  The values are packed as in the prefix
    DP, so t^g is a shift by b * g.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    keys = tuple(keys)

    def body(c: CoefficientMap) -> TPoly:
        packed, b = _packed_route([(k,) for k in keys], N, c)
        value = _linear_value_by_recursion(keys, N, packed, b)[1][-1][-1]
        return TPoly(c.ring, _unpacked(value, b, packed, c.ring))

    return _undivided(cmap, N - 1, keys, body).divided()


def _linear_value_by_recursion(
    keys: tuple, N: int, cmap: CoefficientMap, b: int, state: tuple | None = None
) -> tuple[list, list]:
    """The state (rows, by_depth) of the path that ``state`` ends (the
    empty path when None), extended by keys: rows[i][m - 1] = f(k_(i+1), m),
    and by_depth[p][n - 1] = value(p, n) for the path's prefix of length p,
    packed at t = 2^b as in ``_linear_value_prefixes``."""
    zero, one = _packed_constants(cmap.ring)
    if state is None:
        rows, by_depth = [], [[one] * N]
    else:
        rows, by_depth = list(state[0]), list(state[1])
    for k in keys:
        rows.append(cmap.row(k, N))
        p = len(rows)
        acc = zero  # value(p, n) sums the entries m below n
        by_bound = [acc]
        for m in range(1, N):
            block = None
            for g in range(p):
                f = rows[p - 1 - g][m - 1]
                block = f if block is None else block * f
                acc = acc + ((by_depth[p - 1 - g][m - 1] * block) << (b * g))
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
    arithmetic is the route's own (``_PowerRows``), unpacked and independent
    of the maps' integer form.  Each merged composition carries its strict
    sums at every bound n = 1..N, and a part more is one pass over the
    entries m (``_merge_compositions``); the value is the last of them.  A
    key that is not an ``int``, or is a ``bool``, raises DomainError.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    rows = _PowerRows(N)
    sums, denominator = _merge_expansion(_merge_compositions(keys, rows), rows.L)
    return TPoly(QQ, [Fraction(a, denominator) for a in sums[-1]])


class _PowerRows(dict):
    """The merge route's own arithmetic at one bound N: L = lcm(1..N-1),
    and per (part c, scale e) with e >= max(c, 0), made on first use, the
    factors L^e * m^(-c) of the entries m = 1..N-1 in a strict sum taken
    times L^e, integers since every m divides L."""

    def __init__(self, N: int):
        super().__init__()
        self.N, self.L = N, math.lcm(*range(1, N))

    def __missing__(self, key: tuple[int, int]) -> list[int]:
        c, e = key
        scale = self.L**e
        row = self[key] = [scale // m**c if c >= 0 else scale * m**-c for m in range(1, self.N)]
        return row


def _merge_compositions(keys: Sequence[Any], rows: _PowerRows, state: tuple | None = None) -> tuple:
    """The merged compositions of the path that ``state`` ends (the empty
    path when None), extended by keys: each key starts a new part or is
    added to the last part.

    The state is (K, groups): K sums the path's positive keys, and groups[j]
    holds the compositions with j merges, each as (sums, before, last, e):
    its strict sums at every bound, times L^K; those of its parts before
    the last one (None for the empty composition), times L^(K - e); its last
    part; and e, the sum of the positive keys added into that part, at
    least max(last, 0).  A new part k extends the sums by the row
    (k, max(k, 0)) of ``rows``, a merged last part c extends ``before`` by
    the row (c, e): each composition costs one pass over the entries m
    (``_strict_extension``), and none is summed again from the empty one."""
    K, groups = (0, [[([1] * rows.N, None, 0, 0)]]) if state is None else state
    for k in keys:
        if not _is_int(k):
            raise DomainError(f"merge expansion keys must be integers, got {k!r}")
        positive = k if k > 0 else 0
        row = rows[k, positive]
        extended: list[list] = [[] for _ in range(len(groups) + 1)]
        for new_part, merged, group in zip(extended, extended[1:], groups):
            for sums, before, last, e in group:
                new_part.append((_strict_extension(sums, row), sums, k, positive))
                if before is not None:
                    last, e = last + k, e + positive
                    merged.append((_strict_extension(before, rows[last, e]), before, last, e))
        if not extended[-1]:  # the empty path has nothing to merge into
            extended.pop()
        K, groups = K + positive, extended
    return K, groups


def _strict_extension(sums: list[int], row: list[int]) -> list[int]:
    """The strict sums by bound n = 1..N of a composition extended by one
    part, from the composition's own sums by bound and the part's row: a
    chain below n that ends at m extends one of the composition's chains
    below m, so the n-th sum is that of sums[m - 1] * row[m - 1] over m < n."""
    return [0, *accumulate(map(mul, sums, row))]


def _merge_expansion(state: tuple, L: int) -> tuple[list[list[int]], int]:
    """The merge expansion at every bound n = 1..N of the compositions
    (K, groups) of ``_merge_compositions``: per bound, each group's sum by
    number of merges, as trimmed integer coefficient lists over their
    common denominator L^K.  No division."""
    K, groups = state
    totals = [map(sum, zip(*[composition[0] for composition in group])) for group in groups]
    return [_trimmed(list(coeffs)) for coeffs in zip(*totals)], L**K


def _route_walk(levels: Sequence[Sequence[Any]], N: int, cmap: CoefficientMap):
    """Depth first over the trie of key tuples whose i-th key is drawn from
    levels[i], each node before its children and the children in the
    levels' order: yields (keys, D, D', by_bound) per node.  by_bound[n - 1]
    holds the routes linear_value, linear_value_by_recursion and
    merge_expansion at the bound n = 1..N, each as trimmed integer
    coefficients by ascending power of t, the first two over D, the third
    over D'.  The prefix DP and the recursion run over one integer form at
    L = lcm(1..N-1), so D = L^K; the merge expansion takes its own L and K,
    so D' is its L^K.  Nothing is divided: the caller compares numerators.

    Each route extends its parent node's state by the node's one key, so
    every prefix is walked once, and only the current path's states are
    held.  Every key is checked before any route runs.

    The prefix DP and the recursion pack their states at one slot width b
    for the whole walk (``_slot_bits`` over the levels) and are decoded
    before the sweep compares them with the merge route, which is not
    packed: a slot too narrow cannot make them agree with it."""
    for level in levels:
        for k in level:
            if not _is_int(k):
                raise DomainError(f"linear-value keys must be integers, got {k!r}")
    form = _integer_form(cmap, N - 1, [k for level in levels for k in level])
    if form is None:
        raise ValueError(f"the route walk needs a map with an integer form, not {cmap.name}")
    imap, L = form
    b = _slot_bits(levels, N, imap)
    rows = _PowerRows(N)

    depth = len(levels)
    stack = [((), 0, (None, None, None))]  # (keys, K, the parent node's states)
    while stack:
        keys, K, parent = stack.pop()
        new = keys[-1:]
        dp, recursion, compositions = states = (
            _linear_value_prefixes(new, N, imap, b, parent[0])[1],
            _linear_value_by_recursion(new, N, imap, b, parent[1]),
            _merge_compositions(new, rows, parent[2]),
        )
        merged, merge_denominator = _merge_expansion(compositions, rows.L)
        # Equal packed values decode to equal lists.
        peeled = [_decoded(value, b) for value in recursion[1][-1]]
        direct = peeled if dp[1] == recursion[1][-1] else [_decoded(value, b) for value in dp[1]]
        yield keys, L**K, merge_denominator, list(zip(direct, peeled, merged))
        if len(keys) < depth:
            stack += [(keys + (k,), K + max(k, 0), states) for k in reversed(levels[len(keys)])]
