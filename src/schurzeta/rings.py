"""Exact ring arithmetic: rationals, polynomials in t, truncated q-series,
and sparse integer monomial polynomials.

Every value is immutable and every operation is pure, so all of this is safe
to use from concurrent code without locking.  Concrete representations:

* rationals -- ``fractions.Fraction`` (always normalized, exact equality)
* ``TPoly`` -- dense tuple of coefficients by ascending degree in ``t``,
  trailing zeros trimmed; the coefficients live in any ring below
* ``QSeries`` -- rational coefficients of q^0 .. q^(order-1), each an
  ``int`` when integral and a normalized ``Fraction`` otherwise; all
  arithmetic is performed modulo q^order
* ``MonomialPolynomial`` -- sparse integer combination of monomials in
  countably many variables x_1, x_2, ...: a dict from packed monomials to
  nonzero ``int`` coefficients, where a packed monomial is one ``int``
  holding the exponent of x_v in the 64-bit field at bit offset
  64 * (v - 1), so that a product of monomials is one integer addition.
  Exponents stop at 2^64 - 1: a product in which some variable's exponent
  would pass that raises ``DomainError``.  The keys are decoded to sorted
  (variable, exponent) tuples only at the edges: ``terms``, ``to_json``
  and ``repr``

A ``Ring`` is one record: a name, a zero and a one, which is all that
generic algorithms (polynomial arithmetic, division-free determinants) need
to run over any of these rings.  Rings compare and hash by name.  Elements
themselves are plain Python values supporting ``+``, ``-``, ``*`` and
``==``, multiply by an ``int``, and are zero exactly when false.

Rationals are mostly not summed as ``Fraction``s: rational values are
expanded over integer numerators, in a private ring of plain ``int``s, and
kept undivided over their common denominator as a ``ScaledPoly``.  Rational
sides are compared undivided -- by their numerators when the denominators
agree, by cross-multiplication otherwise -- and rendered from the
numerators (``format_numerators``); only the public API divides, once, into
a ``TPoly`` of ``Fraction``s.

Determinants are taken by one of two routes.  Over the rationals a matrix
has one format, (rows, D): a row is a list of integer coefficient lists
(ascending powers of t, trimmed), all over one denominator, and D is the
product of the row denominators.  ``_scaled_determinant`` sends it to
fraction-free (Bareiss) elimination over Z[t], with exact polynomial
division, in O(n^3) polynomial operations, and the determinant is the
result over D.  Every other matrix goes to the division-free Laplace
expansion, memoised on the unused columns, O(2^n * n) products
(``_laplace``), over whatever elements it holds: ``TPoly``s of the ring
(D = 1), which is also the tests' oracle for the elimination, or a q-series
map's masked residue lists (``values._form_determinant``), decoded once.
Quasi-symmetric matrices on tagged keys take the same expansion with each
minor held as one dict per power of t (``values._tagged_laplace``).  The
matrix builders (``jacobi_trudi._h_matrix``, ``lattice._scaled_path_matrix``)
write the rational format straight from one evaluator run over the
rational map's integer form.  Rational coefficient lists are converted into
it by ``_integer_numerators`` only in the public ``ring_determinant`` and
for a rational map with no integer form.

``QSeries`` and ``MonomialPolynomial`` normalize in their public
constructors only: a series converts each coefficient through ``Fraction``
and stores the integral ones as ``int``; a polynomial validates every key
and coefficient (``int`` only), packs the keys, merges repeated keys and
drops zero coefficients.  Their operators build results through a private
trusted constructor that skips all of that: series operators only turn the
integral ``Fraction``s that ``Fraction`` arithmetic returns back into
``int``s, and polynomial operators add packed keys, drop coefficients
where they cancel and carry forward a bound on the exponents.  Values of
the q-analogue map have integer coefficients, so their arithmetic builds
no ``Fraction``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Iterable, Sequence

from .errors import DomainError, NonInvertibleError

# Ring elements are duck-typed: Fraction, QSeries, MonomialPolynomial or TPoly.
Element = Any


def format_rational(x: Fraction) -> str:
    """Render a rational as ``"num/den"``, omitting a denominator of 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _trimmed(coeffs: Sequence) -> Sequence:
    """coeffs without trailing zeros, as ``TPoly`` trims them; a list copy
    only when it has some."""
    if coeffs and not coeffs[-1]:
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    return coeffs


def format_numerators(numerators: Sequence[int], denominator: int) -> list[str]:
    """The JSON of ``TPoly(QQ, [Fraction(c, denominator) for c in
    numerators])``, each c reduced by its gcd with the denominator (>= 1),
    with no ``Fraction`` built.  The numerators must already be trimmed
    (no trailing zero), as every caller's are: ``TPoly`` coefficients, the
    packed routes' decoded digits and the merge expansion's lists."""
    out = []
    for c in numerators:
        g = math.gcd(c, denominator)
        out.append(str(c // g) if g == denominator else f"{c // g}/{denominator // g}")
    return out


@dataclass(frozen=True)
class Ring:
    """A commutative ring: its name, which alone decides equality and the
    hash, and its shared constants zero and one."""

    name: str
    zero: Element = field(compare=False)
    one: Element = field(compare=False)


QQ = Ring("rational", Fraction(0), Fraction(1))

# Plain ``int`` elements: rational values and determinants are expanded over
# it and divided once at the end.
_ZZ = Ring("integer", 0, 1)


def _stored(coeffs: Iterable) -> tuple:
    """``QSeries`` coefficients in stored form: integral ``Fraction``s become
    their ``int`` numerators, everything else is kept as it is."""
    return tuple([c if type(c) is int or c.denominator != 1 else c.numerator for c in coeffs])


class QSeries:
    """Truncated power series in q with exact rational coefficients.

    The truncation order is fixed per value; mixing orders is an error.
    Coefficients are stored as ``int`` when integral and as normalized
    ``Fraction``s otherwise, so series with integer coefficients (every
    value of the q-analogue map) are summed and multiplied over ``int``s.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 1:
            raise ValueError("truncation order must be a positive integer")
        cs = [Fraction(c) for c in list(coeffs)[:order]]
        cs.extend([0] * (order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", _stored(cs))

    @classmethod
    def _make(cls, order: int, coeffs: Iterable) -> "QSeries":
        """Trusted constructor for results of series arithmetic: exactly
        ``order`` coefficients, each an ``int`` or a ``Fraction``.  Integral
        ``Fraction``s become ``int``s; nothing else is converted or checked."""
        series = object.__new__(cls)
        object.__setattr__(series, "order", order)
        object.__setattr__(series, "coeffs", _stored(coeffs))
        return series

    def __setattr__(self, *_):
        raise AttributeError("QSeries values are immutable")

    @classmethod
    def constant(cls, order: int, value) -> "QSeries":
        return cls(order, (value,))

    def _check(self, other: "QSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"q-series truncation orders differ: {self.order} vs {other.order}"
            )

    # Operators test for a series first: isinstance against Fraction goes
    # through the numbers ABCs, which costs more than the sum itself.
    def __add__(self, other):
        if not isinstance(other, QSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QSeries.constant(self.order, other)
        self._check(other)
        return QSeries._make(self.order, map(operator.add, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return QSeries._make(self.order, map(operator.neg, self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QSeries.constant(self.order, other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return QSeries._make(self.order, [a * other for a in self.coeffs])
        self._check(other)
        n = self.order
        theirs = other.coeffs
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(theirs[: n - i], i):
                if b:
                    out[j] += a * b
        return QSeries._make(n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("QSeries exponent must be a nonnegative integer")
        result = QSeries.constant(self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse modulo q^order; needs a unit constant term."""
        a = self.coeffs
        if a[0] == 0:
            raise NonInvertibleError("q-series with zero constant term has no inverse")
        inv0 = Fraction(1) / a[0]
        out = [inv0] + [Fraction(0)] * (self.order - 1)
        for n in range(1, self.order):
            s = Fraction(0)
            for k in range(1, n + 1):
                if a[k]:
                    s += a[k] * out[n - k]
            out[n] = -inv0 * s
        return QSeries(self.order, out)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [format_rational(c) for c in self.coeffs]}

    def __repr__(self):
        terms = [
            f"{format_rational(c)}*q^{i}" for i, c in enumerate(self.coeffs) if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"QSeries[{self.order}]({body})"


def q_integer(m: int, order: int) -> QSeries:
    """The q-analogue [m]_q = 1 + q + ... + q^(m-1), truncated at the order."""
    if m < 1:
        raise ValueError("q-analogue is defined for positive integers")
    return QSeries(order, [1] * min(m, order))


def QSeriesRing(order: int = 16) -> Ring:
    """Truncated rational power series in q at a fixed order."""
    return Ring(f"qseries:{order}", QSeries(order), QSeries.constant(order, 1))


@dataclass(frozen=True)
class PackedSeriesRing(Ring):
    """Integer series modulo q^order packed at q = 2^bits: an element is an
    ``int`` read modulo 2^(bits * order), the series' value at 2^bits.

    Z[q]/(q^order) -> Z/2^(bits * order), q -> 2^bits, is a ring map, since
    q^order goes to 2^(bits * order).  So a sum or product of packed series
    is the packed sum or product, each reduced by ``mask`` when wanted, and
    the reduction is the truncation.  ``encode`` packs a series of
    ``series`` with integer coefficients; ``decode`` reads a residue back
    into the one series whose coefficients all lie in -2^(bits-1) ..
    2^(bits-1) - 1 and whose packing it is.  ``offset`` holds 2^(bits-1)
    in every digit.
    """

    series: Ring = field(compare=False)
    order: int = field(compare=False)
    bits: int = field(compare=False)
    mask: int = field(compare=False)
    offset: int = field(compare=False)

    @staticmethod
    def of(series: Ring, bits: int) -> "PackedSeriesRing":
        """The packing of the q-series ring ``series`` at q = 2^bits."""
        order = series.zero.order
        mask = (1 << bits * order) - 1
        offset = mask // ((1 << bits) - 1) << (bits - 1)
        return PackedSeriesRing(f"{series.name}@2^{bits}", 0, 1, series, order, bits, mask, offset)

    def encode(self, value: QSeries) -> int:
        """The sum of c_j 2^(bits * j) over the (integer) coefficients c_j,
        reduced by the mask."""
        packed = 0
        for c in reversed(value.coeffs):
            packed = (packed << self.bits) + c
        return packed & self.mask

    def decode(self, residue: int) -> QSeries:
        """The series whose packing is residue, given every coefficient in
        -2^(bits-1) .. 2^(bits-1) - 1: the ``order`` signed digits of
        residue modulo 2^(bits * order) in base 2^bits, from the lowest.

        Those digits are unique: the order-tuples of digits in that range
        and the residues modulo 2^(bits * order) are equally many, and each
        tuple packs to its own residue.  Adding ``offset`` moves every digit
        d into 0 .. 2^bits - 1 with no carry, so each digit is one field of
        residue + offset modulo 2^(bits * order), less 2^(bits-1): the
        mask drops what carries out of the top field, like any multiple of
        2^(bits * order), and the top digit is all that is left above the
        others."""
        bits = self.bits
        slot = (1 << bits) - 1
        half = 1 << (bits - 1)
        top = bits * (self.order - 1)
        shifted = (residue + self.offset) & self.mask
        digits = [(shifted >> shift & slot) - half for shift in range(0, top, bits)]
        digits.append((shifted >> top) - half)
        series = object.__new__(QSeries)  # int digits: already in stored form
        object.__setattr__(series, "order", self.order)
        object.__setattr__(series, "coeffs", tuple(digits))
        return series


@dataclass(frozen=True)
class TaggedRing(Ring):
    """Single monomials as packed keys (``MonomialPolynomial``'s), with t
    tagged at bit ``shift``, above every field a key uses: an element is a
    key and a product of two is their sum, so one is key 0 and no key
    stands for zero.  A t-polynomial over it is one dict from tagged keys,
    a key plus d << shift for t^d, to counts (``values._Tagged``)."""

    shift: int = field(compare=False)

    @staticmethod
    def of(shift: int) -> "TaggedRing":
        return TaggedRing(f"monomial-keys@{shift}", None, 0, shift)


# Packed monomials: the exponent of x_v fills bits 64*(v-1) .. 64*v - 1.
_FIELD_BITS = 64
_EXPONENT_MAX = (1 << _FIELD_BITS) - 1


def _unpack(packed: int) -> tuple:
    """The sorted (variable, exponent) pairs of a packed monomial."""
    pairs = []
    v = 1
    while packed:
        e = packed & _EXPONENT_MAX
        if e:
            pairs.append((v, e))
        packed >>= _FIELD_BITS
        v += 1
    return tuple(pairs)


def _exponent_limit_error(bound: int) -> DomainError:
    return DomainError(f"monomial exponents could reach {bound}, past the limit 2^64 - 1")


def _field_maxima(terms: dict) -> list[int]:
    """The largest exponent of each variable x_1, x_2, ... over packed keys."""
    maxima: list[int] = []
    for key in terms:
        v = 0
        while key:
            e = key & _EXPONENT_MAX
            if v == len(maxima):
                maxima.append(e)
            elif e > maxima[v]:
                maxima[v] = e
            key >>= _FIELD_BITS
            v += 1
    return maxima


def _product_bound(a: dict, b: dict) -> int:
    """The largest exponent any product of a term of a and one of b can
    have, per variable the sum of the two largest; raises ``DomainError``
    when it passes 2^64 - 1, where it would carry into the next field."""
    bound = max(map(sum, zip_longest(_field_maxima(a), _field_maxima(b), fillvalue=0)), default=0)
    if bound > _EXPONENT_MAX:
        raise _exponent_limit_error(bound)
    return bound


class MonomialPolynomial:
    """Sparse integer polynomial in the variables x_1, x_2, ...

    ``terms`` maps a monomial key -- a sorted tuple of (variable index,
    exponent) pairs, both positive, one per variable -- to a nonzero integer
    coefficient; the constant term uses the empty key ().  The constructor
    takes terms in that form, with ``int`` indices, exponents and
    coefficients only, and merges a variable repeated within a key by
    summing its exponents.

    Inside, each monomial is packed into one ``int`` with a 64-bit exponent
    field per variable, and ``terms`` decodes the packed keys on every read.
    Every value carries an upper bound on its exponents (``+`` and ``-``
    take the larger bound, ``*`` the sum).  When a product's summed bound
    passes 2^64 - 1, the exact largest exponent of each variable in the
    two factors is read instead, and the product raises ``DomainError``
    only if some variable's two maxima add up past 2^64 - 1, where it would
    carry into the next variable's field; so x_1^(2^63) * x_2^(2^63) is
    computed and x_1^(2^63) * x_1^(2^63) is refused.  A constructor call
    with an exponent past 2^64 - 1 raises too.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms=None):
        clean: dict = {}
        bound = 0
        for key, coeff in dict(terms or {}).items():
            if type(coeff) is not int:
                raise ValueError(f"monomial coefficients must be ints, got {coeff!r}")
            exponents: dict[int, int] = {}
            for v, e in key:
                if type(v) is not int or type(e) is not int or v < 1 or e < 1:
                    raise ValueError(
                        "monomial needs positive int variable indices and exponents, "
                        f"got {(v, e)!r}"
                    )
                exponents[v] = exponents.get(v, 0) + e
            packed = 0
            for v, e in exponents.items():
                if e > _EXPONENT_MAX:
                    raise _exponent_limit_error(e)
                bound = max(bound, e)
                packed += e << (_FIELD_BITS * (v - 1))
            clean[packed] = clean.get(packed, 0) + coeff
        object.__setattr__(self, "_terms", {k: c for k, c in clean.items() if c})
        object.__setattr__(self, "_bound", bound)

    @classmethod
    def _make(cls, terms: dict, bound: int) -> "MonomialPolynomial":
        """Trusted constructor for results of polynomial arithmetic: packed
        keys, nonzero ``int`` coefficients and a bound at most 2^64 - 1 on
        every exponent; nothing is converted or checked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_bound", bound)
        return poly

    def __setattr__(self, *_):
        raise AttributeError("MonomialPolynomial values are immutable")

    @property
    def terms(self) -> dict:
        """A fresh dict from sorted (variable, exponent) key tuples to the
        nonzero coefficients."""
        return {_unpack(k): c for k, c in self._terms.items()}

    @classmethod
    def constant(cls, n: int) -> "MonomialPolynomial":
        return cls({(): n} if n else {})

    @classmethod
    def variable_power(cls, var: int, exp: int) -> "MonomialPolynomial":
        """The single monomial x_var^exp."""
        return cls({((var, exp),): 1})

    def __add__(self, other):
        if not isinstance(other, MonomialPolynomial):
            if not isinstance(other, int):
                return NotImplemented
            other = MonomialPolynomial.constant(int(other))
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for key, coeff in small.items():
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                del out[key]
        bound = self._bound if self._bound > other._bound else other._bound
        return MonomialPolynomial._make(out, bound)

    __radd__ = __add__

    def __neg__(self):
        return MonomialPolynomial._make({k: -c for k, c in self._terms.items()}, self._bound)

    def __sub__(self, other):
        if not isinstance(other, MonomialPolynomial):
            if not isinstance(other, int):
                return NotImplemented
            other = MonomialPolynomial.constant(int(other))
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            total = out.get(key, 0) - coeff
            if total:
                out[key] = total
            else:
                del out[key]
        bound = self._bound if self._bound > other._bound else other._bound
        return MonomialPolynomial._make(out, bound)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, MonomialPolynomial):
            if not isinstance(other, int):
                return NotImplemented
            if other == 0:
                return MonomialPolynomial._make({}, 0)
            return MonomialPolynomial._make(
                {k: c * other for k, c in self._terms.items()}, self._bound
            )
        bound = self._bound + other._bound
        if bound > _EXPONENT_MAX:
            bound = _product_bound(self._terms, other._terms)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # Times one monomial: distinct keys stay distinct, and products
            # of nonzero ints are nonzero, so nothing merges or cancels.
            ((k0, c0),) = a.items()
            return MonomialPolynomial._make({k + k0: c * c0 for k, c in b.items()}, bound)
        out: dict = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        return MonomialPolynomial._make({k: c for k, c in out.items() if c}, bound)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MonomialPolynomial):
            if not isinstance(other, int):
                return NotImplemented
            other = MonomialPolynomial.constant(int(other))
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def to_json(self) -> list:
        return [
            {"powers": [[v, e] for v, e in key], "coeff": coeff}
            for key, coeff in sorted(self.terms.items())
        ]

    def __repr__(self):
        if not self._terms:
            return "MonomialPolynomial(0)"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            mono = "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in key)
            parts.append(f"{coeff}*{mono}" if mono else str(coeff))
        return "MonomialPolynomial(" + " + ".join(parts) + ")"


class PackedTerms:
    """The tagged form of the Schur walk over single-monomial maps.

    A walk state is one dict from tagged keys to positive ``int`` counts.
    A tagged key is a packed monomial plus v in the 64-bit field at bit
    ``shift`` and h in the field above it, and stands for t^v (1-t)^h times
    the monomial; ``shift`` is 64 times the number of fields that any key
    of ``keys`` uses.  ``keys[j][i]`` is the packed key of
    f(label_i, j + 1), and ``bound`` the X that ``weights`` proves.
    ``weights`` decides whether a walk may use this form.
    """

    __slots__ = ("keys", "bound", "shift")

    def __init__(self, keys: list[list[int]], bound: int, shift: int):
        self.keys, self.bound, self.shift = keys, bound, shift

    @staticmethod
    def weights(rows: Sequence[Sequence[Element]]) -> "PackedTerms | None":
        """The tagged form of a walk over rows[j][i] = f(label_i, j + 1),
        when there are entries, each is one monomial with coefficient 1 and
        X <= 2^64 - 1; None otherwise.  X is the sum over columns of each
        column's largest exponent bound, so no sum of keys carries from one
        field into the next, nor into the tags."""
        if not rows or not rows[0]:
            return None
        column_max = [0] * len(rows[0])
        keys = []
        top = 0
        for row in rows:
            key_row = []
            for i, p in enumerate(row):
                if type(p) is not MonomialPolynomial or len(p._terms) != 1:
                    return None
                ((key, c),) = p._terms.items()
                if c != 1:
                    return None
                key_row.append(key)
                top |= key
                if p._bound > column_max[i]:
                    column_max[i] = p._bound
            keys.append(key_row)
        bound = sum(column_max)
        if bound > _EXPONENT_MAX:
            return None
        fields = -(-top.bit_length() // _FIELD_BITS)
        return PackedTerms(keys, bound, _FIELD_BITS * fields)

    def tag(self, v: int, h: int) -> int:
        """The key of t^v (1-t)^h: added to a key, it multiplies by that."""
        return (v << self.shift) + (h << (self.shift + _FIELD_BITS))

    def coefficients(self, terms: dict) -> list["MonomialPolynomial"]:
        """The coefficients by power of t of a state, each with exponent
        bound X: each key's t^v (1-t)^h is expanded into its terms, by a
        plan of (coefficient dict, signed binomial) made once per (v, h),
        and cancelled terms are dropped as they appear."""
        shift = self.shift
        mask = (1 << shift) - 1
        powers: list[dict] = []
        plans: dict[int, list] = {}
        for key, c in terms.items():
            tags = key >> shift
            plan = plans.get(tags)
            if plan is None:
                v, h = tags & _EXPONENT_MAX, tags >> _FIELD_BITS
                powers += [{} for _ in range(v + h + 1 - len(powers))]
                plan = plans[tags] = [
                    (powers[v + i], -math.comb(h, i) if i & 1 else math.comb(h, i))
                    for i in range(h + 1)
                ]
            monomial = key & mask
            for at, scale in plan:
                total = at.get(monomial, 0) + c * scale
                if total:
                    at[monomial] = total
                else:
                    del at[monomial]
        return [MonomialPolynomial._make(at, self.bound) for at in powers]


def QsymRing() -> Ring:
    """Integer combinations of monomials in x_1, x_2, ..."""
    return Ring("qsym", MonomialPolynomial(), MonomialPolynomial.constant(1))


class TPoly:
    """Dense polynomial in the interpolation variable t over a base ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Iterable[Element] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("TPoly values are immutable")

    @classmethod
    def zero(cls, ring: Ring) -> "TPoly":
        return cls(ring)

    @classmethod
    def one(cls, ring: Ring) -> "TPoly":
        return cls(ring, (ring.one,))

    @classmethod
    def monomial(cls, ring: Ring, coeff: Element, degree: int) -> "TPoly":
        return cls(ring, [ring.zero] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Element:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other: "TPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"mixed coefficient rings: {self.ring.name} vs {other.ring.name}")

    def __add__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        self._check(other)
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for i, c in enumerate(shorter):
            out[i] = out[i] + c
        return TPoly(self.ring, out)

    def __neg__(self):
        return TPoly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        self._check(other)
        ring = self.ring
        if not self.coeffs or not other.coeffs:
            return TPoly(ring)
        out = [ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, start=i):
                if b:
                    out[j] = out[j] + a * b
        return TPoly(ring, out)

    __rmul__ = __mul__

    def scale(self, value: Element) -> "TPoly":
        """Multiply every coefficient by a base-ring element."""
        return TPoly(self.ring, [c * value for c in self.coeffs])

    def subs_one_minus_t(self) -> "TPoly":
        """The polynomial p(1-t); an involution."""
        out = list(self.coeffs)
        n = len(out)
        # p(1 + t) by repeated synthetic division by t - 1, then t -> -t.
        for k in range(n - 1):
            for j in range(n - 2, k - 1, -1):
                c = out[j + 1]
                if c:
                    out[j] = out[j] + c
        return TPoly(self.ring, [c if k % 2 == 0 or not c else -c for k, c in enumerate(out)])

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def to_json(self) -> list:
        return [element_to_json(c) for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
            return "TPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = format_rational(c) if isinstance(c, Fraction) else repr(c)
            terms.append(cs if i == 0 else f"({cs})*t^{i}")
        return "TPoly(" + " + ".join(terms) + ")"


def PolyRing(base: Ring) -> Ring:
    """Polynomials in t over a base ring, itself a commutative ring."""
    return Ring(f"poly[{base.name}]", TPoly.zero(base), TPoly.one(base))


def element_to_json(x: Element):
    """Serialize a ring element: rationals as "num/den" strings, the rest
    via their own to_json."""
    if isinstance(x, Fraction):
        return format_rational(x)
    return x.to_json()


class ScaledPoly:
    """A t-polynomial p / D kept undivided: p over the integers (``_ZZ``)
    with D >= 1, the numerators of a rational value, or p over any other
    ring with D = 1.

    Two values compare as the rationals they stand for: by their
    coefficients when D agrees, by cross-multiplication otherwise.
    ``to_json`` renders the divided value exactly as ``TPoly.to_json``
    does, with no ``Fraction`` built, and ``divided`` returns it as a
    ``TPoly`` over the rationals (or p itself over another ring).
    """

    __slots__ = ("poly", "denominator")

    def __init__(self, poly: TPoly, denominator: int = 1):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, *_):
        raise AttributeError("ScaledPoly values are immutable")

    def __eq__(self, other):
        if not isinstance(other, ScaledPoly):
            return NotImplemented
        return _same_value(self.poly.coeffs, self.denominator, other.poly.coeffs, other.denominator)

    def subs_one_minus_t(self) -> "ScaledPoly":
        """p(1-t) / D, substituted on the numerators."""
        return ScaledPoly(self.poly.subs_one_minus_t(), self.denominator)

    def divided(self) -> TPoly:
        if self.poly.ring is _ZZ:
            return TPoly(QQ, [Fraction(c, self.denominator) for c in self.poly.coeffs])
        return self.poly

    def to_json(self) -> list:
        if self.poly.ring is _ZZ:
            return format_numerators(self.poly.coeffs, self.denominator)
        return self.poly.to_json()

    def __repr__(self):
        return f"ScaledPoly({self.poly!r}, {self.denominator})"


def _same_value(a: Sequence, d: int, b: Sequence, e: int) -> bool:
    """Whether the (numerators, denominator) pairs (a, d) and (b, e), trimmed
    coefficient lists, stand for the same t-polynomial: equal lists when
    the denominators agree, else equal cross-products a * e == b * d."""
    if d == e:
        return a == b
    return len(a) == len(b) and all(x * e == y * d for x, y in zip(a, b))


def ring_determinant(matrix: Sequence[Sequence[Element]], ring: Ring) -> Element:
    """Determinant of a square matrix over one of the package's rings.

    Over t-polynomials with rational coefficients each row is scaled to
    integer numerators over one denominator (``_integer_numerators``), the
    determinant is taken by ``_scaled_determinant``'s fraction-free
    elimination over Z[t], and the result is divided once.  The identity
    checks build their matrices in that row format directly and compare the
    result undivided; only this adapter converts entries and divides.  Every
    other ring -- truncated q-series are not an integral domain, and qsym
    would need multivariate exact division -- goes through the
    division-free Laplace expansion (``_laplace``: O(2^n * n) ring
    operations), which also serves as the tests' oracle for the rational
    route.  The 0x0 determinant is one.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if ring != PolyRing(QQ):
        return _laplace(matrix, ring)
    rows = _integer_numerators([[p.coeffs for p in row] for row in matrix])
    return _scaled_determinant(rows, QQ).divided()


def _scaled_determinant(matrix: tuple[list, int], ring: Ring) -> ScaledPoly:
    """The determinant, undivided, of a square matrix (rows, D) whose values
    lie over ``ring``, in the format of the module docstring.

    Over the rationals the rows of integer coefficient lists go to
    fraction-free elimination (``_bareiss``), which consumes them, and the
    determinant is the result over D.  Over any other ring D is 1 and the
    rows of ``TPoly``s go to the Laplace expansion over t-polynomials.
    """
    rows, denominator = matrix
    if ring == QQ:
        return ScaledPoly(TPoly(_ZZ, _bareiss(rows)), denominator)
    return ScaledPoly(_laplace(rows, PolyRing(ring)))


def _integer_numerators(matrix: Sequence[Sequence[Sequence]]) -> tuple[list, int]:
    """A matrix of trimmed rational coefficient lists (``Fraction`` or
    ``int``) in the determinant format: each row times the lcm of its
    coefficients' denominators, and D the product of those lcms."""
    rows = []
    denominator = 1
    for row in matrix:
        scale = math.lcm(*(c.denominator for coeffs in row for c in coeffs))
        denominator *= scale
        rows.append([[c.numerator * (scale // c.denominator) for c in coeffs] for coeffs in row])
    return rows, denominator


# Integer polynomials inside ``_bareiss`` are plain lists of ``int``
# coefficients by ascending degree, with no trailing zero; zero is [].


def _poly_mul(a: list, b: list) -> list:
    """Product of two nonzero integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _poly_sub(a: list, b: list) -> list:
    """Difference of two integer polynomials, trimmed."""
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer polynomials with b nonzero, by long division;
    raises ArithmeticError unless b divides a exactly in Z[t]."""
    db = len(b) - 1
    lead = b[db]
    rem = list(a)
    quotient = [0] * max(len(a) - db, 0)
    for i in reversed(range(len(quotient))):
        # Each step leaves its remainder in the top coefficient it cleared.
        quotient[i], rem[i + db] = divmod(rem[i + db], lead)
        for j in range(db):
            rem[i + j] -= quotient[i] * b[j]
    if any(rem):
        raise ArithmeticError("inexact division in fraction-free elimination")
    return quotient


def _bareiss(a: list) -> list:
    """Determinant of a square matrix over Z[t] by fraction-free elimination
    (Bareiss 1968); the matrix, rows of integer polynomials, is overwritten.

    Step k replaces each entry a_ij below and right of the pivot p = a_kk by
    (p * a_ij - a_ik * a_kj) / (the previous pivot), a division that is
    exact in Z[t] (the entries are minors of the matrix); a nonzero
    remainder raises.  Coefficient growth decides the cost, so the integer
    content of every row and then every column is taken out first (a row or
    column of content 1 is left as it is) and multiplied back at the end,
    and the pivot is the remaining entry of column k with the lowest
    degree, then the fewest coefficient bits.  A column with no nonzero
    entry left makes the determinant zero.
    """
    n = len(a)
    factor = 1
    for row in a:
        g = math.gcd(*(c for p in row for c in p))
        if not g:
            return []
        if g != 1:
            factor *= g
            row[:] = [[c // g for c in p] for p in row]
    for j in range(n):
        g = math.gcd(*(c for row in a for c in row[j]))
        if not g:
            return []
        if g != 1:
            factor *= g
            for row in a:
                row[j] = [c // g for c in row[j]]
    previous = [1]
    for k in range(n):
        candidates = [i for i in range(k, n) if a[i][k]]
        if not candidates:
            return []
        best = min(
            candidates, key=lambda i: (len(a[i][k]), max(map(abs, a[i][k])).bit_length())
        )
        if best != k:
            a[k], a[best] = a[best], a[k]
            factor = -factor
        pivot_row = a[k]
        p = pivot_row[k]
        divide = previous != [1]  # as at the first step
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                entry = _poly_mul(p, row[j]) if row[j] else []
                if lead and pivot_row[j]:
                    entry = _poly_sub(entry, _poly_mul(lead, pivot_row[j]))
                row[j] = _exact_quotient(entry, previous) if divide else entry
        previous = p
    return [c * factor for c in a[n - 1][n - 1]] if n else [1]


def _laplace(matrix: Sequence[Sequence[Element]], ring: Ring) -> Element:
    """Laplace expansion of a square matrix, memoized on the unused columns:
    each minor on the last k rows is computed once, as the signed sum over
    its columns of an entry times a minor on k - 1 rows, and the minors on
    the last row are its entries.  The entries need +, unary -, * and truth
    (false for zero); ring gives zero and one."""
    n = len(matrix)
    zero = ring.zero
    # Each nonzero entry with and without its sign flipped, so no term is
    # negated; None for a zero entry, which no term multiplies.
    signed_rows = [[(entry, -entry) if entry else None for entry in row] for row in matrix]
    memo: dict = {1 << j: entry for j, entry in enumerate(matrix[-1])} if n else {}
    memo[0] = ring.one

    def expand(cols: int) -> Element:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        # The row to expand along is determined by how many columns remain.
        row = signed_rows[n - cols.bit_count()]
        acc = None
        flip = 0
        for j in range(n):
            bit = 1 << j
            if not cols & bit:
                continue
            signed = row[j]
            if signed is not None:
                term = signed[flip] * expand(cols ^ bit)
                acc = term if acc is None else acc + term
            # Sign alternates over the remaining columns only.
            flip ^= 1
        memo[cols] = acc = zero if acc is None else acc
        return acc

    return expand((1 << n) - 1)
