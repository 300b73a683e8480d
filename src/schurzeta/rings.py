"""Exact ring arithmetic: rationals, polynomials in t, truncated q-series,
and sparse integer monomial polynomials.

Every value is immutable and every operation is pure, so all of this is safe
to use from concurrent code without locking.  Concrete representations:

* rationals -- ``fractions.Fraction`` (always normalized, exact equality)
* ``TPoly`` -- dense tuple of coefficients by ascending degree in ``t``,
  trailing zeros trimmed; the coefficients live in any ring below
* ``QSeries`` -- rational coefficients of q^0 .. q^(order-1); all arithmetic
  is performed modulo q^order
* ``MonomialPolynomial`` -- sparse integer combination of monomials in
  countably many variables x_1, x_2, ...

A ``Ring`` object bundles the constants and element operations of a
commutative ring so that generic algorithms (polynomial arithmetic,
division-free determinants) can run over any of them.  Elements themselves
are plain Python values supporting ``+``, ``-``, ``*`` and ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .errors import NonInvertibleError

# Ring elements are duck-typed: Fraction, QSeries, MonomialPolynomial or TPoly.
Element = Any


def format_rational(x: Fraction) -> str:
    """Render a rational as ``"num/den"``, omitting a denominator of 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` into an exact rational."""
    return Fraction(str(text))


class Ring:
    """Commutative ring contract: constants plus element operations."""

    @property
    def name(self) -> str:
        raise NotImplementedError

    @property
    def zero(self) -> Element:
        raise NotImplementedError

    @property
    def one(self) -> Element:
        raise NotImplementedError

    def from_int(self, n: int) -> Element:
        raise NotImplementedError

    def add(self, a: Element, b: Element) -> Element:
        return a + b

    def sub(self, a: Element, b: Element) -> Element:
        return a - b

    def neg(self, a: Element) -> Element:
        return -a

    def mul(self, a: Element, b: Element) -> Element:
        return a * b

    def eq(self, a: Element, b: Element) -> bool:
        return a == b

    def is_zero(self, a: Element) -> bool:
        return a == self.zero

    # Exact division is optional; rings that support it override div().
    supports_division = False

    def div(self, a: Element, b: Element) -> Element:
        raise NotImplementedError(f"{self.name} does not support exact division")


@dataclass(frozen=True)
class RationalRing(Ring):
    """The field of exact rationals, elements are fractions.Fraction."""

    supports_division = True

    @property
    def name(self) -> str:
        return "rational"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return Fraction(a) / b


QQ = RationalRing()


@dataclass(frozen=True)
class _IntegerRing(Ring):
    """Plain ``int`` elements: the rational determinant expands over it."""

    @property
    def name(self) -> str:
        return "integer"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n


_ZZ = _IntegerRing()


class QSeries:
    """Truncated power series in q with exact rational coefficients.

    The truncation order is fixed per value; mixing orders is an error.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 1:
            raise ValueError("truncation order must be a positive integer")
        cs = [Fraction(c) for c in list(coeffs)[:order]]
        cs.extend([Fraction(0)] * (order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(self.order, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        return QSeries(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.order, (-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(self.order, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(self.order, (a * other for a in self.coeffs))
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return QSeries(n, out)

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


def qseries_invert(s: QSeries) -> QSeries:
    """Inverse of a truncated q-series (unit constant term required)."""
    return s.inverse()


@dataclass(frozen=True)
class QSeriesRing(Ring):
    """Truncated rational power series in q at a fixed order."""

    order: int = 16

    supports_division = True

    @property
    def name(self) -> str:
        return f"qseries:{self.order}"

    @property
    def zero(self) -> QSeries:
        return QSeries(self.order)

    @property
    def one(self) -> QSeries:
        return QSeries.constant(self.order, 1)

    def from_int(self, n: int) -> QSeries:
        return QSeries.constant(self.order, n)

    def div(self, a: QSeries, b: QSeries) -> QSeries:
        return a * b.inverse()


class MonomialPolynomial:
    """Sparse integer polynomial in the variables x_1, x_2, ...

    Terms map a monomial key -- a sorted tuple of (variable index, exponent)
    pairs, both positive -- to a nonzero integer coefficient.  The constant
    term uses the empty key ().
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        for key, coeff in dict(terms or {}).items():
            coeff = int(coeff)
            if coeff == 0:
                continue
            norm = tuple(sorted((int(v), int(e)) for v, e in key))
            for v, e in norm:
                if v < 1 or e < 1:
                    raise ValueError("monomial needs positive variable indices and exponents")
            clean[norm] = clean.get(norm, 0) + coeff
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c})

    def __setattr__(self, *_):
        raise AttributeError("MonomialPolynomial values are immutable")

    @classmethod
    def constant(cls, n: int) -> "MonomialPolynomial":
        return cls({(): n} if n else {})

    @classmethod
    def variable_power(cls, var: int, exp: int) -> "MonomialPolynomial":
        """The single monomial x_var^exp."""
        return cls({((var, exp),): 1})

    def __add__(self, other):
        if isinstance(other, int):
            other = MonomialPolynomial.constant(other)
        if not isinstance(other, MonomialPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return MonomialPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return MonomialPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MonomialPolynomial.constant(other)
        if not isinstance(other, MonomialPolynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    @staticmethod
    def _merge_keys(k1, k2):
        exps = dict(k1)
        for v, e in k2:
            exps[v] = exps.get(v, 0) + e
        return tuple(sorted(exps.items()))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MonomialPolynomial()
            return MonomialPolynomial({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, MonomialPolynomial):
            return NotImplemented
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = self._merge_keys(k1, k2)
                out[key] = out.get(key, 0) + c1 * c2
        return MonomialPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = MonomialPolynomial.constant(other)
        if not isinstance(other, MonomialPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def to_json(self) -> list:
        return [
            {"powers": [[v, e] for v, e in key], "coeff": coeff}
            for key, coeff in sorted(self.terms.items())
        ]

    def __repr__(self):
        if not self.terms:
            return "MonomialPolynomial(0)"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            mono = "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in key)
            parts.append(f"{coeff}*{mono}" if mono else str(coeff))
        return "MonomialPolynomial(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class QsymRing(Ring):
    """Integer combinations of monomials in x_1, x_2, ..."""

    @property
    def name(self) -> str:
        return "qsym"

    @property
    def zero(self) -> MonomialPolynomial:
        return MonomialPolynomial()

    @property
    def one(self) -> MonomialPolynomial:
        return MonomialPolynomial.constant(1)

    def from_int(self, n: int) -> MonomialPolynomial:
        return MonomialPolynomial.constant(n)


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
    def constant(cls, ring: Ring, value: Element) -> "TPoly":
        return cls(ring, (value,))

    @classmethod
    def variable(cls, ring: Ring) -> "TPoly":
        """The polynomial t."""
        return cls(ring, (ring.zero, ring.one))

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
        ring = self.ring
        if isinstance(other, int):
            return self.scale(ring.from_int(other))
        if not isinstance(other, TPoly):
            return NotImplemented
        self._check(other)
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

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("TPoly exponent must be a nonnegative integer")
        result = TPoly.one(self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, value: Element) -> "TPoly":
        """Multiply every coefficient by a base-ring element."""
        return TPoly(self.ring, [c * value for c in self.coeffs])

    def shifted(self, k: int) -> "TPoly":
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return TPoly(self.ring, (self.ring.zero,) * k + self.coeffs)

    def evaluate(self, value: Element) -> Element:
        """Evaluate at a base-ring element (Horner)."""
        ring = self.ring
        acc = ring.zero
        for c in reversed(self.coeffs):
            acc = ring.add(ring.mul(acc, value), c)
        return acc

    def subs_one_minus_t(self) -> "TPoly":
        """The polynomial p(1-t); an involution."""
        ring = self.ring
        n = len(self.coeffs)
        out = []
        for k in range(n):
            s = ring.zero
            for m in range(k, n):
                c = self.coeffs[m]
                if not ring.is_zero(c):
                    s = ring.add(s, ring.mul(c, ring.from_int(math.comb(m, k))))
            out.append(s if k % 2 == 0 else ring.neg(s))
        return TPoly(ring, out)

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
            if self.ring.is_zero(c):
                continue
            cs = format_rational(c) if isinstance(c, Fraction) else repr(c)
            terms.append(cs if i == 0 else f"({cs})*t^{i}")
        return "TPoly(" + " + ".join(terms) + ")"


def tpoly_substitute_one_minus_t(p: TPoly) -> TPoly:
    """Substitute t -> 1-t in a polynomial."""
    return p.subs_one_minus_t()


@dataclass(frozen=True)
class PolyRing(Ring):
    """Polynomials in t over a base ring, itself a commutative ring."""

    base: Ring

    @property
    def name(self) -> str:
        return f"poly[{self.base.name}]"

    @property
    def zero(self) -> TPoly:
        return TPoly.zero(self.base)

    @property
    def one(self) -> TPoly:
        return TPoly.one(self.base)

    def from_int(self, n: int) -> TPoly:
        return TPoly.constant(self.base, self.base.from_int(n))


def element_to_json(x: Element):
    """Serialize a ring element: rationals as "num/den" strings, the rest
    via their own to_json."""
    if isinstance(x, Fraction):
        return format_rational(x)
    return x.to_json()


def ring_determinant(matrix: Sequence[Sequence[Element]], ring: Ring) -> Element:
    """Determinant over any commutative ring, computed without division.

    Laplace expansion along rows, memoized on the set of still-unused
    columns: O(2^n * n) ring operations, free of any divisibility
    assumption on the ring.  Over t-polynomials with rational coefficients
    each row is first scaled by the lcm of its coefficient denominators, the
    expansion runs over integer coefficients, and the result is divided once
    by the product of the row scales; this keeps ``Fraction`` normalization
    out of the expansion, which puts palindromic windows of n = 11 well
    under a second.  The 0x0 determinant is one.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if ring != PolyRing(QQ):
        return _laplace(matrix, ring)
    scaled = []
    denominator = 1
    for row in matrix:
        scale = math.lcm(*(c.denominator for p in row for c in p.coeffs))
        denominator *= scale
        scaled.append(
            [TPoly(_ZZ, [c.numerator * (scale // c.denominator) for c in p.coeffs]) for p in row]
        )
    det = _laplace(scaled, PolyRing(_ZZ))
    return TPoly(QQ, [Fraction(c, denominator) for c in det.coeffs])


def _laplace(matrix: Sequence[Sequence[Element]], ring: Ring) -> Element:
    """Laplace expansion of a square matrix, memoized on the unused columns."""
    n = len(matrix)
    one = ring.one
    zero = ring.zero
    # Each row with and without its sign flipped, so no term is negated.
    signed_rows = [(row, [-entry for entry in row]) for row in matrix]
    memo: dict = {}

    def expand(cols: int) -> Element:
        if cols == 0:
            return one
        cached = memo.get(cols)
        if cached is not None:
            return cached
        # The row to expand along is determined by how many columns remain.
        rows = signed_rows[n - bin(cols).count("1")]
        acc = zero
        flip = 0
        for j in range(n):
            bit = 1 << j
            if not cols & bit:
                continue
            entry = rows[flip][j]
            if entry:
                acc = acc + entry * expand(cols ^ bit)
            # Sign alternates over the remaining columns only.
            flip ^= 1
        memo[cols] = acc
        return acc

    return expand((1 << n) - 1)
