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
  countably many variables x_1, x_2, ...: a dict from sorted keys of
  (variable, exponent) pairs to nonzero ``int`` coefficients

A ``Ring`` is one record: a name, a zero and a one, which is all that
generic algorithms (polynomial arithmetic, division-free determinants) need
to run over any of these rings.  Rings compare and hash by name.  Elements
themselves are plain Python values supporting ``+``, ``-``, ``*`` and
``==``, multiply by an ``int``, and are zero exactly when false.

Rationals are mostly not summed as ``Fraction``s: rational values are
expanded over integer numerators, in a private ring of plain ``int``s, and
divided by their common denominator once at the end, which keeps
``Fraction`` normalization out of the inner loops.  Determinants of
rational t-polynomial matrices likewise scale each row to integer
coefficients and run fraction-free (Bareiss) elimination over Z[t], with
exact polynomial division, in O(n^3) polynomial operations; every other
ring goes through the division-free Laplace expansion, O(2^n * n), which is
also the tests' oracle for the elimination.

``QSeries`` and ``MonomialPolynomial`` normalize in their public
constructors only: a series converts each coefficient through ``Fraction``
and stores the integral ones as ``int``; a polynomial casts, validates and
sorts every key, merges repeated keys and drops zero coefficients.  Their
operators build results through a private trusted constructor that skips
all of that: series operators only turn the integral ``Fraction``s that
``Fraction`` arithmetic returns back into ``int``s, and polynomial
operators drop coefficients where they cancel.  Values of the q-analogue
map have integer coefficients, so their arithmetic builds no ``Fraction``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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


class MonomialPolynomial:
    """Sparse integer polynomial in the variables x_1, x_2, ...

    Terms map a monomial key -- a sorted tuple of (variable index, exponent)
    pairs, both positive, one per variable -- to a nonzero integer
    coefficient.  The constant term uses the empty key ().  The constructor
    merges a variable repeated within a key by summing its exponents.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        for key, coeff in dict(terms or {}).items():
            coeff = int(coeff)
            if coeff == 0:
                continue
            exponents: dict[int, int] = {}
            for v, e in key:
                v, e = int(v), int(e)
                if v < 1 or e < 1:
                    raise ValueError("monomial needs positive variable indices and exponents")
                exponents[v] = exponents.get(v, 0) + e
            norm = tuple(sorted(exponents.items()))
            clean[norm] = clean.get(norm, 0) + coeff
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c})

    @classmethod
    def _make(cls, terms: dict) -> "MonomialPolynomial":
        """Trusted constructor for results of polynomial arithmetic: the
        keys are already sorted tuples of positive pairs and every
        coefficient is a nonzero ``int``; nothing is converted or checked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

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
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                del out[key]
        return MonomialPolynomial._make(out)

    __radd__ = __add__

    def __neg__(self):
        return MonomialPolynomial._make({k: -c for k, c in self.terms.items()})

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
        # Schur and linear values multiply by the variables in increasing
        # order, so one key usually ends below where the other starts.
        if not k1 or not k2 or k1[-1][0] < k2[0][0]:
            return k1 + k2
        if k2[-1][0] < k1[0][0]:
            return k2 + k1
        exps = dict(k1)
        for v, e in k2:
            exps[v] = exps.get(v, 0) + e
        return tuple(sorted(exps.items()))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MonomialPolynomial._make({})
            return MonomialPolynomial._make({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, MonomialPolynomial):
            return NotImplemented
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = self._merge_keys(k1, k2)
                out[key] = out.get(key, 0) + c1 * c2
        return MonomialPolynomial._make({k: c for k, c in out.items() if c})

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

    def subs_one_minus_t(self) -> "TPoly":
        """The polynomial p(1-t); an involution."""
        coeffs = self.coeffs
        n = len(coeffs)
        out = []
        for k in range(n):
            s = self.ring.zero
            for m in range(k, n):
                c = coeffs[m]
                if c:
                    s = s + c * math.comb(m, k)
            out.append(s if k % 2 == 0 else -s)
        return TPoly(self.ring, out)

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


def ring_determinant(matrix: Sequence[Sequence[Element]], ring: Ring) -> Element:
    """Determinant of a square matrix over one of the package's rings.

    Over t-polynomials with rational coefficients each row is first scaled
    by the lcm of its coefficient denominators, the determinant of the
    scaled matrix is taken over Z[t] by fraction-free elimination
    (``_bareiss``: O(n^3) polynomial operations, each division exact), and
    the result is divided once by the product of the row scales.  Every
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
    scaled = []
    denominator = 1
    for row in matrix:
        scale = math.lcm(*(c.denominator for p in row for c in p.coeffs))
        denominator *= scale
        scaled.append([[c.numerator * (scale // c.denominator) for c in p.coeffs] for p in row])
    return _divide_integer_poly(TPoly(_ZZ, _bareiss(scaled)), denominator)


def _divide_integer_poly(p: TPoly, denominator: int) -> TPoly:
    """The rational t-polynomial p / denominator, for p over the integers."""
    return TPoly(QQ, [Fraction(c, denominator) for c in p.coeffs])


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
    content of every row and then every column is taken out first and
    multiplied back at the end, and the pivot is the remaining entry of
    column k with the lowest degree, then the fewest coefficient bits.  A
    column with no nonzero entry left makes the determinant zero.
    """
    n = len(a)
    factor = 1
    for row in a:
        g = math.gcd(*(c for p in row for c in p))
        if not g:
            return []
        factor *= g
        row[:] = [[c // g for c in p] for p in row]
    for j in range(n):
        g = math.gcd(*(c for row in a for c in row[j]))
        if not g:
            return []
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
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                entry = _poly_mul(p, row[j]) if row[j] else []
                if lead and pivot_row[j]:
                    entry = _poly_sub(entry, _poly_mul(lead, pivot_row[j]))
                row[j] = _exact_quotient(entry, previous)
        previous = p
    return [c * factor for c in a[n - 1][n - 1]] if n else [1]


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
