"""Exact arithmetic over the real quadratic field Q(sqrt(13)).

The field is fixed: every object of the level-13 argument lives in
Q(sqrt(13)), and ``DEFAULT_D`` is the one place that names it.

Provides three layers, each built on the one before:

* :class:`QuadElem` -- numbers a + b*sqrt(13) with rational a, b, stored as
  three ints (p + q*sqrt(13))/r in lowest terms (r > 0, gcd(p, q, r) = 1),
  so arithmetic, sign, equality and hashing never build a Fraction; the
  Fractions a = p/r and b = q/r are derived only for text and term order.
  Includes exact sign determination.
* ``_FormalSum`` -- the one arithmetic of finite formal sums, stored as a
  map from key to nonzero coefficient: +, -, the product loop, hash,
  pickling and "a + b - c" text.  A subclass names how two keys multiply
  (``_key_mul``) and how its terms are ordered and written (``_text_terms``
  and ``_term_str``).
* :class:`ScalarPoly` -- commutative polynomials in the formal symbols
  ``a2``, ``a3`` and an involution ``e`` (with e^2 = 1) over Q(sqrt(13)):
  formal sums over monomials.  ``groupring.RingElem``, the sums over
  matrix classes, is the other.

Everything here is immutable and hashable, so values can be used as
dictionary keys throughout the rest of the package.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import List, Mapping, Optional, Tuple, Union

#: The radicand of the field: every exact value lies in Q(sqrt(DEFAULT_D)).
DEFAULT_D = 13

#: Exponents of a2/a3 in a ScalarPoly must stay below this bound.  The cap
#: keeps runaway symbolic products from silently eating memory.
EXPONENT_LIMIT = 1 << 16

Rat = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadElem"]


class ExponentOverflowError(OverflowError):
    """Raised when a symbolic exponent exceeds ``EXPONENT_LIMIT``."""


def binary_power(base, n: int, one=None, mul=operator.mul):
    """base ** n for n >= 0 by square-and-multiply; ``one`` when n == 0.

    The product starts from ``base`` itself, so no multiplication by the
    identity is made; ``mul`` is the product (for integer 4-tuples, say).
    Callers apply their own rule to negative n.
    """
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if result is None else result


class QuadElem:
    """An element (p + q*sqrt(13))/r of the field Q(sqrt(13)).

    Stored as three ints in lowest terms: r > 0 and gcd(p, q, r) = 1, so
    equal values have equal components.  ``a`` = p/r and ``b`` = q/r are
    the rational coordinates a + b*sqrt(13), read-only, for text and order.
    """

    __slots__ = ("_p", "_q", "_r")

    def __new__(cls, a: Rat, b: Rat) -> "QuadElem":
        if type(a) is int and type(b) is int:
            return _quad(a, b, 1)
        a, b = Fraction(a), Fraction(b)
        r = lcm(a.denominator, b.denominator)
        return _quad(a.numerator * (r // a.denominator),
                     b.numerator * (r // b.denominator), r)

    # -- construction -------------------------------------------------

    @classmethod
    def of(cls, x: Scalar) -> "QuadElem":
        o = _coerce(x)
        return cls(x, 0) if o is None else o

    @classmethod
    def sqrt_d(cls) -> "QuadElem":
        return _quad(0, 1, 1)

    # -- components ----------------------------------------------------

    @property
    def p(self) -> int:
        return self._p

    @property
    def q(self) -> int:
        return self._q

    @property
    def r(self) -> int:
        return self._r

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._r)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._p and not self._q

    @property
    def is_rational(self) -> bool:
        return not self._q

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not QuadElem:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        r, s = self._r, other._r
        if r == s:
            return _quad(self._p + other._p, self._q + other._q, r)
        return _quad(self._p * s + other._p * r, self._q * s + other._q * r,
                     r * s)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QuadElem:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        r, s = self._r, other._r
        if r == s:
            return _quad(self._p - other._p, self._q - other._q, r)
        return _quad(self._p * s - other._p * r, self._q * s - other._q * r,
                     r * s)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "QuadElem":
        return _quad(-self._p, -self._q, self._r)

    def __mul__(self, other):
        if type(other) is not QuadElem:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        p, q, s, t = self._p, self._q, other._p, other._q
        return _quad(p * s + DEFAULT_D * q * t, p * t + q * s,
                     self._r * other._r)

    __rmul__ = __mul__

    def inv(self) -> "QuadElem":
        # 13 is not a square, so the norm vanishes only at zero
        p, q = self._p, self._q
        norm = p * p - DEFAULT_D * q * q
        if not norm:
            raise ZeroDivisionError("inverse of zero")
        return _quad(self._r * p, -self._r * q, norm)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            return self.inv() ** (-n)
        return binary_power(self, n, _quad(1, 0, 1))

    def conj(self) -> "QuadElem":
        """Galois conjugate (p - q*sqrt(13))/r."""
        return _quad(self._p, -self._q, self._r)

    # -- order ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign under the embedding sqrt(13) > 0."""
        p, q = self._p, self._q
        sp = (p > 0) - (p < 0)
        sq = (q > 0) - (q < 0)
        if sq == 0:
            return sp
        if sp == 0 or sp == sq:
            return sq
        # opposite signs: |p| vs |q|*sqrt(13) decided by squaring, and
        # p^2 == 13 q^2 is impossible for q != 0
        return sp if p * p > DEFAULT_D * q * q else sq

    def __abs__(self) -> "QuadElem":
        return -self if self.sign() < 0 else self

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not QuadElem:
            return NotImplemented
        return (self._p == other._p and self._q == other._q
                and self._r == other._r)

    def __hash__(self):
        return hash((self._p, self._q, self._r))

    def __reduce__(self):
        return _quad, (self._p, self._q, self._r)

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        a, b = self.a, self.b
        if not b:
            return str(a)
        root = f"{abs(b)}*sqrt({DEFAULT_D})"
        if not a:
            return root if b > 0 else "-" + root
        return f"{a}{'+' if b > 0 else '-'}{root}"

    def __repr__(self) -> str:
        return f"QuadElem({self})"


_new = object.__new__


def _quad(p: int, q: int, r: int) -> QuadElem:
    """The one constructor: (p + q*sqrt(13))/r reduced to lowest terms."""
    if r != 1:
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(p, q, r)
        if g != 1:
            p, q, r = p // g, q // g, r // g
    x = _new(QuadElem)
    x._p, x._q, x._r = p, q, r
    return x


def _coerce(x) -> Optional[QuadElem]:
    """``x`` as a QuadElem when it is one, an int or a Fraction; else None."""
    if type(x) is QuadElem:
        return x
    if isinstance(x, int):
        return _quad(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _quad(x.numerator, 0, x.denominator)
    return None


class _FormalSum:
    """A finite formal sum, stored as a map from key to nonzero coefficient.

    A subclass supplies ``_coerce`` (an operand as its own kind, or None),
    the key product ``_key_mul(k1, k2)`` and the text hooks ``_text_terms``
    (the terms in written order) and ``_term_str`` (one term as a (sign,
    body) pair), and restates ``__hash__`` if it defines ``__eq__``.
    """

    __slots__ = ("_terms",)

    @classmethod
    def _normal(cls, terms: Mapping) -> "_FormalSum":
        """``terms`` with zero coefficients dropped, for arithmetic results,
        whose keys and coefficients are already of the subclass's kind."""
        x = object.__new__(cls)
        object.__setattr__(x, "_terms", {
            key: coeff for key, coeff in terms.items() if not coeff.is_zero})
        return x

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self._terms,)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in o._terms.items():
            acc[key] = acc[key] + coeff if key in acc else coeff
        return self._normal(acc)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in o._terms.items():
            acc[key] = acc[key] - coeff if key in acc else -coeff
        return self._normal(acc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self._normal({k: -c for k, c in self._terms.items()})

    def _times(self, other):
        """The product, with each key of self on the left of ``_key_mul``;
        NotImplemented for an operand ``_coerce`` refuses."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        key_mul = self._key_mul
        acc: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in o._terms.items():
                key = key_mul(k1, k2)
                prod = c1 * c2
                acc[key] = acc[key] + prod if key in acc else prod
        return self._normal(acc)

    # -- identity and text --------------------------------------------------

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = [self._term_str(k, c) for k, c in self._text_terms()]
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


_MonoKey = tuple  # (exp_a2, exp_a3, exp_e) with exp_e in {0, 1}


class ScalarPoly(_FormalSum):
    """Polynomial in the symbols a2, a3, e over Q(sqrt(13)), with e^2 = 1.

    Instances are canonical as maps from monomial to nonzero coefficient,
    so ``==`` and ``hash`` reflect mathematical equality; the terms have
    an order only in :meth:`terms`, which text is written from.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[_MonoKey, Scalar]):
        cleaned = {}
        for key, coeff in terms.items():
            i2, i3, ie = key
            if i2 < 0 or i3 < 0:
                raise ValueError("negative symbolic exponent")
            if max(i2, i3) >= EXPONENT_LIMIT:
                raise ExponentOverflowError(
                    f"exponent {max(i2, i3)} exceeds limit {EXPONENT_LIMIT}")
            coeff = QuadElem.of(coeff)
            key = (i2, i3, ie & 1)
            if key in cleaned:
                coeff = cleaned[key] + coeff
            if coeff.is_zero:
                cleaned.pop(key, None)
            else:
                cleaned[key] = coeff
        object.__setattr__(self, "_terms", cleaned)

    # -- construction ---------------------------------------------------

    @classmethod
    def const(cls, x: Scalar) -> "ScalarPoly":
        return cls._normal({(0, 0, 0): QuadElem.of(x)})

    @classmethod
    def alpha2(cls) -> "ScalarPoly":
        return cls({(1, 0, 0): 1})

    @classmethod
    def alpha3(cls) -> "ScalarPoly":
        return cls({(0, 1, 0): 1})

    @classmethod
    def eps(cls) -> "ScalarPoly":
        return cls({(0, 0, 1): 1})

    # -- inspection -------------------------------------------------------

    def as_const(self) -> Optional[QuadElem]:
        """The value as a plain field element, or None if symbols occur."""
        if not self._terms:
            return QuadElem.of(0)
        return self._terms.get((0, 0, 0)) if len(self._terms) == 1 else None

    def terms(self) -> List[tuple]:
        """(monomial, coefficient) pairs by increasing monomial key."""
        return sorted(self._terms.items())

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> Optional["ScalarPoly"]:
        if isinstance(other, ScalarPoly):
            return other
        if isinstance(other, (int, Fraction, QuadElem)):
            return ScalarPoly.const(other)
        return None

    @staticmethod
    def _key_mul(k1: _MonoKey, k2: _MonoKey) -> _MonoKey:
        i2, i3, ie = k1
        j2, j3, je = k2
        e2, e3 = i2 + j2, i3 + j3
        if e2 >= EXPONENT_LIMIT or e3 >= EXPONENT_LIMIT:
            raise ExponentOverflowError(
                f"exponent {max(e2, e3)} exceeds limit {EXPONENT_LIMIT}")
        return e2, e3, (ie + je) & 1

    __mul__ = __rmul__ = _FormalSum._times

    def __pow__(self, n: int) -> "ScalarPoly":
        if n < 0:
            raise ValueError("negative powers of symbolic scalars")
        # the largest a2/a3 exponent of self^n is n times that of self
        top = n * max((max(i2, i3) for i2, i3, _ in self._terms), default=0)
        if top >= EXPONENT_LIMIT:
            raise ExponentOverflowError(
                f"exponent {top} exceeds limit {EXPONENT_LIMIT}")
        # each power multiplies the bit length of p, q and r by up to n
        bits = max((max(c.p.bit_length(), c.q.bit_length(), c.r.bit_length())
                    for c in self._terms.values()), default=0)
        if n * bits >= EXPONENT_LIMIT:
            raise ExponentOverflowError(
                f"exponent {n} times {bits} coefficient bits exceeds limit "
                f"{EXPONENT_LIMIT}")
        return binary_power(self, n, ScalarPoly.const(1))

    # -- evaluation ---------------------------------------------------------

    def instantiate(self, alpha2: Scalar, alpha3: Scalar, eps: int) -> QuadElem:
        """Evaluate at concrete values, with eps = +1 or -1."""
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        a2 = QuadElem.of(alpha2)
        a3 = QuadElem.of(alpha3)
        total = QuadElem.of(0)
        for (i2, i3, ie), coeff in self._terms.items():
            val = coeff * a2 ** i2 * a3 ** i3
            if ie and eps == -1:
                val = -val
            total = total + val
        return total

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadElem)):
            other = ScalarPoly.const(other)
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = _FormalSum.__hash__

    # -- text ------------------------------------------------------------------

    @staticmethod
    def _mono_str(key: _MonoKey) -> str:
        i2, i3, ie = key
        parts = []
        if ie:
            parts.append("e")
        if i2:
            parts.append("a2" if i2 == 1 else f"a2^{i2}")
        if i3:
            parts.append("a3" if i3 == 1 else f"a3^{i3}")
        return "*".join(parts)

    def _text_terms(self):
        return reversed(self.terms())

    def _term_str(self, key: _MonoKey, coeff: QuadElem) -> Tuple[str, str]:
        neg = coeff.sign() < 0
        mag = -coeff if neg else coeff
        mono = self._mono_str(key)
        text = str(mag)
        if mag.a and mag.b:
            text = f"({text})"
        if mono:
            text = mono if mag == QuadElem.of(1) else f"{text}*{mono}"
        return "-" if neg else "+", text
