"""Truncated q-expansions with exact rational coefficients, and the
checked form a coefficient file describes.

A ``QSeries`` is q^offset * (c_0 + c_1 q + ... + c_L q^L) with a rational
leading exponent (multiples of 1/24 arise from eta factors) and exact
coefficients.  Multiplication truncates consistently: coefficient i of a
product depends only on input coefficients <= i.  Every product is one
big-integer multiplication (Kronecker substitution): each factor's
coefficients, as integers over a common denominator, are packed into the
byte-aligned slots of one ``int``, and the low slots of the integer
product are the product's coefficients.  An eta product expands each
factor eta(m z)^r as eta(z)^r to L // m terms, placed on the exponents
0, m, 2m, ... of the length-L series.  With |r| = 2^s t and t odd, it
raises eta^t as (eta^3)^(t // 3) eta^(t % 3), eta^3 from Jacobi's sparse
series sum (-1)^n (2n+1) q^{n(n+1)/2} and eta from Euler's
pentagonal-number series, each inverted while still sparse when r < 0,
and squares the result s times.

A ``FormData`` is a series with its weight, level and inversion sign.
Building one checks all three and the growth bound |a_n| <= n^k on every
carried coefficient, so ``parse_coefficient_file``, which returns one,
hands on only checked forms.

The Hecke check verifies, purely on coefficients, the recursion

    a_{pn} - a_p a_n + p^{k-1} a_{n/p} = 0,

with a_{n/p} = 0 unless p divides n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, NamedTuple, Sequence, Tuple, Union

from .exactnum import binary_power

Exact = Union[int, Fraction]


def _exact(x) -> Exact:
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def _integral(coeffs: Sequence[Exact]) -> Tuple[Sequence[int], int]:
    """The coefficients as integers over one common denominator."""
    den = 1
    for c in coeffs:
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den == 1:
        return coeffs, 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _half_slots(count: int, width: int) -> int:
    """Half a slot, 2^(8*width - 1), in each of the low ``count`` slots
    of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(values: Sequence[int], width: int) -> int:
    """sum values[i] * 2^(8*width*i), for |values[i]| < 2^(8*width - 1)."""
    half = 1 << (8 * width - 1)
    raw = b"".join([(v + half).to_bytes(width, "little") for v in values])
    return int.from_bytes(raw, "little") - _half_slots(len(values), width)


def _unpack(packed: int, count: int, width: int) -> List[int]:
    """The low ``count`` signed slots of ``packed``, each of absolute value
    below 2^(8*width - 1).  Adding half a slot to each makes every slot
    nonnegative, which settles all borrows between slots in one addition."""
    half = 1 << (8 * width - 1)
    size = count * width
    low = (packed + _half_slots(count, width)) & ((1 << (8 * size)) - 1)
    raw = memoryview(low.to_bytes(size, "little"))
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, size, width)]


@dataclass(frozen=True)
class QSeries:
    """q^offset times a truncated power series with exact coefficients."""

    offset: Exact
    coeffs: Tuple[Exact, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", _exact(self.offset))
        object.__setattr__(self, "coeffs",
                           tuple(_exact(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")

    @classmethod
    def _of_exact(cls, offset, coeffs: Sequence[Exact]) -> "QSeries":
        """A series from arithmetic results: ints and non-integral Fractions."""
        series = object.__new__(cls)
        object.__setattr__(series, "offset", _exact(offset))
        object.__setattr__(series, "coeffs", tuple(coeffs))
        return series

    @property
    def length(self) -> int:
        """Truncation length L: coefficients cover q^offset..q^(offset+L)."""
        return len(self.coeffs) - 1

    @property
    def end(self) -> Exact:
        return _exact(Fraction(self.offset) + self.length)

    def coefficient(self, exponent) -> Exact:
        """The coefficient of q^exponent; zero off the carried grid,
        an error beyond the truncation point."""
        delta = Fraction(exponent) - Fraction(self.offset)
        if delta > self.length:
            raise ValueError(f"exponent {exponent} is beyond the truncation")
        if delta < 0 or delta.denominator != 1:
            return 0
        return self.coeffs[int(delta)]

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        shift = Fraction(self.offset) - Fraction(other.offset)
        if shift.denominator != 1:
            raise ValueError(
                "cannot add series whose offsets differ by a non-integer")
        start = min(self.offset, other.offset, key=Fraction)
        end = min(self.end, other.end, key=Fraction)
        n = int(Fraction(end) - Fraction(start))
        coeffs = []
        for i in range(n + 1):
            x = Fraction(start) + i
            total = 0
            for s in (self, other):
                j = int(x - Fraction(s.offset))
                if 0 <= j <= s.length:
                    total += s.coeffs[j]
            coeffs.append(total)
        return QSeries(start, coeffs)

    def __neg__(self) -> "QSeries":
        return QSeries._of_exact(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def _scaled(self, scalar) -> "QSeries":
        s = _exact(scalar)
        return QSeries._of_exact(self.offset, [
            c * s if type(c) is type(s) is int else _exact(c * s)
            for c in self.coeffs])

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        L = min(self.length, other.length)
        a, da = _integral(self.coeffs[:L + 1])
        b, db = (a, da) if other is self else _integral(other.coeffs[:L + 1])
        # a product coefficient is a sum of at most L+1 terms a_i*b_j;
        # "or 1" keeps each factor's own coefficients inside the bound
        bound = ((max(map(abs, a)) or 1) * (max(map(abs, b)) or 1)
                 * (L + 1))
        width = (bound.bit_length() + 8) // 8
        packed = _pack(a, width)
        product = packed * packed if b is a else packed * _pack(b, width)
        out = _unpack(product, L + 1, width)
        if da * db != 1:
            out = [_exact(Fraction(c, da * db)) for c in out]
        return QSeries._of_exact(
            Fraction(self.offset) + Fraction(other.offset), out)

    def __rmul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "QSeries":
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError("series exponent must be a positive integer")
        return binary_power(self, exponent)

    def invert(self) -> "QSeries":
        """The multiplicative inverse of a series with invertible lead."""
        a = self.coeffs
        if a[0] == 0:
            raise ValueError("cannot invert a series with zero lead")
        lead = _exact(Fraction(1, 1) / a[0])
        terms = [(j, c) for j, c in enumerate(a) if j and c != 0]
        out: List[Exact] = [lead]
        for i in range(1, len(a)):
            acc = 0
            for j, c in terms:
                if j > i:
                    break
                acc += c * out[i - j]
            out.append(_exact(-lead * acc))
        return QSeries._of_exact(-Fraction(self.offset), out)


def _euler_function(L: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) truncated at q^L, by Euler's pentagonal-number
    series sum_k (-1)^k q^{k(3k-1)/2} over all integers k."""
    coeffs = [0] * (L + 1)
    coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= L:
        sign = -1 if k & 1 else 1
        coeffs[k * (3 * k - 1) // 2] = sign
        if k * (3 * k + 1) // 2 <= L:
            coeffs[k * (3 * k + 1) // 2] = sign
        k += 1
    return QSeries._of_exact(0, coeffs)


def _euler_cube(L: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^3 truncated at q^L, by Jacobi's identity
    sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2} (Hardy-Wright, Thm 357)."""
    coeffs = [0] * (L + 1)
    n = 0
    while n * (n + 1) // 2 <= L:
        coeffs[n * (n + 1) // 2] = -(2 * n + 1) if n & 1 else 2 * n + 1
        n += 1
    return QSeries._of_exact(0, coeffs)


def _euler_power(r: int, L: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^r truncated at q^L, for r != 0.  With
    |r| = 2^s t and t odd, the t-th power is the Jacobi cube to the power
    t // 3 times the pentagonal series to the power t % 3, each sparse base
    inverted before powering when r < 0; s squarings follow, so the widest
    products are squarings, which cost less than general products."""
    s = (r & -r).bit_length() - 1
    acc = None
    for base, e in zip((_euler_cube, _euler_function), divmod(abs(r) >> s, 3)):
        if e:
            factor = base(L)
            if r < 0:
                factor = factor.invert()
            factor = factor ** e
            acc = factor if acc is None else acc * factor
    for _ in range(s):
        acc = acc * acc
    return acc


def eta_offset(factors: Sequence[Tuple[int, int]]) -> Fraction:
    """The leading exponent sum(m*r)/24 of the product of eta(m z)^r over
    the given (m, r) pairs; a multiplier must be a positive integer."""
    for m, _ in factors:
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"eta multiplier must be a positive integer, "
                             f"got {m!r}")
    return Fraction(sum(m * int(r) for m, r in factors), 24)


def eta_product(factors: Sequence[Tuple[int, int]], L: int) -> QSeries:
    """The product of eta(m z)^r over the given (m, r) pairs, expanded
    exactly to truncation length L.  Each eta(m z)^r is eta(z)^r expanded
    to L // m terms, through Jacobi's cube and squarings, and spread onto
    the multiples of m.  The leading exponent is the exact rational
    sum(m*r)/24; callers that need an integer exponent must check the
    offset themselves."""
    if L < 0:
        raise ValueError("truncation length must be nonnegative")
    offset = eta_offset(factors)
    net: dict = {}
    for m, r in factors:
        net[m] = net.get(m, 0) + int(r)
    acc = None
    for m in sorted(net):
        r = net[m]
        if r == 0:
            continue
        # eta(m z)^r carries q^{mj} only: expand to L // m terms and spread
        coeffs = [0] * (L + 1)
        coeffs[::m] = _euler_power(r, L // m).coeffs
        factor = QSeries._of_exact(0, coeffs)
        acc = factor if acc is None else acc * factor
    return QSeries._of_exact(offset,
                             [1] + [0] * L if acc is None else acc.coeffs)


# -- Hecke recursion on coefficients -------------------------------------------


class HeckeVerdict(NamedTuple):
    ok: bool
    failures: Tuple[int, ...]


def hecke_check(series: QSeries, p: int, k: int, a_p) -> HeckeVerdict:
    """Verify a_{pn} - a_p a_n + p^{k-1} a_{n/p} = 0 for all pn within
    the truncation; failures list the offending coefficient indices pn.
    The stroke identity p^{k/2} a_{n/p} + p^{1-k/2} a_{pn} =
    a_p p^{1-k/2} a_n, which says that stroking by the weight-k coset sum
    for p multiplies the series by a_p p^{1-k/2}, is this recursion times
    p^{1-k/2} != 0, so this one check settles it too."""
    if p not in (2, 3):
        raise ValueError(f"Hecke checks support p in {{2, 3}}, got {p}")
    if Fraction(series.offset) != 1:
        raise ValueError("Hecke checks need a series with leading exponent 1")
    if not isinstance(k, int) or k < 2 or k % 2:
        raise ValueError(f"weight must be a positive even integer, got {k}")
    if series.length < 10 * p:
        raise ValueError(f"series too short for p={p}: "
                         f"need length >= {10 * p}, got {series.length}")
    a = series.coeffs  # the offset is 1, so a_n is a[n - 1]
    ap, scale = _exact(a_p), p ** (k - 1)
    failures = []
    for n in range(1, len(a) // p + 1):
        lhs = a[p * n - 1] - ap * a[n - 1]
        if n % p == 0:
            lhs += scale * a[n // p - 1]
        if lhs != 0:
            failures.append(p * n)
    return HeckeVerdict(not failures, tuple(failures))


# -- checked forms --------------------------------------------------------------


@dataclass(frozen=True)
class FormData:
    """A series with its weight k, level and inversion sign, all checked,
    and with |a_n| <= n^k checked on every carried coefficient."""

    series: QSeries
    weight: int
    level: int
    sign: int

    def __post_init__(self) -> None:
        if not isinstance(self.weight, int) or self.weight < 2 or self.weight % 2:
            raise ValueError(f"weight must be a positive even integer, "
                             f"got {self.weight}")
        if type(self.level) is not int or self.level < 1:  # bool is no level
            raise ValueError(f"level must be a positive integer, got {self.level!r}")
        # bool is no sign
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        _check_growth(self.series, self.weight)


def _check_growth(series: QSeries, k: int) -> None:
    """Refuse a series whose carried coefficients break |a_n| <= n^k, the
    growth bound every tail bound assumes, at some exponent n >= 1.
    Exact: with offset u/v, the exponent of the j-th coefficient is
    (u + j*v)/v, so the test is |a| * v^k <= (u + j*v)^k, passed unpowered
    by a left side below 2^(k (b - 1)) <= (u + j*v)^k, b = bits of u + j*v."""
    offset = Fraction(series.offset)
    u, v = offset.numerator, offset.denominator
    scale = v ** k
    for j, c in enumerate(series.coeffs):
        top = u + j * v
        if top < v or not c:
            continue
        num, den = c.as_integer_ratio()
        lhs = abs(num) * scale
        if (lhs.bit_length() > k * (top.bit_length() - 1)
                and lhs > top ** k * den):
            n = Fraction(top, v)
            raise ValueError(
                f"coefficient a_n at n={n} is {c}, beyond n^{k} = {n ** k}: "
                f"the tail bound assumes |a_n| <= n^k")


# -- coefficient files ---------------------------------------------------------


_HEADER = re.compile(r"#\s*k=(-?\d+)\s+N=(\d+)\s+eps=([+-]1)\Z")
# Fraction alone would also take decimals and exponents, and builds
# 10^1000000 for '1e1000000' before any check can refuse it
_COEFFICIENT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


def coefficient_file_offset(offset: Exact) -> int:
    """The first index of a coefficient file for a series that starts at
    q^offset.  Only integer leading exponents >= 1 are representable."""
    q = Fraction(offset)
    if q.denominator != 1 or q < 1:
        raise ValueError(f"coefficient files need an integer leading "
                         f"exponent >= 1, got {offset}")
    return q.numerator


def format_coefficient_file(series: QSeries, weight: int, level: int,
                            sign: int) -> str:
    """Render the header '# k=.. N=.. eps=..' plus one 'n a_n' line per
    coefficient, numbered from ``coefficient_file_offset``."""
    n = coefficient_file_offset(series.offset)
    if type(sign) is not int or sign not in (1, -1):  # bool is no sign
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    lines = [f"# k={weight} N={level} eps={sign:+d}"]
    for c in series.coeffs:
        lines.append(f"{n} {c}")
        n += 1
    return "\n".join(lines) + "\n"


def parse_coefficient_file(text: str) -> FormData:
    """The checked form in the format ``format_coefficient_file`` writes:
    each coefficient is an integer or p/q.  Blank lines are skipped; a
    format error names the line of ``text`` it is on, and a form that
    fails a ``FormData`` check is refused with that check's message."""
    lines = [(number, line.strip())
             for number, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines:
        raise ValueError("empty coefficient file")
    number, header = lines[0]
    m = _HEADER.match(header)
    if not m:
        raise ValueError(f"line {number}: bad coefficient file header: "
                         f"{header!r}")
    weight, level, sign = int(m.group(1)), int(m.group(2)), int(m.group(3))
    offset = None
    coeffs: List[Exact] = []
    for number, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {number}: bad coefficient line: {line!r}")
        try:
            n = int(parts[0])
        except ValueError:
            raise ValueError(f"line {number}: bad coefficient index "
                             f"{parts[0]!r}") from None
        if offset is None:
            offset = n
        elif n != offset + len(coeffs):
            raise ValueError(f"line {number}: non-contiguous coefficient "
                             f"index {n}")
        token = parts[1]
        try:
            if not _COEFFICIENT.match(token):
                raise ValueError
            # int() reads an integer token far faster than Fraction()
            coeffs.append(_exact(Fraction(token)) if "/" in token
                          else int(token))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {number}: bad coefficient "
                             f"{token!r}") from None
    if offset is None:
        raise ValueError("coefficient file has no coefficient lines")
    return FormData(QSeries._of_exact(offset, coeffs), weight, level, sign)
