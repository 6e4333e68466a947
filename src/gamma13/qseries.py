"""Truncated q-expansions with exact rational coefficients.

A ``QSeries`` is q^offset * (c_0 + c_1 q + ... + c_L q^L) with a rational
leading exponent (multiples of 1/24 arise from eta factors) and exact
coefficients.  Multiplication truncates consistently: coefficient i of a
product depends only on input coefficients <= i.  Eta products expand the
Euler function by the pentagonal-number series and combine factors by
binary powering; negative exponents invert the unit series part.

The Hecke checks verify, purely on coefficients, the recursion

    a_{pn} - a_p a_n + p^{k-1} a_{n/p} = 0

and its stroke-side restatement

    p^{k/2} a_{n/p} + p^{1-k/2} a_{pn} = a_p p^{1-k/2} a_n,

with the convention that a_x = 0 whenever x is not a positive integer
(centralized in one accessor).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple, Union

from .exactnum import binary_power

Exact = Union[int, Fraction]


def _exact(x) -> Exact:
    q = Fraction(x)
    return int(q) if q.denominator == 1 else q


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
        return QSeries(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def _scaled(self, scalar) -> "QSeries":
        s = _exact(scalar)
        return QSeries(self.offset, tuple(c * s for c in self.coeffs))

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        L = min(self.length, other.length)
        a, b = self.coeffs, other.coeffs
        # Iterate over the sparser factor so eta-style expansions stay fast.
        if sum(1 for c in a[:L + 1] if c != 0) > sum(1 for c in b[:L + 1] if c != 0):
            a, b = b, a
        out: List[Exact] = [0] * (L + 1)
        for i in range(L + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(L + 1 - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return QSeries(Fraction(self.offset) + Fraction(other.offset), out)

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
        lead = Fraction(1, 1) / a[0]
        out: List[Exact] = [_exact(lead)]
        for i in range(1, len(a)):
            acc = 0
            for j in range(1, i + 1):
                if a[j] != 0:
                    acc += a[j] * out[i - j]
            out.append(_exact(-lead * acc))
        return QSeries(-Fraction(self.offset), out)


def _euler_function(multiplier: int, L: int) -> QSeries:
    """prod_{n>=1} (1 - q^{multiplier*n}) truncated at q^L, via the
    pentagonal-number series."""
    coeffs: List[Exact] = [0] * (L + 1)
    coeffs[0] = 1
    k = 1
    while True:
        hit = False
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            e = multiplier * g
            if e <= L:
                coeffs[e] += (-1) ** k
                hit = True
        if not hit:
            break
        k += 1
    return QSeries(0, coeffs)


def eta_product(factors: Sequence[Tuple[int, int]], L: int) -> QSeries:
    """The product of eta(m z)^r over the given (m, r) pairs, expanded
    exactly to truncation length L.  The leading exponent is the exact
    rational sum(m*r)/24; callers that need an integer exponent must
    check the offset themselves."""
    if L < 0:
        raise ValueError("truncation length must be nonnegative")
    net: dict = {}
    for m, r in factors:
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"eta multiplier must be a positive integer, "
                             f"got {m!r}")
        net[m] = net.get(m, 0) + int(r)
    offset = Fraction(sum(m * r for m, r in net.items()), 24)
    acc = QSeries(0, [1] + [0] * L)
    for m in sorted(net):
        r = net[m]
        if r == 0:
            continue
        factor = _euler_function(m, L) ** abs(r)
        if r < 0:
            factor = factor.invert()
        acc = acc * factor
    return QSeries(offset, acc.coeffs)


# -- Hecke recursion on coefficients -------------------------------------------


class HeckeVerdict(NamedTuple):
    ok: bool
    failures: Tuple[int, ...]


def _validated_length(series: QSeries, p: int, k: int) -> int:
    if p not in (2, 3):
        raise ValueError(f"Hecke checks support p in {{2, 3}}, got {p}")
    if Fraction(series.offset) != 1:
        raise ValueError("Hecke checks need a series with leading exponent 1")
    if not isinstance(k, int) or k < 2 or k % 2:
        raise ValueError(f"weight must be a positive even integer, got {k}")
    if series.length < 10 * p:
        raise ValueError(f"series too short for p={p}: "
                         f"need length >= {10 * p}, got {series.length}")
    return 1 + series.length


def _indexed(series: QSeries, x) -> Exact:
    """a_x under the convention that a_x = 0 unless x is a positive integer."""
    q = Fraction(x)
    if q.denominator != 1 or q < 1:
        return 0
    return series.coefficient(q)


def hecke_check(a: QSeries, p: int, k: int, a_p) -> HeckeVerdict:
    """Verify a_{pn} - a_p a_n + p^{k-1} a_{n/p} = 0 for all pn within
    the truncation; failures list the offending coefficient indices pn."""
    top = _validated_length(a, p, k)
    ap = _exact(a_p)
    failures = []
    for n in range(1, top // p + 1):
        lhs = (_indexed(a, p * n) - ap * _indexed(a, n)
               + p ** (k - 1) * _indexed(a, Fraction(n, p)))
        if lhs != 0:
            failures.append(p * n)
    return HeckeVerdict(not failures, tuple(failures))


def hecke_stroke_identity(a: QSeries, p: int, k: int, a_p) -> HeckeVerdict:
    """Verify, coefficient by coefficient, that stroking by the standard
    weight-k coset sum for p multiplies the series by a_p p^{1-k/2}:
    p^{k/2} a_{n/p} + p^{1-k/2} a_{pn} = a_p p^{1-k/2} a_n."""
    top = _validated_length(a, p, k)
    ap = _exact(a_p)
    up = Fraction(p) ** (k // 2)
    down = Fraction(1, p ** (k // 2 - 1))
    failures = []
    for n in range(1, top // p + 1):
        lhs = up * _indexed(a, Fraction(n, p)) + down * _indexed(a, p * n)
        rhs = ap * down * _indexed(a, n)
        if lhs != rhs:
            failures.append(p * n)
    return HeckeVerdict(not failures, tuple(failures))


# -- coefficient files ---------------------------------------------------------


class CoefficientFile(NamedTuple):
    series: QSeries
    weight: int
    level: int
    sign: int


_HEADER = re.compile(r"#\s*k=(-?\d+)\s+N=(\d+)\s+eps=([+-]1)\Z")


def format_coefficient_file(series: QSeries, weight: int, level: int,
                            sign: int) -> str:
    """Render the header '# k=.. N=.. eps=..' plus one 'n a_n' line per
    coefficient.  Only integer leading exponents >= 1 are representable."""
    offset = Fraction(series.offset)
    if offset.denominator != 1 or offset < 1:
        raise ValueError(f"coefficient files need an integer leading "
                         f"exponent >= 1, got {series.offset}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    lines = [f"# k={weight} N={level} eps={sign:+d}"]
    n = int(offset)
    for c in series.coeffs:
        lines.append(f"{n} {c}")
        n += 1
    return "\n".join(lines) + "\n"


def parse_coefficient_file(text: str) -> CoefficientFile:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty coefficient file")
    m = _HEADER.match(lines[0])
    if not m:
        raise ValueError(f"bad coefficient file header: {lines[0]!r}")
    weight, level, sign = int(m.group(1)), int(m.group(2)), int(m.group(3))
    offset = None
    coeffs: List[Exact] = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad coefficient line: {line!r}")
        n = int(parts[0])
        if offset is None:
            offset = n
        elif n != offset + len(coeffs):
            raise ValueError(f"non-contiguous coefficient index {n}")
        coeffs.append(_exact(Fraction(parts[1])))
    if offset is None:
        raise ValueError("coefficient file has no coefficient lines")
    return CoefficientFile(QSeries(offset, coeffs), weight, level, sign)
