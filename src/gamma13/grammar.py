"""Parsers for the textual exchange formats used across the package.

The accepted surface syntax:

* rationals        ``-14/9``
* field elements   ``1/2-3/4*sqrt(13)``
* scalar symbols   ``a2``, ``a3``, ``e`` with ``^`` (or ``**``) powers
* matrices         ``[[2,-1],[13,-6]]`` with field-element entries
* ring elements    sums ``coeff*[[...]] + ...`` where each coefficient is a
  scalar polynomial and a missing matrix factor means the identity matrix

Parsing is whitespace-tolerant and slightly more lenient than the printers
(e.g. a bare ``sqrt(13)`` is accepted); printers in the rest of the package
always emit strictly conformant text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Tuple, Union

from .exactnum import DEFAULT_D, QuadElem, ScalarPoly
from .projmat import Entries, ProjMat

#: A token; every other non-space character is an error.
_TOKEN = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\*\*|[+\-*/^()\[\],]")
#: A character that is neither space nor part of any token.
_BAD = re.compile(r"[^\s\dA-Za-z+\-*/^()\[\],]")

#: The symbols a scalar names, each its own first power.
_SYMBOLS = {"a2": ScalarPoly.alpha2(), "a3": ScalarPoly.alpha3(),
            "e": ScalarPoly.eps()}


class GrammarError(ValueError):
    """Raised for any malformed input, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokens:
    """The tokens of a text, read by index.  Where a token starts in the
    text is found again only for an error message."""

    def __init__(self, text: str):
        bad = _BAD.search(text)
        if bad:
            raise GrammarError(f"unexpected character {bad.group()!r}",
                               bad.start())
        self.text = text
        self.toks: List[str] = _TOKEN.findall(text)
        self.idx = 0

    def peek(self) -> str:
        return self.toks[self.idx] if self.idx < len(self.toks) else ""

    def pos(self, idx: Optional[int] = None) -> int:
        """Where token ``idx`` (by default the current one) starts, or the
        length of the text past the last token."""
        idx = self.idx if idx is None else idx
        match = next(islice(_TOKEN.finditer(self.text), idx, None), None)
        return len(self.text) if match is None else match.start()

    def next(self) -> str:
        if self.idx >= len(self.toks):
            raise GrammarError("unexpected end of input", len(self.text))
        self.idx += 1
        return self.toks[self.idx - 1]

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            raise GrammarError(f"expected {tok!r}, got {got!r}", self.pos())
        self.next()

    def expect_end(self) -> None:
        if self.idx != len(self.toks):
            raise GrammarError(f"trailing input {self.peek()!r}", self.pos())


def _parse_uint(ts: _Tokens) -> int:
    tok = ts.peek()
    if not tok.isdigit():
        raise GrammarError(f"expected digits, got {tok!r}", ts.pos())
    return int(ts.next())


def _parse_rational(ts: _Tokens) -> Union[int, Fraction]:
    num = _parse_uint(ts)
    if ts.peek() == "/":
        ts.next()
        at = ts.idx
        den = _parse_uint(ts)
        if den == 0:
            raise GrammarError("zero denominator", ts.pos(at))
        return Fraction(num, den)
    return num


def _parse_exponent(ts: _Tokens) -> int:
    if ts.peek() in ("^", "**"):
        ts.next()
        return _parse_uint(ts)
    return 1


def _scalar_factor(ts: _Tokens) -> ScalarPoly:
    tok = ts.peek()
    if tok == "(":
        ts.next()
        inner = _scalar_sum(ts)
        ts.expect(")")
        return inner ** _parse_exponent(ts)
    if tok.isdigit():
        return ScalarPoly.const(_parse_rational(ts))
    if tok == "sqrt":
        ts.next()
        ts.expect("(")
        at = ts.idx
        d = _parse_uint(ts)
        ts.expect(")")
        if d != DEFAULT_D:
            raise GrammarError(
                f"sqrt({d}) does not belong to Q(sqrt({DEFAULT_D}))",
                ts.pos(at))
        return ScalarPoly.const(QuadElem.sqrt_d())
    symbol = _SYMBOLS.get(tok)
    if symbol is not None:
        ts.next()
        n = _parse_exponent(ts)
        return symbol if n == 1 else symbol ** n
    raise GrammarError(f"expected a factor, got {tok!r}", ts.pos())


def _scalar_term(ts: _Tokens) -> ScalarPoly:
    poly = _scalar_factor(ts)
    while ts.peek() == "*":
        ts.next()
        poly = poly * _scalar_factor(ts)
    return poly


def _leading_sign(ts: _Tokens) -> int:
    if ts.peek() == "-":
        ts.next()
        return -1
    if ts.peek() == "+":
        ts.next()
    return 1


def _scalar_sum(ts: _Tokens) -> ScalarPoly:
    sign = _leading_sign(ts)
    acc = _scalar_term(ts)
    if sign < 0:
        acc = -acc
    while ts.peek() in ("+", "-"):
        op = ts.next()
        term = _scalar_term(ts)
        acc = acc + term if op == "+" else acc - term
    return acc


def _quad_sum(ts: _Tokens) -> QuadElem:
    at = ts.idx
    value = _scalar_sum(ts).as_const()
    if value is None:
        raise GrammarError("expected a field constant, found symbols",
                           ts.pos(at))
    return value


def _matrix(ts: _Tokens) -> Entries:
    ts.expect("[")
    rows = []
    for which in range(2):
        ts.expect("[")
        left = _quad_sum(ts)
        ts.expect(",")
        right = _quad_sum(ts)
        ts.expect("]")
        rows.extend((left, right))
        if which == 0:
            ts.expect(",")
    ts.expect("]")
    return tuple(rows)  # type: ignore[return-value]


def parse_scalar_poly(text: str) -> ScalarPoly:
    ts = _Tokens(text)
    value = _scalar_sum(ts)
    ts.expect_end()
    return value


def _memo_matrix(ts: _Tokens, memo: dict) -> ProjMat:
    """The class of ``_matrix(ts)``, kept in ``memo`` under its tokens:
    those from "[" to the "]" that closes it, since entries hold no
    brackets.  A hit thus consumes what a parse would, and only successes
    are stored; a singular matrix raises here, before any later grammar
    error in the same text."""
    depth = 0
    for end in range(ts.idx, len(ts.toks)):
        tok = ts.toks[end]
        depth += (tok == "[") - (tok == "]")
        if not depth:
            break
    key = tuple(ts.toks[ts.idx:end + 1])
    if key not in memo:
        memo[key] = ProjMat.of(_matrix(ts))
    ts.idx = end + 1
    return memo[key]


def _ring_term(ts: _Tokens, memo: dict) -> Tuple[ScalarPoly, ProjMat]:
    if ts.peek() == "[":
        return ScalarPoly.const(1), _memo_matrix(ts, memo)
    coeff = _scalar_factor(ts)
    while ts.peek() == "*":
        ts.next()
        if ts.peek() == "[":
            return coeff, _memo_matrix(ts, memo)
        coeff = coeff * _scalar_factor(ts)
    return coeff, ProjMat.identity()


def parse_ring_terms(text: str, memo: Optional[dict] = None,
                     ) -> List[Tuple[ScalarPoly, ProjMat]]:
    """Parse a sum of ``coeff*matrix`` terms (bare coefficients act on the
    identity class) into (coefficient, class) pairs, without combining.
    Each matrix is parsed once per ``memo``, which maps tokens to its
    class."""
    memo = {} if memo is None else memo
    ts = _Tokens(text)
    out = []
    sign = _leading_sign(ts)
    coeff, mat = _ring_term(ts, memo)
    out.append((coeff if sign > 0 else -coeff, mat))
    while ts.peek() in ("+", "-"):
        op = ts.next()
        coeff, mat = _ring_term(ts, memo)
        out.append((coeff if op == "+" else -coeff, mat))
    ts.expect_end()
    return out
