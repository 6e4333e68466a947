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

A ring text is first read with each well-formed matrix ``[[a,b],[c,d]]``
(entries free of brackets and commas) as one token.  A memo that lives for
one caller's batch, such as one certificate load, maps the exact text of
each such token to its class, and each entry or scalar text to its value,
so none is read twice.  Those keys are tuples, so the memo can also hold
whole ring texts under their strings, as ``RingElem.parse`` keeps them.
A text this reading rejects is read again token by token, so every error
names the message and position of that token grammar.
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
#: The form of a matrix, {0} standing for an entry, which holds no bracket
#: or comma; every text ``_matrix`` accepts has it.
_MATRIX_FORM = r"\[\s*\[{0},{0}\]\s*,\s*\[{0},{0}\]\s*\]"
#: Such a matrix, with its entries a, b, c, d as groups.
_MATRIX = re.compile(_MATRIX_FORM.format(r"([^\[\],]*)"))
#: A token of a ring text: such a matrix, whole, or a token.
_RING_TOKEN = re.compile(_MATRIX_FORM.format(r"[^\[\],]*") + "|"
                         + _TOKEN.pattern)
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
    """The tokens ``pattern`` finds in a text, read by index.  Where a
    token starts in the text is found again only for an error message."""

    def __init__(self, text: str, pattern: re.Pattern = _TOKEN):
        bad = _BAD.search(text)
        if bad:
            raise GrammarError(f"unexpected character {bad.group()!r}",
                               bad.start())
        self.text = text
        self.pattern = pattern
        self.toks: List[str] = pattern.findall(text)
        self.idx = 0

    def peek(self) -> str:
        return self.toks[self.idx] if self.idx < len(self.toks) else ""

    def pos(self, idx: Optional[int] = None) -> int:
        """Where token ``idx`` (by default the current one) starts, or the
        length of the text past the last token."""
        idx = self.idx if idx is None else idx
        match = next(islice(self.pattern.finditer(self.text), idx, None),
                     None)
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


def _read(parse, text: str, memo: dict):
    """``parse`` of the whole of ``text``, kept in ``memo`` under
    ``(parse, text)``."""
    key = (parse, text)
    if key not in memo:
        ts = _Tokens(text)
        value = parse(ts)
        ts.expect_end()
        memo[key] = value
    return memo[key]


def parse_scalar_poly(text: str, memo: Optional[dict] = None) -> ScalarPoly:
    """The polynomial ``text`` writes, read once per ``memo``."""
    return _read(_scalar_sum, text, {} if memo is None else memo)


#: The coefficient of a bare matrix term, shared: a ScalarPoly is immutable.
_ONE = ScalarPoly.const(1)


def _class(ts: _Tokens, memo: dict) -> ProjMat:
    """The class of the matrix at the current token.  A matrix token is
    read once per ``memo``, under its exact text, as spacing can decide
    whether a text is well formed, and so is each distinct entry in it.
    Only successes are stored, and a singular matrix raises here, before
    any later grammar error in the same text.  A lone "[" starts a matrix
    the token does not match, read by ``_matrix``."""
    tok = ts.peek()
    if tok == "[":
        return ProjMat.of(_matrix(ts))
    ts.next()
    key = (ProjMat, tok)
    if key not in memo:
        entries = _MATRIX.fullmatch(tok).groups()
        memo[key] = ProjMat.of(tuple(_read(_quad_sum, entry, memo)
                                     for entry in entries))
    return memo[key]


def _ring_term(ts: _Tokens, memo: dict) -> Tuple[ScalarPoly, ProjMat]:
    if ts.peek()[:1] == "[":
        return _ONE, _class(ts, memo)
    coeff = _scalar_factor(ts)
    while ts.peek() == "*":
        ts.next()
        if ts.peek()[:1] == "[":
            return coeff, _class(ts, memo)
        coeff = coeff * _scalar_factor(ts)
    return coeff, ProjMat.identity()


def parse_ring_terms(text: str, memo: Optional[dict] = None,
                     ) -> List[Tuple[ScalarPoly, ProjMat]]:
    """Parse a sum of ``coeff*matrix`` terms (bare coefficients act on the
    identity class) into (coefficient, class) pairs, without combining.
    Each matrix token and entry is read once per ``memo``."""
    memo = {} if memo is None else memo
    try:
        return _ring_sum(_Tokens(text, _RING_TOKEN), memo)
    except GrammarError:
        # a matrix token hides where in it a fault lies, and the token after
        # a lone "[" may be one: the token grammar names the fault
        return _ring_sum(_Tokens(text), memo)


def _ring_sum(ts: _Tokens, memo: dict) -> List[Tuple[ScalarPoly, ProjMat]]:
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
