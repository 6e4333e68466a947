"""The group ring of projective matrix classes.

A :class:`RingElem` is a finite formal sum ``sum coeff_i * [M_i]`` where each
``M_i`` is a positive-determinant projective class and each coefficient is a
:class:`~gamma13.exactnum.ScalarPoly`.  These are the objects congruence
certificates manipulate.  Their +, -, product loop, hash, pickling and
text come from ``exactnum._FormalSum``, which ScalarPoly shares; here the
key product ``_key_mul`` is the class product.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple, Union

from .exactnum import QuadElem, ScalarPoly, _FormalSum
from .projmat import Mat2, MatrixLike, ProjMat
from . import grammar

Coeff = Union[int, Fraction, QuadElem, ScalarPoly]
_SCALARS = (int, Fraction, QuadElem, ScalarPoly)


class RingElem(_FormalSum):
    """A formal sum of projective matrix classes with ScalarPoly weights,
    canonical as a map from class to nonzero coefficient; the terms have an
    order only in :meth:`terms`, which text is written from."""

    __slots__ = ()

    def __new__(cls, terms: Mapping[ProjMat, ScalarPoly]) -> "RingElem":
        return cls._normal(terms)

    # -- construction ----------------------------------------------------

    @classmethod
    def zero(cls) -> "RingElem":
        return cls._normal({})

    @classmethod
    def one(cls) -> "RingElem":
        return cls.of(ProjMat.identity())

    @classmethod
    def of(cls, x) -> "RingElem":
        if isinstance(x, RingElem):
            return x
        if isinstance(x, (ProjMat, Mat2, list, tuple)):
            return cls._normal({ProjMat.of(x): ScalarPoly.const(1)})
        if isinstance(x, _SCALARS):
            coeff = x if isinstance(x, ScalarPoly) else ScalarPoly.const(x)
            return cls._normal({ProjMat.identity(): coeff})
        raise TypeError(f"cannot build a ring element from {x!r}")

    @classmethod
    def parse(cls, text: str, memo: Optional[dict] = None) -> "RingElem":
        """The element ``text`` writes.  ``memo`` maps each ring text
        parsed with it to its value, beside the grammar's own entries."""
        memo = {} if memo is None else memo
        # a text that is no str (so maybe unhashable) fails in the grammar
        if isinstance(text, str) and text in memo:
            return memo[text]
        acc: dict = {}
        for coeff, mat in grammar.parse_ring_terms(text, memo):
            acc[mat] = acc[mat] + coeff if mat in acc else coeff
        return memo.setdefault(text, cls._normal(acc))

    # -- inspection ------------------------------------------------------------

    def terms(self) -> List[Tuple[ProjMat, ScalarPoly]]:
        """(class, coefficient) pairs by the coordinates of the entries."""
        return sorted(self._terms.items(), key=lambda kv: [
            (e.a, e.b) for e in kv[0].entries])

    def coeff_of(self, mat: MatrixLike) -> ScalarPoly:
        return self._terms.get(ProjMat.of(mat), ScalarPoly.const(0))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> Optional["RingElem"]:
        if isinstance(other, (RingElem, *_SCALARS, ProjMat, Mat2)):
            return RingElem.of(other)
        return None

    def _scaled(self, s: Coeff) -> "RingElem":
        """Each coefficient times the scalar ``s``: the product with
        ``s`` times the identity class, without the class products."""
        s = s if isinstance(s, ScalarPoly) else ScalarPoly.const(s)
        return self._normal({m: c * s for m, c in self._terms.items()})

    _key_mul = operator.mul

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return self._times(other)

    def __rmul__(self, other):
        # scalars commute with every class
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = _FormalSum.__hash__

    # -- text -------------------------------------------------------------------

    _text_terms = terms

    @staticmethod
    def _term_str(mat: ProjMat, coeff: ScalarPoly) -> Tuple[str, str]:
        """(sign, body) for one term, with the sign pulled out when easy."""
        sign = "+"
        terms = coeff.terms()
        if len(terms) == 1 and terms[0][1].sign() < 0:
            sign = "-"
            coeff = -coeff
        coeff_str = str(coeff)
        if len(terms) > 1:
            coeff_str = f"({coeff_str})"
        if mat.is_identity:
            return sign, coeff_str
        if coeff == ScalarPoly.const(1):
            return sign, str(mat)
        return sign, f"{coeff_str}*{mat}"

