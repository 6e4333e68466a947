"""The group ring of projective matrix classes, and the weight-k action.

A :class:`RingElem` is a finite formal sum ``sum coeff_i * [M_i]`` where each
``M_i`` is a positive-determinant projective class and each coefficient is a
:class:`~gamma13.exactnum.ScalarPoly`.  These are the objects congruence
certificates manipulate.

The weight-k "slash" action on exact rational functions,

    (f | M)(z) = det(M)^(k/2) (cz + d)^(-k) f((az + b) / (cz + d)),

is implemented by homogenization, so results stay exact rational functions.
Only even k is supported (half-integer powers never arise then, and the
action is invariant under rescaling M).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

from .exactnum import Poly, QuadElem, RatFunc, ScalarPoly
from .projmat import Mat2, MatrixLike, ProjMat
from . import grammar

Coeff = Union[int, Fraction, QuadElem, ScalarPoly]


class RingElem:
    """A formal sum of projective matrix classes with ScalarPoly weights."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ProjMat, ScalarPoly]):
        items = sorted(((mat, coeff) for mat, coeff in terms.items()
                        if not coeff.is_zero), key=lambda kv: kv[0].sort_key())
        object.__setattr__(self, "_terms", tuple(items))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("RingElem is immutable")

    # -- construction ----------------------------------------------------

    @classmethod
    def zero(cls) -> "RingElem":
        return cls({})

    @classmethod
    def one(cls) -> "RingElem":
        return cls.of(ProjMat.identity())

    @classmethod
    def of(cls, x) -> "RingElem":
        if isinstance(x, RingElem):
            return x
        if isinstance(x, (ProjMat, Mat2, list, tuple)):
            return cls({ProjMat.of(x): ScalarPoly.const(1)})
        if isinstance(x, (int, Fraction, QuadElem, ScalarPoly)):
            coeff = x if isinstance(x, ScalarPoly) else ScalarPoly.const(x)
            return cls({ProjMat.identity(): coeff})
        raise TypeError(f"cannot build a ring element from {x!r}")

    @classmethod
    def parse(cls, text: str) -> "RingElem":
        acc: dict = {}
        for coeff, entries in grammar.parse_ring_terms(text):
            mat = ProjMat.of(entries)
            acc[mat] = acc.get(mat, ScalarPoly.const(0)) + coeff
        return cls(acc)

    # -- inspection ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterable[Tuple[ProjMat, ScalarPoly]]:
        return self._terms

    def coeff_of(self, mat: MatrixLike) -> ScalarPoly:
        target = ProjMat.of(mat)
        for m, c in self._terms:
            if m == target:
                return c
        return ScalarPoly.const(0)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> Optional["RingElem"]:
        if isinstance(other, RingElem):
            return other
        if isinstance(other, (int, Fraction, QuadElem, ScalarPoly, ProjMat, Mat2)):
            return RingElem.of(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for mat, coeff in o._terms:
            acc[mat] = acc.get(mat, ScalarPoly.const(0)) + coeff
        return RingElem(acc)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> "RingElem":
        return RingElem({m: -c for m, c in self._terms})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict = {}
        for m1, c1 in self._terms:
            for m2, c2 in o._terms:
                mat = m1 * m2
                prod = c1 * c2
                if mat in acc:
                    acc[mat] = acc[mat] + prod
                else:
                    acc[mat] = prod
        return RingElem(acc)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    # -- text -------------------------------------------------------------------

    @staticmethod
    def _term_str(mat: ProjMat, coeff: ScalarPoly) -> Tuple[str, str]:
        """(sign, body) for one term, with the sign pulled out when easy."""
        sign = "+"
        terms = list(coeff.terms())
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

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = [self._term_str(m, c) for m, c in self._terms]
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"RingElem({self})"


def _homogenize(p: Poly, u: Poly, v: Poly, degree: int) -> Poly:
    """sum p_i * u^i * v^(degree - i)."""
    total = Poly.zero()
    for i, c in enumerate(p.coeffs):
        if c.is_zero:
            continue
        total = total + c * (u ** i) * (v ** (degree - i))
    return total


def stroke_ratfunc(f: RatFunc, m: Mat2, k: int) -> RatFunc:
    """Apply the weight-k slash action of m to an exact rational function."""
    if k % 2:
        raise ValueError(f"weight must be even, got {k}")
    det = m.det()
    if det.is_zero:
        raise ZeroDivisionError("slash action of a singular matrix")
    if f.is_zero:
        return f
    u = Poly([m.b, m.a])
    v = Poly([m.d, m.c])
    deg_num, deg_den = f.num.degree, f.den.degree
    hom_num = _homogenize(f.num, u, v, deg_num)
    hom_den = _homogenize(f.den, u, v, deg_den)
    shift = deg_den - deg_num - k
    num = RatFunc.const(det ** (k // 2)) * hom_num
    if shift >= 0:
        num = num * v ** shift
    else:
        hom_den = hom_den * v ** (-shift)
    return num * RatFunc.from_poly(hom_den).inv()


def stroke_of_power(k: int, m: Mat2) -> RatFunc:
    """The weight-k slash action of m applied to z^(-k/2)."""
    if k % 2:
        raise ValueError(f"weight must be even, got {k}")
    return stroke_ratfunc(RatFunc.z_power(-k // 2), m, k)
