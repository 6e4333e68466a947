"""Exact 2x2 matrices over Q(sqrt(13)) and their projective classes.

The field is fixed, as in :mod:`gamma13.exactnum`: entries are coerced to
:class:`~gamma13.exactnum.QuadElem` and no matrix carries a field of its own.

:class:`Mat2` is a plain matrix with exact entries, kept for the determinant
a class forgets: the level-13 diagonalization data and the tests' reference.
:class:`ProjMat` is the class of a matrix modulo nonzero scalar multiples,
restricted to positive determinant (scaling by r multiplies the determinant
by r^2 > 0, so the sign is an invariant of the class).  ProjMat instances are
canonicalized -- the first nonzero entry in row-major order is scaled to 1 --
which makes equality and hashing structural.  A positive determinant puts
that entry in the top row.  Products and inverses of classes work on the
canonical entries directly: det(AB) = det A * det B and det(adj A) = det A
are positive already, so only a construction from outside checks the
determinant, and a result is rescaled only when its leading entry is not 1.
Each entry is a reduced integer triple (p + q*sqrt(13))/r, so the primitive
representative (coprime integer components, used for text and for Gamma_0(N)
membership) is read off the triples with one lcm and one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence, Tuple, Union

from .exactnum import QuadElem, Scalar, binary_power

MatrixLike = Union["Mat2", "ProjMat", Sequence]
#: Matrix entries as a flat (top-left, top-right, bottom-left, bottom-right).
Entries = Tuple[QuadElem, QuadElem, QuadElem, QuadElem]

_ONE = QuadElem.of(1)


def _flat(rows: MatrixLike) -> Sequence:
    """The four entries, uncoerced, of a Mat2, two rows or a flat list."""
    flat = list(rows.entries() if isinstance(rows, Mat2) else rows)
    if len(flat) == 2:
        flat = list(flat[0]) + list(flat[1])
    if len(flat) != 4:
        raise ValueError("expected 2x2 matrix data")
    return flat


def _product(x: Entries, y: Entries) -> Entries:
    """The entries of the 2x2 product of matrices with entries x and y."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class Mat2(NamedTuple):
    """An exact 2x2 matrix [[a, b], [c, d]] over Q(sqrt(13))."""

    a: QuadElem
    b: QuadElem
    c: QuadElem
    d: QuadElem

    # -- construction ----------------------------------------------------

    @classmethod
    def of(cls, rows: MatrixLike) -> "Mat2":
        return cls(*[QuadElem.of(x) for x in _flat(rows)])

    @classmethod
    def identity(cls) -> "Mat2":
        return cls.of([[1, 0], [0, 1]])

    # -- inspection ---------------------------------------------------------

    def entries(self) -> Entries:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> QuadElem:
        return self.a * self.d - self.b * self.c

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(*_product(self.entries(), other.entries()))
        if isinstance(other, (int, Fraction, QuadElem)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadElem)):
            return self.scale(other)
        return NotImplemented

    def scale(self, r: Scalar) -> "Mat2":
        r = QuadElem.of(r)
        return Mat2(r * self.a, r * self.b, r * self.c, r * self.d)

    def __neg__(self) -> "Mat2":
        return self.scale(-1)

    def inv(self) -> "Mat2":
        det = self.det()
        if det.is_zero:
            raise ZeroDivisionError("singular matrix")
        return Mat2(self.d, -self.b, -self.c, self.a).scale(det.inv())

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            return self.inv() ** (-n)
        return binary_power(self, n, Mat2.identity())

    # -- text -----------------------------------------------------------------

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def __repr__(self) -> str:
        return f"Mat2({self})"


def _canonical(entries: Entries) -> Entries:
    """``entries`` of a positive-determinant matrix scaled so that the first
    nonzero one, which lies in the top row, is 1."""
    a, b, c, d = entries
    lead = b if a.is_zero else a
    if lead == _ONE:
        return entries
    inv = lead.inv()
    return (inv * a, inv * b, inv * c, inv * d)


def _class(entries: Entries) -> "ProjMat":
    """The class whose canonical entries are ``entries``, unchecked."""
    mat = object.__new__(ProjMat)
    object.__setattr__(mat, "_entries", entries)
    return mat


def _primitive(entries: Tuple[QuadElem, ...]) -> Tuple[QuadElem, ...]:
    """Rescale so all rational components are coprime integers."""
    denom = lcm(*(e.r for e in entries))
    nums = [c * (denom // e.r) for e in entries for c in (e.p, e.q)]
    common = gcd(*nums) or 1
    return tuple(QuadElem(nums[i] // common, nums[i + 1] // common)
                 for i in range(0, 8, 2))


class ProjMat:
    """A positive-determinant 2x2 matrix up to nonzero scalar multiples."""

    __slots__ = ("_entries", "_hash")  # _hash is set by the first __hash__

    def __init__(self, rows: MatrixLike):
        entries = tuple(QuadElem.of(x) for x in _flat(rows))
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det.sign() <= 0:
            raise ValueError(
                f"projective class requires positive determinant, got {det} "
                f"for [[{entries[0]},{entries[1]}],[{entries[2]},{entries[3]}]]")
        object.__setattr__(self, "_entries", _canonical(entries))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("ProjMat is immutable")

    def __reduce__(self):  # the cached hash is left out
        return ProjMat, (self._entries,)

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, rows: MatrixLike) -> "ProjMat":
        return rows if isinstance(rows, ProjMat) else cls(rows)

    @classmethod
    def identity(cls) -> "ProjMat":
        return _IDENTITY

    # -- inspection -----------------------------------------------------------

    @property
    def entries(self) -> Entries:
        return self._entries

    @property
    def mat(self) -> Mat2:
        """The canonical representative as a plain matrix."""
        return Mat2(*self._entries)

    @property
    def is_identity(self) -> bool:
        return self == _IDENTITY

    def primitive_entries(self) -> Entries:
        """The representative with coprime integer components."""
        return _primitive(self._entries)

    # -- group structure ----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, ProjMat):
            return NotImplemented
        return _class(_canonical(_product(self._entries, other._entries)))

    def inv(self) -> "ProjMat":
        # the adjugate represents the same class as the inverse
        a, b, c, d = self._entries
        return _class(_canonical((d, -b, -c, a)))

    def __pow__(self, n: int) -> "ProjMat":
        if n < 0:
            return self.inv() ** (-n)
        return binary_power(self, n, _IDENTITY)

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ProjMat):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._entries))
            return self._hash

    def __str__(self) -> str:
        a, b, c, d = self.primitive_entries()
        return f"[[{a},{b}],[{c},{d}]]"

    def __repr__(self) -> str:
        return f"ProjMat({self})"


_IDENTITY = ProjMat((1, 0, 0, 1))  # immutable, so one instance serves
