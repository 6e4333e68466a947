"""Congruence-subgroup structure for Gamma_0(N).

Membership is tested on the primitive integer representative of a
projective class (determinant 1 and N | c).  At level 13, ``decompose``
writes a member as a word over

    P = [[1,1],[0,1]]   W = [[1,0],[13,1]]
    g2 = [[2,-1],[13,-6]]   g3 = [[3,-1],[13,-4]]

when it can.  These do not generate all of Gamma_0(13): its image in
PSL_2(Z) is Z * Z/2 * Z/2 * Z/3 * Z/3 (genus 0, two cusps, two elliptic
points of each order), of rank 5 by Grushko's theorem, so a member outside
<P, W, g2, g3>, such as [[8,-5],[13,-8]], raises DecompositionError.

The search runs on integer 4-tuples in one loop.  Each round is a
breadth-first search of at most four one-letter peels off the left, plus
at depth one the powers of P and W read off the entries by rounding.  At
the shallowest depth that lowers the height (largest |entry|) or reaches
the identity it takes the node of least (height, letters), so depth one is
greedy height reduction.  A word is returned only after its integer
product is checked, and a search past its node cap raises.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .exactnum import binary_power
from .projmat import ProjMat, _product as _entries_product

DEFAULT_LEVEL = 13

_IntMat = Tuple[int, int, int, int]

_MATRICES: Dict[str, _IntMat] = {"P": (1, 1, 0, 1), "W": (1, 0, 13, 1),
                                 "g2": (2, -1, 13, -6), "g3": (3, -1, 13, -4)}

GENERATORS: Dict[str, ProjMat] = {
    gen: ProjMat.of(mat) for gen, mat in _MATRICES.items()}

_IDENTITY: _IntMat = (1, 0, 0, 1)

#: Search nodes one decomposition may visit before it gives up.
_MAX_NODES = 10 ** 6


class DecompositionError(RuntimeError):
    """The search could not express the matrix as a generator word."""


def _product(letters: Iterable[Tuple[str, int]]) -> _IntMat:
    """The integer matrix of a word, each power by binary powering (at
    determinant 1 the adjugate is the inverse)."""
    acc = _IDENTITY
    for gen, exp in letters:
        a, b, c, d = _MATRICES[gen]
        base = (a, b, c, d) if exp > 0 else (d, -b, -c, a)
        acc = _entries_product(acc, binary_power(base, abs(exp), _IDENTITY,
                                                  _entries_product))
    return acc


def _normalize(x: _IntMat) -> _IntMat:
    # det-1 integer representatives of a class differ by an overall sign
    for entry in x:
        if entry:
            return x if entry > 0 else (-x[0], -x[1], -x[2], -x[3])
    raise ValueError("zero matrix")


def _height(x: _IntMat) -> int:
    return max(abs(e) for e in x)


class Word(NamedTuple):
    """A reduced word over the four generators: adjacent letters differ."""

    letters: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def of(cls, pairs: Iterable[Tuple[str, int]]) -> "Word":
        reduced: List[Tuple[str, int]] = []
        for gen, exp in pairs:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")
            exp = int(exp)
            if exp == 0:
                raise ValueError("word exponents must be nonzero")
            if reduced and reduced[-1][0] == gen:
                merged = reduced[-1][1] + exp
                reduced.pop()
                if merged:
                    reduced.append((gen, merged))
            else:
                reduced.append((gen, exp))
        return cls(tuple(reduced))

    def evaluate(self) -> ProjMat:
        return ProjMat.of(_product(self.letters))

    def __str__(self) -> str:
        return " ".join(gen if exp == 1 else f"{gen}^{exp}"
                        for gen, exp in self.letters)


# -- membership ---------------------------------------------------------------


def _member_representative(m, level: int) -> Optional[_IntMat]:
    """The primitive integer representative of the class of ``m`` when it
    has determinant 1 and lower-left entry divisible by ``level``; None
    otherwise, including irrational or nonpositive-determinant input."""
    try:
        cls = m if isinstance(m, ProjMat) else ProjMat.of(m)
    except ValueError:
        return None
    entries = cls.primitive_entries()
    if any(e.q for e in entries):
        return None
    a, b, c, d = (e.p for e in entries)
    if a * d - b * c != 1 or c % level:
        return None
    return a, b, c, d


def is_member(m, level: int = DEFAULT_LEVEL) -> bool:
    """True iff the class of ``m`` has an integer representative with
    determinant 1 and lower-left entry divisible by ``level``."""
    return _member_representative(m, level) is not None


# -- decomposition -------------------------------------------------------------

#: (generator, exponent, matrix that peels gen^exp when left-multiplied).
_PEELS = tuple((gen, exp, _product([(gen, -exp)]))
               for gen in _MATRICES for exp in (-1, 1))


def _peels(x: _IntMat, depth: int):
    """The peels from ``x`` in ascending (generator, exponent) order: the
    eight letters, and at depth zero also each P^q or W^q whose q is the
    rounded quotient of two entries that peeling it cancels."""
    if depth:
        return _PEELS
    a, b, c, d = x
    runs = [(gen, (2 * num + den) // (2 * den))   # num / den, rounded
            for gen, num, den in (("P", b, d), ("P", a, c),
                                  ("W", c, 13 * a), ("W", d, 13 * b)) if den]
    return sorted(_PEELS + tuple((gen, q, _product([(gen, -q)]))
                                 for gen, q in runs if abs(q) > 1))


def decompose(m) -> Word:
    """Express a level-13 member as a word in the generators.

    Raises ValueError for non-members and DecompositionError when the
    search stalls or exhausts its node cap; never returns an unverified word.
    """
    rep = _member_representative(m, DEFAULT_LEVEL)
    if rep is None:
        raise ValueError("matrix is not a member of the level-13 group")
    start = cur = _normalize(rep)
    letters: List[Tuple[str, int]] = []
    nodes = 0
    while cur != _IDENTITY:
        h0, frontier, seen = _height(cur), [((), cur)], {cur}
        for depth in range(4):
            children = []
            for path, x in frontier:
                for gen, exp, peel in _peels(x, depth):
                    nodes += 1
                    if nodes > _MAX_NODES:
                        raise DecompositionError("search budget exhausted")
                    y = _normalize(_entries_product(peel, x))
                    if y not in seen:
                        seen.add(y)
                        children.append((path + ((gen, exp),), y))
            found = [(_height(y), path, y) for path, y in children
                     if y == _IDENTITY or _height(y) < h0]
            if found:
                break
            frontier = children
        if not found:
            raise DecompositionError(
                "height reduction stalled beyond the search horizon; the matrix"
                " may lie outside the subgroup that P, W, g2 and g3 generate")
        _, path, cur = min(found)
        letters.extend(path)
    word = Word.of(letters)
    if _normalize(_product(word.letters)) != start:
        raise DecompositionError("internal error: word failed verification")
    return word
