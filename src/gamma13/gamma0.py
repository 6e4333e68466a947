"""Congruence-subgroup structure for Gamma_0(N).

Membership is tested on the primitive integer representative of a
projective class (determinant 1 and N | c).  Level-13 elements decompose
into words over the four generators

    P = [[1,1],[0,1]]   W = [[1,0],[13,1]]
    g2 = [[2,-1],[13,-6]]   g3 = [[3,-1],[13,-4]]

by greedy height reduction -- repeatedly peel the generator whose inverse
most shrinks the largest entry -- with a bounded breadth-first rescue when
no single peel makes progress (products such as g2^-1 g3 need it).  Only
re-verified products are ever returned, so a successful decomposition is
correct by construction; exhausting the budget raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .projmat import ProjMat

DEFAULT_LEVEL = 13

GENERATORS: Dict[str, ProjMat] = {
    "P": ProjMat.of([[1, 1], [0, 1]]),
    "W": ProjMat.of([[1, 0], [13, 1]]),
    "g2": ProjMat.of([[2, -1], [13, -6]]),
    "g3": ProjMat.of([[3, -1], [13, -4]]),
}


class DecompositionError(RuntimeError):
    """The bounded search could not express the matrix as a generator word."""


@dataclass(frozen=True)
class Word:
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
        acc = ProjMat.identity()
        for gen, exp in self.letters:
            acc = acc * GENERATORS[gen] ** exp
        return acc

    def __str__(self) -> str:
        return " ".join(gen if exp == 1 else f"{gen}^{exp}"
                        for gen, exp in self.letters)


# -- membership ---------------------------------------------------------------

_IntMat = Tuple[int, int, int, int]


def _member_representative(m, level: int) -> Optional[Tuple[ProjMat, _IntMat]]:
    """The class of ``m`` with its primitive integer representative when
    that has determinant 1 and lower-left entry divisible by ``level``;
    None otherwise, including irrational or nonpositive-determinant input."""
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
    return cls, (a, b, c, d)


def is_member(m, level: int = DEFAULT_LEVEL) -> bool:
    """True iff the class of ``m`` has an integer representative with
    determinant 1 and lower-left entry divisible by ``level``."""
    return _member_representative(m, level) is not None


# -- decomposition -------------------------------------------------------------


def _mul(x: _IntMat, y: _IntMat) -> _IntMat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _normalize(x: _IntMat) -> _IntMat:
    # det-1 integer representatives of a class differ by an overall sign
    for entry in x:
        if entry:
            return x if entry > 0 else (-x[0], -x[1], -x[2], -x[3])
    raise ValueError("zero matrix")


def _height(x: _IntMat) -> int:
    return max(abs(e) for e in x)


def _adj(x: _IntMat) -> _IntMat:
    return (x[3], -x[1], -x[2], x[0])


def _letters() -> Tuple[Tuple[str, int, _IntMat], ...]:
    """(generator, exponent, matrix to left-apply when peeling it)."""
    out = []
    for gen, cls in GENERATORS.items():
        mat = tuple(e.p for e in cls.primitive_entries())
        out.append((gen, 1, _adj(mat)))   # peel gen: left-multiply by inverse
        out.append((gen, -1, mat))        # peel gen^-1: left-multiply by gen
    return tuple(out)


_LETTERS = _letters()

_IDENTITY: _IntMat = (1, 0, 0, 1)


def decompose(m, budget: int = 10 ** 6) -> Word:
    """Express a level-13 member as a word in the generators.

    Raises ValueError for non-members and DecompositionError when the
    search budget is exhausted; never returns an unverified word.
    """
    member = _member_representative(m, DEFAULT_LEVEL)
    if member is None:
        raise ValueError("matrix is not a member of the level-13 group")
    cls, rep = member
    cur = _normalize(rep)
    letters: List[Tuple[str, int]] = []
    nodes = 0
    while cur != _IDENTITY:
        h0 = _height(cur)
        best = None
        for gen, exp, apply_left in _LETTERS:
            nodes += 1
            nxt = _normalize(_mul(apply_left, cur))
            h = _height(nxt)
            if h < h0 and (best is None or (h, gen, exp) < best[:3]):
                best = (h, gen, exp, nxt)
        if nodes > budget:
            raise DecompositionError("search budget exhausted")
        if best is not None:
            letters.append((best[1], best[2]))
            cur = best[3]
            continue
        # Greedy stalled: breadth-first search for any strictly lower
        # height (or the identity) within four peels.
        found = None
        frontier: List[Tuple[Tuple[Tuple[str, int], ...], _IntMat]] = [((), cur)]
        seen = {cur}
        for _depth in range(4):
            nxt_frontier = []
            for seq, mat in frontier:
                for gen, exp, apply_left in _LETTERS:
                    nodes += 1
                    if nodes > budget:
                        raise DecompositionError("search budget exhausted")
                    nxt = _normalize(_mul(apply_left, mat))
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    step = seq + ((gen, exp),)
                    if nxt == _IDENTITY or _height(nxt) < h0:
                        found = (step, nxt)
                        break
                    nxt_frontier.append((step, nxt))
                if found:
                    break
            if found:
                break
            frontier = nxt_frontier
        if found is None:
            raise DecompositionError(
                "height reduction stalled beyond the search horizon")
        letters.extend(found[0])
        cur = found[1]
    word = Word.of(letters)
    if word.evaluate() != cls:
        raise DecompositionError("internal error: word failed verification")
    return word
