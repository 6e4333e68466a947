"""Level-13 generator data and the shipped derivation chains.

This module fixes the concrete matrices of the level-13 argument -- the
translation P, the Fricke involution H, the parabolic W, the elliptic
generators g2 and g3, the three reflection classes (the "hatted deltas"),
and the diagonalizing basis A -- and builds the two certificates that replay
the whole derivation:

* the f-context certificate: from the four axioms (P == 1, H == e,
  T2 == a2, T3 == a3, with the Hecke coset sums ``t_sum(2)`` and
  ``t_sum(3)``) it derives W == 1, g2 == 1, and the three factored
  annihilators ``(1 - g3)(1 -+ ...) == 0`` named delta1, delta3, delta2;
  HT2 and HT3, the Hecke axioms conjugated by H, come from one chain in p;
* the g-context certificate: from the reflection axioms it derives the
  sign bookkeeping for words in h2 = delta2*delta1 and h3 = delta3*delta1.
  One table holds each reflection's class and sign, and feeds both the
  axioms and every word the chains fold.

The chains are uniform in the level N wherever possible; only the final
``delta2`` step needs N = 13, because g3^-1 g2 is an involution exactly
when its trace (13 - N)/6 vanishes.

The module also hosts the exact checks that close the argument:
``blowup_check`` (the z -> 0 behaviour of
z^{-k/2} + z^{-k/2}|B + z^{-k/2}|B^2 for B = A^-1 g3 A) and
``tilde_g_check`` (the eigen-signs of z^{-k/2}|A^-1 under the three
reflections).  Both use the weight-k slash of z^{-k/2} in closed form,

    (z^{-k/2} | M)(z) = (det(M) / ((az + b)(cz + d)))^{k/2},

and reduce their premises to facts about the entries of a few exact
matrices, which hold at every even weight; only the negative weights of
``blowup_check`` evaluate anything that grows with |k|.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from .certificate import CertBuilder, Certificate, Congruence
from .exactnum import QuadElem, ScalarPoly
from .gamma0 import DEFAULT_LEVEL, GENERATORS
from .groupring import RingElem
from .projmat import Mat2, ProjMat

def h_class(level: int = DEFAULT_LEVEL) -> ProjMat:
    return ProjMat.of([[0, -1], [level, 0]])


def g3_class(level: int = DEFAULT_LEVEL) -> ProjMat:
    return ProjMat.of([[9, -3], [3 * level, 1 - level]])


def delta1_class(level: int = DEFAULT_LEVEL) -> ProjMat:
    return ProjMat.of([[3 * level, -(level + 1)], [9 * level, -3 * level]])


def delta3_class(level: int = DEFAULT_LEVEL) -> ProjMat:
    return ProjMat.of([[4 * level, -16],
                       [level * (level + 1), -4 * level]])


# The fixed level-13 classes.
P_CLASS, G3 = GENERATORS["P"], GENERATORS["g3"]
DELTA1_HAT, DELTA3_HAT = delta1_class(13), delta3_class(13)
DELTA2_HAT = ProjMat.of([[5, -2], [13, -5]])
# Each reflection's step id, with its class and the sign that its axiom
# ax:delta<i> gives it in the g-context.
_REFLECTIONS = {"delta1hat": (DELTA1_HAT, ScalarPoly.eps()),
                "delta2hat": (DELTA2_HAT, ScalarPoly.const(-1)),
                "delta3hat": (DELTA3_HAT, ScalarPoly.eps())}
# The Hecke primes of the f-context, each with its eigenvalue symbol.
_HECKE = ((2, ScalarPoly.alpha2()), (3, ScalarPoly.alpha3()))


def t_sum(p: int) -> RingElem:
    """The Hecke coset sum T_p = [[p,0],[0,1]] + sum_{j mod p} [[1,j],[0,p]]."""
    return sum((RingElem.of([[1, j], [0, p]]) for j in range(p)),
               RingElem.of([[p, 0], [0, 1]]))


# -- diagonalization data ---------------------------------------------------


def a_matrix() -> Mat2:
    """The basis in which h2 and h3 are simultaneously diagonal."""
    s = QuadElem.sqrt_d()
    return Mat2.of([[(13 + s) / 39, (13 - s) / 39], [1, 1]])


def a_inverse() -> Mat2:
    return a_matrix().inv()


def h2_mat() -> Mat2:
    """The determinant-1 hyperbolic element delta2 * delta1.

    Public because the acceptance test of the exact matrix identities
    checks the diagonalization A^-1 h2 A = diag(lambda-, lambda+), which
    needs this matrix itself: its projective class fixes it, and so the
    eigenvalues, only up to a scalar.
    """
    s = QuadElem.sqrt_d()
    return Mat2.of([[-s, 8 * s / 39], [-2 * s, s / 3]])


def h3_mat() -> Mat2:
    """The determinant-1 hyperbolic element delta3 * delta1.

    Public for the same reason as :func:`h2_mat`: the acceptance test
    checks the exact diagonalization A^-1 h3 A = diag(mu-, mu+).
    """
    return Mat2.of([[-1, Fraction(2, 3)],
                    [Fraction(-13, 2), Fraction(10, 3)]])


def conjugated_g3_matrices() -> Tuple[Mat2, Mat2]:
    """A^-1 g3 A and A^-1 g3^2 A for the determinant-1 form of g3."""
    a = a_matrix()
    ainv = a_inverse()
    b = ainv * Mat2.of([[3, -1], [13, -4]]) * a
    return b, b * b


# -- contexts ---------------------------------------------------------------


def _f_builder(level: int) -> CertBuilder:
    """A builder holding the f-context axioms P, H, T2 and T3 at a level."""
    b = CertBuilder(level)
    b.axiom("ax:P", RingElem.of(P_CLASS), RingElem.one())
    b.axiom("ax:H", RingElem.of(h_class(level)),
            RingElem.of(ScalarPoly.eps()))
    for p, alpha in _HECKE:
        b.axiom(f"ax:T{p}", t_sum(p), RingElem.of(alpha))
    return b


def _g_builder() -> CertBuilder:
    """The reflection axioms, each restated as a step named after its
    class: the common start of every g-context derivation."""
    b = CertBuilder(DEFAULT_LEVEL)
    for step_id, (cls, sign) in _REFLECTIONS.items():
        ax_id = "ax:" + step_id.removesuffix("hat")
        b.axiom(ax_id, RingElem.of(cls), RingElem.of(sign))
        b.step(step_id, "AXIOM", ax_id)
    return b


def f_context(level: int = DEFAULT_LEVEL) -> Certificate:
    """The four f-context axioms at a level, as a certificate without
    steps."""
    return _f_builder(level).build()


# -- the f-context certificate ------------------------------------------------


def _square_t2_steps(b: CertBuilder) -> None:
    """Square the T2 axiom and isolate the two H-symmetric upper-triangular
    terms; emits steps ``t2sq.*`` through ``H4pre``.

    Level-independent: no step below touches H or W.
    """
    a2 = ScalarPoly.alpha2()
    b.step("t2sq.a", "RIGHT_MUL", "T2", t_sum(2))
    b.step("t2sq.b", "SCALE", "T2", a2)
    squared = (2 * RingElem.one() + RingElem.of([[1, 1], [0, 1]])
               + RingElem.of([[4, 0], [0, 1]]) + RingElem.of([[1, 0], [0, 4]])
               + RingElem.of([[1, 1], [0, 4]]) + RingElem.of([[2, 1], [0, 2]])
               + RingElem.of([[1, 2], [0, 4]]) + RingElem.of([[1, 3], [0, 4]]))
    b.step("t2sq", "ADD", "t2sq.a", "t2sq.b", lhs=squared,
           rhs=RingElem.of(a2 * a2))
    b.step("t2d2", "RIGHT_MUL", "T2", RingElem.of([[2, 0], [0, 1]]))
    b.step("t2d2p", "RIGHT_MUL", "T2", RingElem.of([[1, 0], [0, 2]]))
    b.step("t2d2.neg", "SCALE", "t2d2", ScalarPoly.const(-1))
    b.step("t2d2p.neg", "SCALE", "t2d2p", ScalarPoly.const(-1))
    b.step("h4.a", "ADD", "t2sq", "t2d2.neg")
    x = RingElem.of([[1, 1], [0, 4]]) + RingElem.of([[1, 3], [0, 4]])
    rhs = (RingElem.of(a2 * a2) - RingElem.of([[1, 1], [0, 1]])
           - a2 * RingElem.of([[2, 0], [0, 1]])
           - a2 * RingElem.of([[1, 0], [0, 2]]))
    b.step("H4pre", "ADD", "h4.a", "t2d2p.neg", lhs=x, rhs=rhs)


def build_f_certificate(level: int = DEFAULT_LEVEL) -> Certificate:
    b = _f_builder(level)
    n = level
    e = ScalarPoly.eps()
    one = RingElem.one()
    h_elem = RingElem.of(h_class(n))

    for name in ("P", "H", "T2", "T3"):
        b.step(name, "AXIOM", "ax:" + name)

    # P^-1 == 1
    b.step("pinv.a", "RIGHT_MUL", "P", RingElem.of([[1, -1], [0, 1]]))
    b.step("Pinv", "SYM", "pinv.a")

    # W == 1: stroke H through P^-1 H, then cancel the two e factors.
    b.step("w.a", "RIGHT_MUL", "H", RingElem.of([[-n, -1], [n, 0]]))
    b.step("w.b", "RIGHT_MUL", "Pinv", h_elem)
    b.step("w.c", "TRANS", "w.b", "H")
    b.step("w.d", "SCALE", "w.c", e)
    b.step("W", "TRANS", "w.a", "w.d")

    # H * P^-1 == e, the workhorse behind "replace M by e*H*P^-1*M".
    b.step("hpinv.a", "RIGHT_MUL", "H", RingElem.of([[1, -1], [0, 1]]))
    b.step("hpinv.b", "SCALE", "Pinv", e)
    b.step("HPinv", "TRANS", "hpinv.a", "hpinv.b")

    def hp_replace(prefix: str, mat: RingElem) -> None:
        """prefix: e * (H P^-1 M) == M."""
        b.step(prefix + ".a", "RIGHT_MUL", "HPinv", mat)
        b.step(prefix, "SCALE", prefix + ".a", e)

    def h_replace(prefix: str, mat: RingElem, s: ScalarPoly = e) -> None:
        """prefix: s*e * M == s * (H M), so M == e * (H M) for s = e."""
        b.step(prefix + ".a", "RIGHT_MUL", "H", mat)
        b.step(prefix + ".b", "SCALE", prefix + ".a", s)
        b.step(prefix, "SYM", prefix + ".b")

    def w_replace(prefix: str, mat: RingElem) -> None:
        """prefix: (W M) == M."""
        b.step(prefix, "RIGHT_MUL", "W", mat)

    # HT2, HT3: conjugate the Tp axiom by H on both sides; H Tp has the
    # classes of [[0,-p],[n,0]] and [[j*n,-1],[p*n,0]] for j < p.
    for p, alpha in _HECKE:
        ht = f"ht{p}"
        conj = sum((RingElem.of([[j * n, -1], [p * n, 0]]) for j in range(p)),
                   RingElem.of([[0, -p], [n, 0]]))
        b.step(ht + ".a", "RIGHT_MUL", "H", conj)
        b.step(ht + ".b", "RIGHT_MUL", f"T{p}", h_elem)
        b.step(ht + ".c", "SCALE", ht + ".b", e)
        b.step(ht + ".d", "SCALE", "H", e * alpha)
        b.step(ht + ".e", "TRANS", ht + ".a", ht + ".c")
        b.step(f"HT{p}", "TRANS", ht + ".e", ht + ".d")

    # g2 == 1: subtract T2 from HT2, clear the remaining factor through W.
    b.step("T2.swap", "SYM", "T2")
    b.step("R2", "ADD", "HT2", "T2.swap", lhs=RingElem.of([[2, 0], [-n, 1]]),
           rhs=RingElem.of([[1, 1], [0, 2]]))
    b.step("g2.a", "RIGHT_MUL", "R2", RingElem.of([[2, -1], [0, 1]]))
    b.step("g2.b", "RIGHT_MUL", "W", RingElem.of([[4, -2], [-2 * n, n + 1]]))
    b.step("g2", "TRANS", "g2.b", "g2.a")

    # R3: subtract T3 from HT3.
    v1 = RingElem.of([[3, 0], [-n, 1]])
    v2 = RingElem.of([[3, 0], [-2 * n, 1]])
    u31 = RingElem.of([[1, 1], [0, 3]])
    u32 = RingElem.of([[1, 2], [0, 3]])
    b.step("T3.swap", "SYM", "T3")
    b.step("r3.a", "ADD", "HT3", "T3.swap", lhs=v1 + v2, rhs=u31 + u32)
    b.step("R3", "SYM", "r3.a")

    # S3: rewrite R3 with the three unit replacements, then clear u31.
    hp_replace("rep.u32", u32)
    h_replace("rep.v1", v1)
    w_replace("rep.v2", v2)
    b.step("rep.v2.swap", "SYM", "rep.v2")
    b.step("s3.a", "ADD", "R3", "rep.u32")
    b.step("s3.b", "ADD", "s3.a", "rep.v1")
    s3pre = (u31 + e * RingElem.of([[0, -3], [n, -n]])
             - e * RingElem.of([[n, -1], [3 * n, 0]])
             - RingElem.of([[3, 0], [n, 1]]))
    b.step("S3pre", "ADD", "s3.b", "rep.v2.swap", lhs=s3pre,
           rhs=RingElem.zero())
    b.step("S3", "RIGHT_MUL", "S3pre", RingElem.of([[3, -1], [0, 1]]))

    # delta1: the factored form of S3.
    b.step("delta1", "RESCALE", "S3",
           lhs=((one - RingElem.of(g3_class(n)))
                * (one - e * RingElem.of(delta1_class(n)))),
           rhs=RingElem.zero())

    # H4: the T2-squaring identity, then conjugation by H fixes its rhs.
    _square_t2_steps(b)
    xh = (RingElem.of([[n, -1], [4 * n, 0]])
          + RingElem.of([[3 * n, -1], [4 * n, 0]]))
    b.step("h4.lhs", "RIGHT_MUL", "H", xh)
    b.step("h4.rhs", "RIGHT_MUL", "H4pre", h_elem)
    b.step("h4.rhs.e", "SCALE", "h4.rhs", e)
    b.step("h4.conj", "TRANS", "h4.lhs", "h4.rhs.e")
    b.step("h4.pa", "SCALE", "H", e * ScalarPoly.alpha2() ** 2)
    b.step("ph.a", "RIGHT_MUL", "P", h_elem)
    b.step("ph.b", "TRANS", "ph.a", "H")
    b.step("ph.c", "SCALE", "ph.b", e)
    b.step("ph.d", "SYM", "ph.c")
    h_replace("c1", RingElem.of([[1, 0], [0, 2]]), e * ScalarPoly.alpha2())
    h_replace("c2", RingElem.of([[2, 0], [0, 1]]), e * ScalarPoly.alpha2())
    b.step("h4.swap", "SYM", "H4pre")
    b.step("h4.s1", "ADD", "h4.conj", "h4.pa")
    b.step("h4.s2", "ADD", "h4.s1", "ph.d")
    b.step("h4.s3", "ADD", "h4.s2", "c1")
    b.step("h4.s4", "ADD", "h4.s3", "c2")
    b.step("h4.s5", "ADD", "h4.s4", "h4.swap")
    hxh = (RingElem.of([[4, 0], [-n, 1]])
           + RingElem.of([[4, 0], [-3 * n, 1]]))
    x = RingElem.of([[1, 1], [0, 4]]) + RingElem.of([[1, 3], [0, 4]])
    b.step("H4", "ADD", "h4.s5", "P", lhs=hxh, rhs=x)

    # H5: the same identity collected on one side.
    b.step("H5", "SYM", "H4", lhs=x - hxh, rhs=RingElem.zero())

    # H6: rewrite H5 with the unit replacements.
    hp_replace("rep.u34", RingElem.of([[1, 3], [0, 4]]))
    h_replace("rep.v41", RingElem.of([[4, 0], [-n, 1]]))
    w_replace("rep.v42", RingElem.of([[4, 0], [-3 * n, 1]]))
    b.step("rep.v42.swap", "SYM", "rep.v42")
    b.step("h6.s1", "ADD", "H5", "rep.u34")
    b.step("h6.s2", "ADD", "h6.s1", "rep.v41")
    h6 = (RingElem.of([[1, 1], [0, 4]])
          + e * RingElem.of([[0, -4], [n, -n]])
          - e * RingElem.of([[n, -1], [4 * n, 0]])
          - RingElem.of([[4, 0], [n, 1]]))
    b.step("H6", "ADD", "h6.s2", "rep.v42.swap", lhs=h6, rhs=RingElem.zero())

    # H7: clear the first factor of H6.
    b.step("H7", "RIGHT_MUL", "H6", RingElem.of([[1, 0], [-n, 4]]))

    # delta3: the factored form of H7.
    g3p = RingElem.of([[1 - n, 4], [-4 * n, 16]])
    b.step("delta3", "RESCALE", "H7",
           lhs=-((one - g3p) * (one - e * RingElem.of(delta3_class(n)))),
           rhs=RingElem.zero())

    # delta2 needs the involution g3^-1 g2, which exists only at level 13.
    if n == DEFAULT_LEVEL:
        b.step("d2.a", "SYM", "g2")
        b.step("d2.b", "RIGHT_MUL", "d2.a", RingElem.of(DELTA2_HAT))
        b.step("delta2", "ADD", "d2.b", "d2.a",
               lhs=(one - RingElem.of(G3)) * (one + RingElem.of(DELTA2_HAT)),
               rhs=RingElem.zero())
    return b.build()


# -- the g-context certificate ----------------------------------------------


def _h_word(m: int, n: int) -> List[str]:
    """h2^m h3^n as reflection step ids, h2 = delta2*delta1 and
    h3 = delta3*delta1; a reflection is an involution, so a negative power
    spells the letters of its pair swapped."""
    word: List[str] = []
    for k, delta in ((m, "delta2hat"), (n, "delta3hat")):
        word += [delta, "delta1hat"] * k if k >= 0 else ["delta1hat", delta] * -k
    return word


def _fold_word(b: CertBuilder, word: Sequence[str], final_id: str) -> Congruence:
    """Derive ``(product of the word's classes) == (product of their signs)``
    by repeated right-multiplication; the word entries are axiom-step ids,
    and the empty word gives 1 == 1."""
    if not word:
        return Congruence(final_id, RingElem.one(), RingElem.one())
    cur = word[0]
    s = _REFLECTIONS[cur][1]
    for i, letter in enumerate(word[1:], start=1):
        cls, sign = _REFLECTIONS[letter]
        sid = final_id if i == len(word) - 1 else f"{final_id}.{i}"
        b.step(f"{sid}.a", "RIGHT_MUL", cur, RingElem.of(cls))
        b.step(f"{sid}.b", "SCALE", letter, s)
        b.step(sid, "TRANS", f"{sid}.a", f"{sid}.b")
        s = s * sign
        cur = sid
    return b.resolved[cur]


def build_g_certificate() -> Certificate:
    b = _g_builder()

    # The aggregate of the three reflection congruences.
    b.step("sum.a", "ADD", "delta1hat", "delta2hat")
    b.step("threedeltas", "ADD", "sum.a", "delta3hat")

    # h2 == -e and h3 == 1: delta_p delta1 == sign(delta_p) * sign(delta1).
    for p in (2, 3):
        delta = f"delta{p}hat"
        b.step(f"h{p}.a", "RIGHT_MUL", delta, RingElem.of(DELTA1_HAT))
        b.step(f"h{p}.b", "SCALE", "delta1hat", _REFLECTIONS[delta][1])
        b.step(f"h{p}-sign", "TRANS", f"h{p}.a", f"h{p}.b")

    # The squared word h2^2 h3 telescopes to the scalar 1.
    _fold_word(b, _h_word(2, 1), "h-power-sign")
    return b.build()


class SignCheck(NamedTuple):
    power_sign: Congruence   # h2^m h3^n == (-1)^m e^(m mod 2)
    even_power: Congruence   # h2^(2m) h3^n == 1


def sign_exponent_check(m: int, n: int) -> SignCheck:
    """Verify the sign of h2^m h3^n: each h2 contributes -e, each h3
    contributes 1, so the word reduces to (-e)^m; doubling m kills the sign.
    """
    if abs(m) > 8 or abs(n) > 8:
        raise ValueError("word exponents are limited to |m|, |n| <= 8")
    return SignCheck(*(_fold_word(_g_builder(), _h_word(k, n), "h-word")
                       for k in (m, 2 * m)))


# -- exact rational-function checks -------------------------------------------


class BlowupResult(NamedTuple):
    pole_order: int
    identically_zero: bool


def blowup_check(k: int) -> BlowupResult:
    """Behaviour of S(z) = z^{-k/2} + z^{-k/2}|B + z^{-k/2}|B^2 at z = 0,
    where B = A^-1 g3 A.

    Averaging over the order-3 rotation makes S formally invariant; the check
    shows S has a genuine pole for positive k and vanishes outright at k = -2.

    For k > 0 the first term has a pole of order k/2 at 0 with coefficient
    1, and the term of M = B or B^2 is (det M / ((az + b)(cz + d)))^{k/2},
    holomorphic at 0 once b != 0 and d != 0.  Those four entries are checked
    exactly (ArithmeticError otherwise), so S has a pole of order exactly
    k/2 with leading coefficient 1 at every k > 0.

    For k < 0 every term is a polynomial of degree at most |k|, so S is zero
    exactly when it vanishes at z = 0, 1, ..., |k|; it is evaluated there,
    up to the first nonzero value.  That work grows with |k|, and k may come
    from the command line, so k >= -128 is required.
    """
    if k % 2 != 0 or k == 0:
        raise ValueError("weight must be a nonzero even integer")
    if k < -128:
        raise ValueError("a negative weight is limited to k >= -128")
    mats = conjugated_g3_matrices()
    if k > 0:
        if any(m.b.is_zero or m.d.is_zero for m in mats):
            raise ArithmeticError("a conjugate of g3 has a zero entry b or d")
        return BlowupResult(k // 2, False)
    n = -k // 2
    for x in range(-k + 1):
        total = QuadElem.of(x) ** n
        for m in mats:
            total = total + ((m.a * x + m.b) * (m.c * x + m.d) / m.det()) ** n
        if not total.is_zero:
            return BlowupResult(0, False)
    return BlowupResult(0, True)


def tilde_g_check(k: int) -> Tuple[int, int, int]:
    """Eigen-signs of g-tilde = z^{-k/2}|A^-1 under the three reflections.

    By the composition law g-tilde|delta = (z^{-k/2}|M)|A^-1 with
    M = A^-1 delta A, and M is checked to be antidiagonal, [[0, b], [c, 0]]
    with det M = -bc > 0 (ArithmeticError otherwise).  For such M,

        z^{-k/2}|M = (-bc)^{k/2} (cz)^{-k} (b/(cz))^{-k/2}
                   = (-1)^{k/2} z^{-k/2},

    so the sign is (-1)^(k/2) for all three, at every even k.
    """
    if k % 2 != 0:
        raise ValueError("weight must be even")
    a = ProjMat.of(a_matrix())
    ainv = a.inv()
    for cls, _ in _REFLECTIONS.values():
        top_left, _, _, bottom_right = (ainv * cls * a).entries
        if not (top_left.is_zero and bottom_right.is_zero):
            raise ArithmeticError(f"A^-1 {cls} A is not antidiagonal")
    sign = -1 if k % 4 else 1
    return (sign, sign, sign)
