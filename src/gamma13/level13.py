"""Level-13 generator data and the shipped derivation chains.

This module fixes the concrete matrices of the level-13 argument -- the
translation P, the Fricke involution H, the parabolic W, the elliptic
generators g2 and g3, the three reflection classes (the "hatted deltas"),
and the diagonalizing basis A -- and builds the two certificates that replay
the whole derivation:

* the f-context certificate: from the four axioms (P == 1, H == e,
  T2-sum == a2, T3-sum == a3) it derives W == 1, g2 == 1, and the three
  factored annihilators ``(1 - g3)(1 -+ ...) == 0`` named delta1, delta3,
  delta2;
* the g-context certificate: from the reflection axioms it derives the
  sign bookkeeping for words in h2 = delta2*delta1 and h3 = delta3*delta1.

The chains are uniform in the level N wherever possible; only the final
``delta2`` step needs N = 13, because g3^-1 g2 is an involution exactly
when its trace (13 - N)/6 vanishes.

The module also hosts the exact rational-function checks that close the
argument: ``blowup_check`` (the z -> 0 behaviour of
z^{-k/2} + z^{-k/2}|B + z^{-k/2}|B^2 for B = A^-1 g3 A) and
``tilde_g_check`` (the eigen-signs of z^{-k/2}|A^-1 under the three
reflections).  Both slash by classes, reading the numerator/denominator
pairs of ``groupring.stroke_of_power`` off canonical representatives, and
never reduce a fraction: a zero test, a pole order at z = 0 and a sign
comparison are unchanged by a common factor, as by the representative.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .certificate import (CertBuilder, Certificate, Congruence,
                          certificate_from_json)
from .exactnum import QuadElem, ScalarPoly
from .gamma0 import DEFAULT_LEVEL, GENERATORS
from .groupring import RingElem, poly_mul, stroke_of_power
from .projmat import Mat2, ProjMat

SHIPPED_FILES = {"f": "level13_f.json", "g": "level13_g.json"}


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


def t2_sum() -> RingElem:
    return RingElem.parse("[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]]")


def t3_sum() -> RingElem:
    return RingElem.parse(
        "[[3,0],[0,1]] + [[1,0],[0,3]] + [[1,1],[0,3]] + [[1,2],[0,3]]")


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


def _add_f_axioms(b: CertBuilder, level: int) -> None:
    b.axiom("ax:P", RingElem.of(P_CLASS), RingElem.one())
    b.axiom("ax:H", RingElem.of(h_class(level)),
            RingElem.of(ScalarPoly.eps()))
    b.axiom("ax:T2", t2_sum(), RingElem.of(ScalarPoly.alpha2()))
    b.axiom("ax:T3", t3_sum(), RingElem.of(ScalarPoly.alpha3()))


def _g_builder() -> CertBuilder:
    """The reflection axioms, each restated as a step named after its
    class: the common start of every g-context derivation."""
    b = CertBuilder(DEFAULT_LEVEL)
    e = RingElem.of(ScalarPoly.eps())
    b.axiom("ax:delta1", RingElem.of(DELTA1_HAT), e)
    b.axiom("ax:delta2", RingElem.of(DELTA2_HAT), -RingElem.one())
    b.axiom("ax:delta3", RingElem.of(DELTA3_HAT), e)
    b.axiom_step("delta1hat", "ax:delta1")
    b.axiom_step("delta2hat", "ax:delta2")
    b.axiom_step("delta3hat", "ax:delta3")
    return b


def f_context(level: int = DEFAULT_LEVEL) -> Certificate:
    """The four f-context axioms at a level, as a certificate without
    steps."""
    b = CertBuilder(level)
    _add_f_axioms(b, level)
    return b.build()


# -- the f-context certificate ------------------------------------------------


def _square_t2_steps(b: CertBuilder) -> None:
    """Square the T2 axiom and isolate the two H-symmetric upper-triangular
    terms; emits steps ``t2sq.*`` through ``H4pre``.

    Level-independent: no step below touches H or W.
    """
    a2 = ScalarPoly.alpha2()
    b.right_mul("t2sq.a", "T2", t2_sum())
    b.scale("t2sq.b", "T2", a2)
    squared = (2 * RingElem.one() + RingElem.of([[1, 1], [0, 1]])
               + RingElem.of([[4, 0], [0, 1]]) + RingElem.of([[1, 0], [0, 4]])
               + RingElem.of([[1, 1], [0, 4]]) + RingElem.of([[2, 1], [0, 2]])
               + RingElem.of([[1, 2], [0, 4]]) + RingElem.of([[1, 3], [0, 4]]))
    b.add("t2sq", "t2sq.a", "t2sq.b", lhs=squared, rhs=RingElem.of(a2 * a2))
    b.right_mul("t2d2", "T2", RingElem.of([[2, 0], [0, 1]]))
    b.right_mul("t2d2p", "T2", RingElem.of([[1, 0], [0, 2]]))
    b.scale("t2d2.neg", "t2d2", ScalarPoly.const(-1))
    b.scale("t2d2p.neg", "t2d2p", ScalarPoly.const(-1))
    b.add("h4.a", "t2sq", "t2d2.neg")
    x = RingElem.of([[1, 1], [0, 4]]) + RingElem.of([[1, 3], [0, 4]])
    rhs = (RingElem.of(a2 * a2) - RingElem.of([[1, 1], [0, 1]])
           - a2 * RingElem.of([[2, 0], [0, 1]])
           - a2 * RingElem.of([[1, 0], [0, 2]]))
    b.add("H4pre", "h4.a", "t2d2p.neg", lhs=x, rhs=rhs)


def build_f_certificate(level: int = DEFAULT_LEVEL) -> Certificate:
    n = int(level)
    if n < 1:
        raise ValueError("level must be a positive integer")
    b = CertBuilder(n)
    _add_f_axioms(b, n)
    e = ScalarPoly.eps()
    one = RingElem.one()
    h_elem = RingElem.of(h_class(n))

    b.axiom_step("P", "ax:P")
    b.axiom_step("H", "ax:H")
    b.axiom_step("T2", "ax:T2")
    b.axiom_step("T3", "ax:T3")

    # P^-1 == 1
    b.right_mul("pinv.a", "P", RingElem.of([[1, -1], [0, 1]]))
    b.sym("Pinv", "pinv.a")

    # W == 1: stroke H through P^-1 H, then cancel the two e factors.
    b.right_mul("w.a", "H", RingElem.of([[-n, -1], [n, 0]]))
    b.right_mul("w.b", "Pinv", h_elem)
    b.trans("w.c", "w.b", "H")
    b.scale("w.d", "w.c", e)
    b.trans("W", "w.a", "w.d")

    # H * P^-1 == e, the workhorse behind "replace M by e*H*P^-1*M".
    b.right_mul("hpinv.a", "H", RingElem.of([[1, -1], [0, 1]]))
    b.scale("hpinv.b", "Pinv", e)
    b.trans("HPinv", "hpinv.a", "hpinv.b")

    def hp_replace(prefix: str, mat: RingElem) -> None:
        """prefix: e * (H P^-1 M) == M."""
        b.right_mul(prefix + ".a", "HPinv", mat)
        b.scale(prefix, prefix + ".a", e)

    def h_replace(prefix: str, mat: RingElem) -> None:
        """prefix: M == e * (H M)."""
        b.right_mul(prefix + ".a", "H", mat)
        b.scale(prefix + ".b", prefix + ".a", e)
        b.sym(prefix, prefix + ".b")

    def w_replace(prefix: str, mat: RingElem) -> None:
        """prefix: (W M) == M."""
        b.right_mul(prefix, "W", mat)

    # HT2: conjugate the T2 axiom by H on both sides.
    t2h = (RingElem.of([[0, -2], [n, 0]]) + RingElem.of([[0, -1], [2 * n, 0]])
           + RingElem.of([[n, -1], [2 * n, 0]]))
    b.right_mul("ht2.a", "H", t2h)
    b.right_mul("ht2.b", "T2", h_elem)
    b.scale("ht2.c", "ht2.b", e)
    b.scale("ht2.d", "H", e * ScalarPoly.alpha2())
    b.trans("ht2.e", "ht2.a", "ht2.c")
    b.trans("HT2", "ht2.e", "ht2.d")

    # HT3: same shape, four summands.
    t3h = (RingElem.of([[0, -3], [n, 0]]) + RingElem.of([[0, -1], [3 * n, 0]])
           + RingElem.of([[n, -1], [3 * n, 0]])
           + RingElem.of([[2 * n, -1], [3 * n, 0]]))
    b.right_mul("ht3.a", "H", t3h)
    b.right_mul("ht3.b", "T3", h_elem)
    b.scale("ht3.c", "ht3.b", e)
    b.scale("ht3.d", "H", e * ScalarPoly.alpha3())
    b.trans("ht3.e", "ht3.a", "ht3.c")
    b.trans("HT3", "ht3.e", "ht3.d")

    # g2 == 1: subtract T2 from HT2, clear the remaining factor through W.
    b.sym("T2.swap", "T2")
    b.add("R2", "HT2", "T2.swap",
          lhs=RingElem.of([[2, 0], [-n, 1]]), rhs=RingElem.of([[1, 1], [0, 2]]))
    b.right_mul("g2.a", "R2", RingElem.of([[2, -1], [0, 1]]))
    b.right_mul("g2.b", "W", RingElem.of([[4, -2], [-2 * n, n + 1]]))
    b.trans("g2", "g2.b", "g2.a")

    # R3: subtract T3 from HT3.
    v1 = RingElem.of([[3, 0], [-n, 1]])
    v2 = RingElem.of([[3, 0], [-2 * n, 1]])
    u31 = RingElem.of([[1, 1], [0, 3]])
    u32 = RingElem.of([[1, 2], [0, 3]])
    b.sym("T3.swap", "T3")
    b.add("r3.a", "HT3", "T3.swap", lhs=v1 + v2, rhs=u31 + u32)
    b.sym("R3", "r3.a")

    # S3: rewrite R3 with the three unit replacements, then clear u31.
    hp_replace("rep.u32", u32)
    h_replace("rep.v1", v1)
    w_replace("rep.v2", v2)
    b.sym("rep.v2.swap", "rep.v2")
    b.add("s3.a", "R3", "rep.u32")
    b.add("s3.b", "s3.a", "rep.v1")
    s3pre = (u31 + e * RingElem.of([[0, -3], [n, -n]])
             - e * RingElem.of([[n, -1], [3 * n, 0]])
             - RingElem.of([[3, 0], [n, 1]]))
    b.add("S3pre", "s3.b", "rep.v2.swap", lhs=s3pre, rhs=RingElem.zero())
    b.right_mul("S3", "S3pre", RingElem.of([[3, -1], [0, 1]]))

    # delta1: the factored form of S3.
    b.rescale("delta1", "S3",
              (one - RingElem.of(g3_class(n)))
              * (one - e * RingElem.of(delta1_class(n))),
              RingElem.zero())

    # H4: the T2-squaring identity, then conjugation by H fixes its rhs.
    _square_t2_steps(b)
    xh = (RingElem.of([[n, -1], [4 * n, 0]])
          + RingElem.of([[3 * n, -1], [4 * n, 0]]))
    b.right_mul("h4.lhs", "H", xh)
    b.right_mul("h4.rhs", "H4pre", h_elem)
    b.scale("h4.rhs.e", "h4.rhs", e)
    b.trans("h4.conj", "h4.lhs", "h4.rhs.e")
    b.scale("h4.pa", "H", e * ScalarPoly.alpha2() ** 2)
    b.right_mul("ph.a", "P", h_elem)
    b.trans("ph.b", "ph.a", "H")
    b.scale("ph.c", "ph.b", e)
    b.sym("ph.d", "ph.c")
    b.right_mul("c1.a", "H", RingElem.of([[1, 0], [0, 2]]))
    b.scale("c1.b", "c1.a", e * ScalarPoly.alpha2())
    b.sym("c1", "c1.b")
    b.right_mul("c2.a", "H", RingElem.of([[2, 0], [0, 1]]))
    b.scale("c2.b", "c2.a", e * ScalarPoly.alpha2())
    b.sym("c2", "c2.b")
    b.sym("h4.swap", "H4pre")
    b.add("h4.s1", "h4.conj", "h4.pa")
    b.add("h4.s2", "h4.s1", "ph.d")
    b.add("h4.s3", "h4.s2", "c1")
    b.add("h4.s4", "h4.s3", "c2")
    b.add("h4.s5", "h4.s4", "h4.swap")
    hxh = (RingElem.of([[4, 0], [-n, 1]])
           + RingElem.of([[4, 0], [-3 * n, 1]]))
    x = RingElem.of([[1, 1], [0, 4]]) + RingElem.of([[1, 3], [0, 4]])
    b.add("H4", "h4.s5", "P", lhs=hxh, rhs=x)

    # H5: the same identity collected on one side.
    b.sym("H5", "H4", lhs=x - hxh, rhs=RingElem.zero())

    # H6: rewrite H5 with the unit replacements.
    hp_replace("rep.u34", RingElem.of([[1, 3], [0, 4]]))
    h_replace("rep.v41", RingElem.of([[4, 0], [-n, 1]]))
    w_replace("rep.v42", RingElem.of([[4, 0], [-3 * n, 1]]))
    b.sym("rep.v42.swap", "rep.v42")
    b.add("h6.s1", "H5", "rep.u34")
    b.add("h6.s2", "h6.s1", "rep.v41")
    h6 = (RingElem.of([[1, 1], [0, 4]])
          + e * RingElem.of([[0, -4], [n, -n]])
          - e * RingElem.of([[n, -1], [4 * n, 0]])
          - RingElem.of([[4, 0], [n, 1]]))
    b.add("H6", "h6.s2", "rep.v42.swap", lhs=h6, rhs=RingElem.zero())

    # H7: clear the first factor of H6.
    b.right_mul("H7", "H6", RingElem.of([[1, 0], [-n, 4]]))

    # delta3: the factored form of H7.
    g3p = RingElem.of([[1 - n, 4], [-4 * n, 16]])
    b.rescale("delta3", "H7",
              -((one - g3p) * (one - e * RingElem.of(delta3_class(n)))),
              RingElem.zero())

    # delta2 needs the involution g3^-1 g2, which exists only at level 13.
    if n == DEFAULT_LEVEL:
        b.sym("d2.a", "g2")
        b.right_mul("d2.b", "d2.a", RingElem.of(DELTA2_HAT))
        b.add("delta2", "d2.b", "d2.a",
              lhs=(one - RingElem.of(G3)) * (one + RingElem.of(DELTA2_HAT)),
              rhs=RingElem.zero())
    return b.build()


# -- the g-context certificate ----------------------------------------------

_G_CLASSES = {"delta1hat": DELTA1_HAT, "delta2hat": DELTA2_HAT,
              "delta3hat": DELTA3_HAT}


def _g_signs() -> Dict[str, ScalarPoly]:
    return {"delta1hat": ScalarPoly.eps(),
            "delta2hat": ScalarPoly.const(-1),
            "delta3hat": ScalarPoly.eps()}


def _fold_word(b: CertBuilder, word: Sequence[str], final_id: str) -> Congruence:
    """Derive ``(product of the word's classes) == (product of their signs)``
    by repeated right-multiplication; the word entries are axiom-step ids."""
    signs = _g_signs()
    cur = word[0]
    s = signs[word[0]]
    for i, letter in enumerate(word[1:], start=1):
        sid = final_id if i == len(word) - 1 else f"{final_id}.{i}"
        b.right_mul(f"{sid}.a", cur, RingElem.of(_G_CLASSES[letter]))
        b.scale(f"{sid}.b", letter, s)
        b.trans(sid, f"{sid}.a", f"{sid}.b")
        s = s * signs[letter]
        cur = sid
    return b.resolved[cur]


def build_g_certificate() -> Certificate:
    b = _g_builder()

    # The aggregate of the three reflection congruences.
    b.add("sum.a", "delta1hat", "delta2hat")
    b.add("threedeltas", "sum.a", "delta3hat")

    # h2 == -e and h3 == 1.
    d1 = RingElem.of(DELTA1_HAT)
    b.right_mul("h2.a", "delta2hat", d1)
    b.scale("h2.b", "delta1hat", ScalarPoly.const(-1))
    b.trans("h2-sign", "h2.a", "h2.b")
    b.right_mul("h3.a", "delta3hat", d1)
    b.scale("h3.b", "delta1hat", ScalarPoly.eps())
    b.trans("h3-sign", "h3.a", "h3.b")

    # The squared word h2^2 h3 telescopes to the scalar 1.
    _fold_word(b, ["delta2hat", "delta1hat", "delta2hat", "delta1hat",
                   "delta3hat", "delta1hat"], "h-power-sign")
    return b.build()


class SignCheck(NamedTuple):
    power_sign: Congruence   # h2^m h3^n == (-1)^m e^(m mod 2)
    even_power: Congruence   # h2^(2m) h3^n == 1


def _h_word_congruence(m: int, n: int) -> Congruence:
    word: List[str] = []
    if m >= 0:
        word += ["delta2hat", "delta1hat"] * m
    else:
        word += ["delta1hat", "delta2hat"] * (-m)
    if n >= 0:
        word += ["delta3hat", "delta1hat"] * n
    else:
        word += ["delta1hat", "delta3hat"] * (-n)
    if not word:
        one = RingElem.one()
        return Congruence("h-word", one, one)
    return _fold_word(_g_builder(), word, "h-word")


def sign_exponent_check(m: int, n: int) -> SignCheck:
    """Verify the sign of h2^m h3^n: each h2 contributes -e, each h3
    contributes 1, so the word reduces to (-e)^m; doubling m kills the sign.
    """
    if abs(m) > 8 or abs(n) > 8:
        raise ValueError("word exponents are limited to |m|, |n| <= 8")
    return SignCheck(_h_word_congruence(m, n), _h_word_congruence(2 * m, n))


# -- exact rational-function checks -------------------------------------------


class BlowupResult(NamedTuple):
    pole_order: int
    identically_zero: bool
    leading_coeff_nonzero: bool


def blowup_check(k: int) -> BlowupResult:
    """Behaviour of S(z) = z^{-k/2} + z^{-k/2}|B + z^{-k/2}|B^2 at z = 0,
    where B = A^-1 g3 A.

    Averaging over the order-3 rotation makes S formally invariant; the check
    shows S has a genuine pole for positive k and vanishes outright at k = -2.
    """
    if k % 2 != 0 or k == 0:
        raise ValueError("weight must be a nonzero even integer")
    if abs(k) > 128:
        raise ValueError("weight is limited to |k| <= 128")
    b1, b2 = map(ProjMat.of, conjugated_g3_matrices())
    # z^{-k/2} is its own slash by the identity, so all three terms have
    # numerators and denominators of the same lengths
    (n0, d0), (n1, d1), (n2, d2) = (stroke_of_power(k, m)
                                    for m in (ProjMat.identity(), b1, b2))
    num = [x + y + w for x, y, w in zip(poly_mul(n0, poly_mul(d1, d2)),
                                        poly_mul(n1, poly_mul(d0, d2)),
                                        poly_mul(n2, poly_mul(d0, d1)))]
    nonzero = [i for i, c in enumerate(num) if not c.is_zero]
    if not nonzero:
        return BlowupResult(0, True, False)
    den = poly_mul(d0, poly_mul(d1, d2))
    vden = next(i for i, c in enumerate(den) if not c.is_zero)
    # the lowest nonzero coefficients of num and den have a nonzero
    # quotient: that quotient leads the expansion at z = 0
    return BlowupResult(max(vden - nonzero[0], 0), False, True)


def tilde_g_check(k: int) -> Tuple[int, int, int]:
    """Eigen-signs of g-tilde = z^{-k/2}|A^-1 under the three reflections.

    Each reflection conjugates to an antidiagonal matrix in the A basis, so
    the image g-tilde|delta = z^{-k/2}|(A^-1 delta) is exactly (+/-1) times
    g-tilde; the sign is (-1)^(k/2) for all three.
    """
    if k % 2 != 0:
        raise ValueError("weight must be even")
    if abs(k) > 16:
        raise ValueError("weight is limited to |k| <= 16")
    ainv = ProjMat.of(a_inverse())
    num, den = stroke_of_power(k, ainv)
    signs = []
    for cls in (DELTA1_HAT, DELTA2_HAT, DELTA3_HAT):
        inum, iden = stroke_of_power(k, ainv * cls)
        lhs, rhs = poly_mul(inum, den), poly_mul(num, iden)
        if lhs == rhs:
            signs.append(1)
        elif lhs == tuple(-c for c in rhs):
            signs.append(-1)
        else:  # pragma: no cover - the conjugates are antidiagonal
            raise ArithmeticError("stroke image is not +/- the original")
    return (signs[0], signs[1], signs[2])


# -- shipped data --------------------------------------------------------------


def load_shipped_certificate(name: str = "f") -> Certificate:
    """Load the bundled certificate: "f" for the main chain, "g" for the
    reflection-sign chain."""
    if name not in SHIPPED_FILES:
        raise ValueError(f"unknown certificate {name!r}; expected 'f' or 'g'")
    text = (resources.files(__package__) / "data" / SHIPPED_FILES[name]
            ).read_text(encoding="utf-8")
    return certificate_from_json(text)
