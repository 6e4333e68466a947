"""The weight-k slash of z^(-k/2) as dense polynomials: the tests' reference
for the closed forms of ``level13.blowup_check`` and ``level13.tilde_g_check``.

The weight-k "slash" action

    (f | M)(z) = det(M)^(k/2) (cz + d)^(-k) f((az + b) / (cz + d))

has, for f = z^(-k/2), the closed form

    (z^(-k/2) | M)(z) = (det(M) / ((az + b)(cz + d)))^(k/2).

The composition law f|M1|M2 = f|(M1 M2) reduces repeated slashes to one.
Only even k is supported: half-integer powers never arise then, and the
action is invariant under rescaling M, so ``stroke_of_power`` acts by a
class, read off its canonical entries.  The two checks below expand every
term over Q(sqrt(13)) and never reduce a fraction: a zero test, a pole order
at z = 0 and a sign comparison are unchanged by a common factor, as by the
representative.  pytest collects no test from this module.
"""

from __future__ import annotations

from math import comb
from typing import Tuple

from gamma13.exactnum import QuadElem
from gamma13.level13 import (DELTA1_HAT, DELTA2_HAT, DELTA3_HAT,
                             BlowupResult, a_inverse, conjugated_g3_matrices)
from gamma13.projmat import ProjMat

#: A dense univariate polynomial: its coefficients, lowest degree first.
Coeffs = Tuple[QuadElem, ...]


def poly_mul(f: Coeffs, g: Coeffs) -> Coeffs:
    """The product of two dense polynomials."""
    out = [QuadElem.of(0)] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c.is_zero:
            continue
        for j, d in enumerate(g):
            out[i + j] = out[i + j] + c * d
    return tuple(out)


def stroke_of_power(k: int, m: ProjMat) -> Tuple[Coeffs, Coeffs]:
    """The weight-k slash of z^(-k/2) by the class m, as (numerator,
    denominator) from m's canonical entries a, b, c, d and det = ad - bc.

    With j = k/2 this is det^j / ((az + b)(cz + d))^j: the binomial
    expansion of (az + b)^|j| (cz + d)^|j| is the denominator for j >= 0
    and, times det^j, the numerator for j < 0.  Both polynomials have a
    fixed length for a given k (1, or 2|j| + 1), so two results of the
    same weight can be compared coefficient by coefficient.
    """
    if k % 2:
        raise ValueError(f"weight must be even, got {k}")
    a, b, c, d = m.entries
    j = k // 2
    n = abs(j)

    def binomial(x: QuadElem, y: QuadElem) -> Coeffs:
        """(x*z + y)^n."""
        return tuple(comb(n, i) * x ** i * y ** (n - i) for i in range(n + 1))

    linear = poly_mul(binomial(a, b), binomial(c, d))
    scale = (a * d - b * c) ** j
    if j >= 0:
        return (scale,), linear
    return tuple(scale * x for x in linear), (QuadElem.of(1),)


def blowup_reference(k: int) -> BlowupResult:
    """``blowup_check(k)`` for a nonzero even k, from the expansion of
    S(z) = z^{-k/2} + z^{-k/2}|B + z^{-k/2}|B^2 over one denominator."""
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
        return BlowupResult(0, True)
    den = poly_mul(d0, poly_mul(d1, d2))
    vden = next(i for i, c in enumerate(den) if not c.is_zero)
    # the lowest nonzero coefficients of num and den have a nonzero
    # quotient: that quotient leads the expansion at z = 0
    return BlowupResult(max(vden - nonzero[0], 0), False)


def tilde_g_reference(k: int) -> Tuple[int, int, int]:
    """``tilde_g_check(k)`` for an even k, by comparing the expansions of
    z^{-k/2}|(A^-1 delta) and +-z^{-k/2}|A^-1 cross-multiplied."""
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
        else:
            raise ArithmeticError("stroke image is not +/- the original")
    return (signs[0], signs[1], signs[2])
