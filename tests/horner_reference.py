"""Horner's rule on balls with four products a step: the tests' reference
for ``numeric._block_sum``, which sums by blocks of kept powers of q.

    sum_j coeffs[j] q^j

is summed from the top coefficient down, on balls (re, im, r) of Python
ints at scale 2^-W: each step multiplies the sum by q = (qr, qi, dq),
truncates both parts, and sets

    r = ((|re| + |im|) dq + r qn) >> W) + 3,

qn an upper bound on |q| + dq; then it adds the coefficient, c 2^W exactly
for an int and floor(p 2^W / q), with one more ulp of radius, for a
Fraction p/q.  The block sum rounds in other places, so the two balls
differ in their digits; the tests require them to overlap, and on the
evaluations a battery makes, the block sum's radius to be at most this
one's.  pytest collects no test from this module.
"""

from __future__ import annotations


def horner(coeffs, q, qn: int, W: int):
    """sum_j coeffs[j] q^j as a ball at scale 2^-W, four products a step."""
    qr, qi, dq = q
    re = im = r = 0
    for c in reversed(coeffs):
        re, im, r = ((re * qr - im * qi) >> W, (re * qi + im * qr) >> W,
                     (((abs(re) + abs(im)) * dq + r * qn) >> W) + 3)
        if type(c) is int:
            re += c << W
        else:
            re += (c.numerator << W) // c.denominator
            r += 1
    return re, im, r
