"""High-precision evaluation of exact q-expansions on the upper half-plane.

Evaluation is midpoint-radius ball arithmetic at a configured precision,
but everything that decides *where* to evaluate is exact: a point is
given as (x, y) with int or Fraction coordinates (``_upper`` refuses a
float, a string or an element of Q(sqrt 13) with ``TypeError``), and from
there to the sum it is the int triple (X, Y, R) of ``_common``,
z = (X + iY)/R, as are its images under matrix classes; the point search
compares heights by integer cross-multiplication.  No floor bounds how
low an image may lie: the ball radius decides.

One private evaluator, ``_evaluate``, is the only code that sums a
truncated expansion (by blocks, below) and bounds what the truncation
leaves out; ``eval_form``, ``stroke_value`` and every congruence residual
go through it.  The bound rests on the crude coefficient growth bound
|a_n| <= n^k, which building a ``FormData`` (in ``qseries``) checks on
every carried coefficient with n >= 1:

    sum_{n >= M} n^k x^n  <=  M^k x^M / (1 - rho x),   rho = (1 + 1/M)^k,

with x = e^{-2 pi Im z} and M the first exponent beyond the truncation.
The sum is cut short by the truncation rule of Johansson's Arb (IEEE
Trans. Comput. 66(8), 2017): the sum runs over the first n carried
coefficients only, n the least count whose bound at M = offset + n is at
most 2^-W, W = prec + 32 bits, or over all of them when no count is; at a
point too low for the bound to exist even past L (rho x >= 1 at
M = offset + L + 1), ``_evaluate`` raises ``PrecisionError``.  The search
for n starts from a float estimate proven not to pass it.  The
growth bound covers the dropped carried terms as it covers those past L,
so the bound at the cut bounds all that is left out.  Once L reaches the
cut, neither the cut nor the value depends on L, so carrying more
coefficients costs nothing at the heights the cut serves.  The sum is a
ball, as in Arb (Brent-Zimmermann, Modern Computer Arithmetic, section 3):
a midpoint re + i im and a radius r, three Python ints in units of 2^-W.
q (and q^offset) is enclosed on Python ints too, from the triple: t x
is floored to the working scale and reduced mod 1 exactly, and exp of
2 pi i t z / 2^s is summed by Taylor's series at W + 2s + 10 bits and
squared back s times, each error carried in the radius, so q's ball is
one or two ulps wide; pi is mpmath's ``mpf_pi``, taken as 2 ulps off.

The n terms are summed by rectangular splitting (Paterson-Stockmeyer,
SIAM J. Comput. 2(1), 1973; Johansson, ARITH 2015, as in Arb), in
``_block_sum``.  Its work runs at V = W + G bits, G = ``_GUARD`` = 64:
q is enclosed once more at V, and q^0 ... q^m, m = ``_BLOCK`` = 32, are
formed from it as balls at V, kept with q at W per point.  The form's
coefficients are put over their least common denominator D once per call,
as ints c_j D with prefix sums of |c_j D|.  Each block of at most m
coefficients is then one exact dot product with the midpoints of q^0 ...
q^(m-1), summed in C, and its radius is the largest of their radii times
the block's sum of |c_j D|.  Horner's rule in q^m joins the ceil(n/m)
blocks at scale D 2^-V.  Each of its steps, like each step that forms a
power, makes the product's parts from three products (Gauss), floors them
and sets r = ((|acc|_1 dq + r (|q| + dq)) >> V) + 3, dq the radius of the
factor and |q| bounded by the Euclidean norm of its midpoint rounded up:
rigorous because the ball is a disk, and below 1 with |q|, so the radius
does not compound as it would under |qr| + |qi|, which exceeds 1 wherever
|q| > 1/sqrt 2.  The budget is thus 3 units of 2^-V per power and per
block step, and a block's radius is a power's radius scaled by the
block's sum of |c_j|, up to m max |c_j|, before the steps after it shrink
it by |q^m| each: the G guard bits leave room for that growth, so on
every evaluation of the tested batteries the radius is at most that of
Horner's rule at W.  One floor by D 2^G returns the sum to scale 2^-W:
the radius is rounded up, and each part the floor moves adds one ulp.
Only the powers, the blocks and their Horner run at V; q, q^offset, the
cut and its tail bound, the product by q^offset and every residual run
at W.

The tail bound, from upper bounds on |q| and |q^offset| rounded up, is
an int of ulps rounded up: x^n keeps its own binary exponent, with its
W-bit mantissa rounded up at each product, and one ceiling division ends
it.  It joins r, so the ball holds f(z) even where the cut is not
reached.
Stroke factors times instantiated scalars are exact rationals, each part
floored once to the scale; a residual, the ``max_residual`` that
``formcheck`` compares, is |sum of the midpoints| plus the sum of the
radii: a certified bound.  ``run_formcheck``'s tolerance is the only one:
a congruence passes when that bound is below it, and radii that alone
reach it decide nothing, so the battery stops with ``PrecisionError``.
A PASS row whose bound is below 2^-prec prints ``max_residual<2^-prec``:
its digits are rounding noise at W = prec + 32, which any change of
kernel or sample points moves, and its verdict does not rest on them.
The balls take W as an argument and never read or set mpmath's global
context: of mpmath they take pi, and ``_ulps`` makes their results exact
mpfs.  Only lambda and ``density_search`` run in mpmath's
floats at its precision.

Congruences are tested pointwise through the weight-k stroke action
f|M = det(M)^{k/2} (cz+d)^{-k} f(Mz), which is invariant under rescaling
M for even k, so any representative of a projective class may be used.
One private helper, ``_stroke``, computes every stroke: ``stroke_value``
and each residual term take the exact image and the factor from it.
The symbols in a congruence are instantiated from the form: the Hecke
scalars as p^{1-k/2} a_p and the inversion sign as the carried +-1.

The stroke geometry is rational.  Each class is taken once per plan as
its representative (A, B, C, D) with coprime integer entries.  At the
point (X + iY)/R, cz + d is (u + iv)/R with u = CX + DR and v = CY,
N = u^2 + v^2 and det = AD - BC: the image height is det Y R / N, a pair
of ints; the image point is (((AX + BR) u + ACY^2) + i det Y R)/N, a
triple once the gcd of its three ints is divided out; and the automorphy
factor is det^{k/2} R^k (u - iv)^k / N^k, three ints.  Every
certificate's classes and scalars are rational; a class with an
irrational entry (only ``stroke_value`` can be given one) or an
irrational instantiated scalar raises ``ValueError`` naming it.

By default (``points=None``) the sample points are searched: two
candidate points per center -D/C on the classes' isometric circles, at
fixed heights, each scored by the least height among the points and their
images, the first highest score winning; a fixed set such as
``FRICKE_POINTS_13`` is the other choice.  The search is pruned: a
candidate stops being scored once its running minimum is at or below the
best score so far, since only a strictly higher score wins, so the choice
is that of the full search.  Each (class, point) has one record,
``_image``, by whose height the search scores and from which ``_stroke``
finishes the image and the factor.

What does not depend on the form is a plan, ``_Plan``: each congruence's
``_row``, the classes' representatives, these records, the points chosen
for each set of classes (congruences on the same classes reuse them), each
image point that ``_stroke`` took with its automorphy factor per weight,
q with its powers there, by the point mod 1, where their balls are the
same ints, and the cut with its tail bound that ``_evaluate`` found there,
keyed by (point, k, offset, L).  ``run_formcheck`` takes the plan of its
(level, points, W) from ``_plan``, which keeps the last ``_PLANS`` for the
process, so a second battery there builds no certificate, derives no
terms, searches no points and encloses no q, nor, at a weight it has seen,
computes a factor, nor, at a (k, offset, L) it has seen, a cut: it reads
each cut and sums the terms.  The other entry points take arbitrary
congruences, classes or points and make a plan per call.  What depends on
the form is a memo, ``_Memo``, that dies with the call: each scalar's
rational value, the coefficients over their common denominator, f at each
image point (mod 1 for an int offset), and the factor and value of each
(class, point).

The two commuting hyperbolic generators stretch by (2+sqrt13)/3 and
(7-sqrt13)/6 along the same axes; ``lambda_compute`` returns the exponent
lambda tying them together, and ``lambda_rational_exclusion`` proves
exactly, from the traces and norms of three field elements, that lambda
is irrational, so the stretches 2m + n*lambda are dense.
``density_search`` realizes a target as such a lattice power by one exact
window search: the window of admissible exponents becomes a window on
(A*n) mod 2^w in integers, which Euclid's algorithm searches for the
least |n|, so a failure is a decided fact about the bound, not an
exhausted budget.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain
from typing import (TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_div, mpf_pi,
                          round_nearest, to_str)

from .exactnum import DEFAULT_D, QuadElem, binary_power
from .projmat import ProjMat
from .qseries import FormData, _Value, hecke_check
if TYPE_CHECKING:  # annotations only: density loads no certificate layer
    from .certificate import Certificate, Congruence


class ConfigurationError(ValueError):
    """``suggest_points`` finds no candidate points above the floor asked
    for."""


class PrecisionError(ArithmeticError):
    """The numerics cannot decide: no tail bound, or radii at the tolerance."""


class DensityError(RuntimeError):
    """No lattice power within the bound reaches the target."""


#: Larger diagonal stretch of the first commuting generator: (2+sqrt13)/3.
STRETCH_BASE = QuadElem(Fraction(2, 3), Fraction(1, 3))

#: Smaller diagonal stretch of the second generator: (7-sqrt13)/6.
H3_EIGENVALUE = QuadElem(Fraction(7, 6), Fraction(-1, 6))

#: Points on the circle |z| = 1/sqrt(13), which the level-13 inversion
#: maps to itself, so both the points and their images keep Im >= 2/13.
FRICKE_POINTS_13: Tuple[Tuple[Fraction, Fraction], ...] = (
    (Fraction(2, 13), Fraction(3, 13)), (Fraction(-2, 13), Fraction(3, 13)),
    (Fraction(3, 13), Fraction(2, 13)), (Fraction(-3, 13), Fraction(2, 13)),
)


class EvalConfig(_Value):
    """Evaluation settings: the working precision in bits, an int, and the
    sample points, by default (``points=None``) searched per set of
    classes, or a fixed nonempty set of exact points in the upper
    half-plane."""

    __slots__ = ("precision", "points")

    precision: int
    points: Optional[Tuple[Tuple[Fraction, Fraction], ...]]

    def __init__(self, precision: int = 256, points=None) -> None:
        if type(precision) is not int:  # bool is an int, too
            raise TypeError(f"precision: {precision!r} is a "
                            f"{type(precision).__name__}, not an int")
        if precision < 1:
            raise ValueError(f"precision {precision} is below 1 bit")
        if points is not None:
            points = tuple(_upper(z) for z in points)
            if not points:
                raise ValueError("the sample point set is empty; "
                                 "points=None searches them instead")
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "points", points)


class EvalResult(NamedTuple):
    value: mpc
    radius: mpf


def _to_mpf(x) -> mpf:
    if isinstance(x, QuadElem):
        return _to_mpf(x.a) + _to_mpf(x.b) * mp.sqrt(DEFAULT_D)
    q = Fraction(x)
    return mpf(q.numerator) / q.denominator


#: Bits below the working ulp at which the cut in ``_evaluate`` puts the
#: tail bound.
_CUT_GUARD = 32


#: A ball (re, im, r) at scale 2^-W: the midpoint re + i im and the
#: radius r, all ints counting units (ulps) of 2^-W.
Ball = Tuple[int, int, int]


def _tail_bound(offset: Fraction, n: int, k: int, x: int, x_offset: int,
                W: int) -> Optional[int]:
    """M^k x^M / (1 - rho x) at M = offset + n in ulps of 2^-W, rounded up,
    or None when rho x >= 1, from upper bounds x 2^-W on x = |q| =
    e^{-2 pi Im z} and x_offset 2^-W on x^offset = |q^offset|, as x^M =
    x^offset x^n.  x^n carries its own binary exponent: the integer x^n is
    bounded by man 2^e, man rounded up to W bits at each product, so a
    power far below 2^-W keeps its relative precision.  With M = a/b the
    bound is a^2k x_offset x^n 2^W / (b^k gap), gap = (1 - rho x) a^k 2^W,
    and one ceiling division rounds it up."""
    a, b = (offset + n).numerator, (offset + n).denominator
    gap = (a ** k << W) - (a + b) ** k * x
    if gap <= 0:
        return None

    def mul(u, v):
        man, e = u[0] * v[0], u[1] + v[1]
        extra = man.bit_length() - W
        return (-(-man >> extra), e + extra) if extra > 0 else (man, e)

    man, e = binary_power((x, 0), n, (1, 0), mul)
    top, bottom = a ** (2 * k) * x_offset * man, b ** k * gap
    e -= (n - 1) * W  # x^n 2^W = man 2^(e - (n - 1) W)
    if e >= 0:
        top <<= e
    else:
        bottom <<= -e
    return -(-top // bottom)


def _cut_estimate(k: int, offset: float, least: int, length: int, z,
                  W: int) -> int:
    """A count n0 no larger than the least n >= ``least`` whose bound at
    M = offset + n is at most 2^-W.  The bound is at least M^k x^M =
    e^H(M) 2^-W, H(M) = k ln M - c M + W ln 2, c = 2 pi y, and H is concave.
    h is H in floats less 2^-40 ((k + c) M + W), more than the roundings of
    log, c and M move it (M >= 1): h is concave and h > 0 proves H > 0.
    Newton from the right of h stays >= its root and ends about its last
    step from it, so ceil(m - offset), m the last iterate, is mostly the
    least count past the root; n0 steps down from there until h > 0 at
    offset + n0 - 1.  As h > 0 at offset + ``least``, H > 0 on the whole
    span between, so no count below n0 is admitted, converged or not.
    y = Y/R, z = (X, Y, R), is read to float precision from 64 fractional
    bits, whatever W is."""
    c = 2 * math.pi * math.ldexp((z[1] << 64) // z[2], -64)
    slope = c + (k + c) * 2.0 ** -40  # h: H less 2^-40 ((k + c) M + W)

    def h(m: float) -> float:
        return k * math.log(m) - slope * m + W * (math.log(2) - 2.0 ** -40)

    if least > length:
        return length + 1
    if h(offset + least) <= 0:
        return least
    m = offset + length + 1
    if h(m) > 0:
        return length + 1
    for _ in range(64):
        step = h(m) / (k / m - slope)
        m -= step
        if step < 1e-6:
            break
    n = math.ceil(m - offset)
    while n > least and h(offset + n - 1) <= 0:
        n -= 1
    return min(length + 1, max(least, n))


def _evaluate(memo: _Memo, z, powers: _Powers, label="") -> Ball:
    """The ball at scale 2^-W, W the memo's plan's, that holds the memo's f
    at the point z = (X, Y, R) of ``_common``, by the cut of the module
    docstring: ``PrecisionError``, prefixed by ``label``, when no bound past
    L exists (rho x >= 1).  The cut is the least n with offset + n >= 1
    whose bound, rounded up to whole ulps by ``_tail_bound``, is at most one
    ulp, or L + 1 when none is; that bound joins the radius.  The plan
    keeps n and the bound in ``cuts`` under (z, k, offset, L), so a second
    call there goes straight to the sum; an error is never kept.
    ``powers`` is the caller's ``_powers(z, W)``: x is the ``_norm`` of its
    q, ``_block_sum`` sums the first n terms from its powers, and q^offset
    comes from ``_q_power``."""
    form, W = memo.form, memo.plan.W
    series, k = form.series, form.weight
    offset, length = series.offset, series.length  # an int or a Fraction
    q = powers.q
    shift = q if offset == 1 else _q_power(z, offset, W)
    key = (z, k, offset, length)
    cut = memo.plan.cuts.get(key)
    if cut is None:
        x, x_offset = _norm(q), _norm(shift)
        # the growth bound covers exponents >= 1 only: none below is dropped
        least = max(0, math.ceil(1 - offset))
        n = _cut_estimate(k, float(offset), least, length, z, W)
        while n <= length:
            tail = _tail_bound(offset, n, k, x, x_offset, W)
            if tail is not None and tail <= 1:
                break
            n += 1
        else:  # no cut within L, so every carried term is summed
            tail = _tail_bound(offset, length + 1, k, x, x_offset, W)
            if tail is None:
                raise PrecisionError(f"{label}no tail bound past L={length} "
                                     f"at Im z = {Fraction(z[1], z[2])}")
        cut = memo.plan.cuts[key] = n, tail
    n, tail = cut
    re, im, r = _mul(_block_sum(memo, n, powers), shift, W)
    # the bound at the cut, in whole ulps, joins the radius
    return re, im, r + tail


def _mul(a: Ball, b: Ball, W: int) -> Ball:
    """The product of two balls.  The midpoint's parts are truncated to the
    scale, each off by less than one ulp; the radius is |a| rb + ra |b| +
    ra rb, with |a| <= |Re a| + |Im a|, rounded up: one ulp for the
    radius's own truncation and two for the midpoint's (sqrt 2 < 2)."""
    ar, ai, ra = a
    br, bi, rb = b
    return ((ar * br - ai * bi) >> W, (ar * bi + ai * br) >> W,
            ((((abs(ar) + abs(ai)) * rb + ra * (abs(br) + abs(bi) + rb)) >> W)
             + 3))


#: Coefficients per block of ``_block_sum``: the powers q^0 ... q^(m-1) and
#: q^m, m = _BLOCK, are kept per point.
_BLOCK = 32

#: Guard bits of ``_block_sum``: its powers and sums run at V = W + _GUARD
#: bits, room for a block's radius, a power's radius times the block's sum
#: of |c_j|, to grow before it is rounded to 2^-W (module docstring).
_GUARD = 64


#: q at a point as the ball ``q`` at scale 2^-W and, at scale 2^-V,
#: V = W + _GUARD, the midpoints ``re`` and ``im`` of q^0 ... q^(m-1), the
#: largest of their radii ``r``, and q^m as the ball ``top`` with its
#: ``_norm``, ``norm``.
_Powers = namedtuple("_Powers", "q re im r top norm")


def _norm(ball: Ball) -> int:
    """isqrt(re^2 + im^2) + 1 + r: the Euclidean norm of the ball's
    midpoint rounded up, plus its radius, so a bound on |w| for every w in
    the ball, a disk.  It is below 1 when the disk is, unlike |re| + |im|,
    which exceeds 1 wherever |w| > 1/sqrt 2."""
    re, im, r = ball
    return math.isqrt(re * re + im * im) + 1 + r


def _times(a: Ball, q: Ball, qn: int, V: int) -> Ball:
    """a q at scale 2^-V, qn the ``_norm`` of q.  The parts are made from
    three products (Gauss; Knuth, TAOCP 2, 4.6.4): t = qr (re + im),
    re qr - im qi = t - im (qr + qi) and re qi + im qr = t + re (qi - qr),
    each floored, and the radius is ((|a|_1 dq + r qn) >> V) + 3: one unit
    for its own floor and two for the midpoint's (sqrt 2 < 2)."""
    re, im, r = a
    qr, qi, dq = q
    t = qr * (re + im)
    return ((t - im * (qr + qi)) >> V, (t + re * (qi - qr)) >> V,
            (((abs(re) + abs(im)) * dq + r * qn) >> V) + 3)


def _powers(z, W: int) -> _Powers:
    """q at the point z = (X, Y, R) of ``_common``: ``_q_power(z, 1, W)``,
    and, at scale 2^-V, V = W + _GUARD, q^0 = 1 and each next power the
    last ``_times`` q enclosed at V by ``_q_power(z, 1, V)``."""
    V = W + _GUARD
    q = _q_power(z, 1, V)
    qn, power = _norm(q), (1 << V, 0, 0)
    res, ims, widest = [], [], 0
    for _ in range(_BLOCK):
        res.append(power[0])
        ims.append(power[1])
        widest = max(widest, power[2])
        power = _times(power, q, qn, V)
    return _Powers(_q_power(z, 1, W), res, ims, widest, power, _norm(power))


def _block_sum(memo: _Memo, n: int, powers: _Powers) -> Ball:
    """sum_{j < n} c_j q^j as a ball at scale 2^-W, W the memo's plan's, by
    the block sum of the module docstring, from ``_Memo.integers`` and
    ``powers``: each block of at most m = ``_BLOCK`` coefficients is added
    to the sum so far ``_times`` q^m, whose ``norm`` the powers keep."""
    ints, sums, den = memo.integers(n)
    V = memo.plan.W + _GUARD
    _, pre, pim, pr, top, norm = powers
    acc = 0, 0, 0
    for start in reversed(range(0, n, _BLOCK)):
        end = min(start + _BLOCK, n)
        block = ints[start:end]
        re, im, r = _times(acc, top, norm, V)
        acc = (re + sum(map(operator.mul, block, pre)),
               im + sum(map(operator.mul, block, pim)),
               r + pr * (sums[end] - sums[start]))
    re, im, r = acc
    unit = den << _GUARD
    return (re // unit, im // unit,
            -(-r // unit) + (re % unit > 0) + (im % unit > 0))


#: Halvings of the q argument below its size: the Taylor series of exp
#: runs at |w| < 2^-_HALVINGS.
_HALVINGS = 8


def _q_power(z, t, W: int) -> Ball:
    """q^t = e^{2 pi i t z} at the point z = (X, Y, R) of ``_common`` as a
    ball at scale 2^-W, on Python ints (Brent-Zimmermann, Modern Computer
    Arithmetic, sections 4.2-4.4), from t x = t_num X / (t_den R) and t y
    alike.  The work runs at K = W + g bits, g = 2s + 10 guard bits for the
    s squarings:

    * t x is reduced mod 1 on its floor at scale 2^-K into [-1/2, 1/2):
      exact, so it keeps the floor's error, below 1 ulp (2 are budgeted);
    * pi is ``mpf_pi`` at K + 2 bits, within 2^-K and a hair: 2 ulps;
    * w = 2 pi i t z / 2^s, |w| < 2^-_HALVINGS, has each part within 2 ulps:
      1 for the floor, below 1 for the errors of pi, t x and t y, which the
      division by 2^s shrinks;
    * exp(w) is Taylor's series, summed until a term has |Re| + |Im| <= 2
      ulps.  Each term is within 2 ulps in each part, so 3 on the disk; the
      terms after the last add below 1, and the error of w adds below 3,
      as |exp w| < 1.01;
    * s squarings by ``_mul`` carry the ball to exp(2^s w) = q^t;
    * the midpoint is rounded to nearest at scale W, off by at most
      sqrt 2/2 < 3/4 ulp, which joins the radius, rounded up.

    When t y >= W/9, 2 pi t y > W ln 2, so |q^t| < 2^-W and the ball is
    (0, 0, 1) with nothing summed."""
    X, Y, R = z
    x, y, den = t.numerator * X, t.numerator * Y, t.denominator * R
    whole = y // den  # the floor of t y = y/den, as t x = x/den
    if 9 * (whole - 2) >= W:
        return 0, 0, 1
    # |2 pi i t z| < 2 pi (|t y| + 1/2) < 7 (|whole| + 3) < 2^(s - _HALVINGS)
    s = _HALVINGS + 3 + (abs(whole) + 3).bit_length()
    g = 2 * s + 10
    K = W + g
    _, man, exp, _ = mpf_pi(K + 2)
    pi = man << (exp + K)
    turn = ((x << K) // den) % (1 << K)
    if turn >> (K - 1):
        turn -= 1 << K
    shift = K + s - 1
    wr, wi = -(pi * ((y << K) // den) >> shift), pi * turn >> shift
    re = tr = 1 << K
    im = ti = j = 0
    while abs(tr) + abs(ti) > 2:
        j += 1
        tr, ti = (((tr * wr - ti * wi) >> K) // j,
                  ((tr * wi + ti * wr) >> K) // j)
        re, im = re + tr, im + ti
    ball = re, im, 3 * j + 4
    for _ in range(s):
        ball = _mul(ball, ball, K)
    re, im, r = ball
    half = 1 << (g - 1)
    return (re + half) >> g, (im + half) >> g, (r + (7 << (g - 2)) - 1) >> g


def _term(scalar: Fraction, factor, value: Ball, W: int) -> Ball:
    """scalar * factor * value: the exact rational scalar p/q times the
    exact factor (re + i im)/den, each part floored once to the scale,
    (p re 2^W) // (q den), so within one ulp (radius 3 > sqrt 2), times the
    ball ``value``."""
    re, im, den = factor
    p, q = scalar.numerator, scalar.denominator * den
    return _mul(((p * re << W) // q, (p * im << W) // q, 3), value, W)


def _ulps(n: int, W: int) -> mpf:
    """n ulps of 2^-W as an exact mpf."""
    return mp.make_mpf(from_man_exp(n, -W))


def _result(ball: Ball, W: int) -> EvalResult:
    """The ball as its exact midpoint and radius."""
    re, im, r = ball
    return EvalResult(
        mp.make_mpc((from_man_exp(re, -W), from_man_exp(im, -W))),
        _ulps(r, W))


def _rational(v, name: str) -> Fraction:
    """An int or Fraction v as a Fraction, else ``TypeError`` naming it."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"{name}: {v!r} is a {type(v).__name__}, not an int "
                        f"or a Fraction")
    return Fraction(v)


def _upper(z) -> Tuple[Fraction, Fraction]:
    """The point z = (x, y) as Fractions: ``TypeError`` names it unless x
    and y are ints or Fractions, ``ValueError`` unless Im z = y > 0."""
    x, y = z
    name = f"point ({x}, {y})"
    x, y = _rational(x, name), _rational(y, name)
    if y <= 0:
        raise ValueError(f"{name} is not in the upper half-plane")
    return x, y


def eval_form(form: FormData, z, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate the truncated expansion at the exact point z = (x, y) of the
    upper half-plane, x and y ints or Fractions, returning the midpoint of
    the ball with its radius, which bounds |f(z) - value|."""
    W, z = cfg.precision + _CUT_GUARD, _common(*_upper(z))
    return _result(_evaluate(_Memo(form, _Plan(W)), z, _powers(z, W)), W)


class _Plan:
    """What a battery computes without reading the form, at scale 2^-W (W
    None where nothing is evaluated): the ``_row`` of each congruence it
    tests (``rows``) and its fixed ``points`` (None: searched), and, filled
    in as first asked for, each class's integer representative
    (``classes``), the points chosen per set of classes (``chosen``), each
    (class, point)'s ``_image`` record (``images``), reduced image point
    (``targets``) and, per weight k, exact automorphy factor (``factors``,
    keyed by (class, point, k)), q with its powers, the ``_powers``, at
    each image point mod 1 (``qs``), and the cut n and its tail bound that
    ``_evaluate`` found (``cuts``, keyed by (point, k, offset, L), the point
    as ``_evaluate`` is given it).  That key is complete: x is the norm of
    the plan's q there, q^offset is that q or is enclosed from the point,
    the offset and the plan's W, ``least`` comes from the offset and the
    clamp of n to L + 1 from L; no cut reads a coefficient.  An entry is a
    function of its key, so threads that fill one plan at once can only
    repeat work, never store a different value."""

    def __init__(self, W: Optional[int] = None, points=None,
                 rows: Tuple = ()) -> None:
        self.W, self.points, self.rows = W, points, rows
        self.classes = {}
        self.chosen = {}
        self.images = {}
        self.targets = {}
        self.factors = {}
        self.qs = {}
        self.cuts = {}


#: The most plans ``_plan`` keeps: one per (level, points, W), each of
#: about 0.31 MB (level 1, Delta at L = 512) to 0.77 MB (level 13, Delta at
#: L = 2048) after one battery at W = 288, as tracemalloc counts what
#: dropping it frees; q's powers at each image point are most of it.  As
#: ``factors`` grows per k, ``cuts`` grows by one entry per evaluated image
#: point for each distinct (k, offset, L), about 0.2 KB each.
_PLANS = 8


@functools.lru_cache(maxsize=_PLANS)
def _plan(level: int, points, W: int) -> _Plan:
    """The battery's plan at a level, sample points (None: searched) and
    scale, kept for the process: a second battery there reads its rows,
    points, image records, factors, q's powers and cuts instead of deriving
    them again; the f certificate the rows come from is built once and
    dropped.  The least recently used of more than ``_PLANS`` plans is
    dropped."""
    return _Plan(W, points, _rows(_battery(level)))


class _Memo:
    """What one call computes from the form, beside its ``plan``: each
    ``ScalarPoly``'s rational value, a Fraction (``scalars``), f at each
    image point, mod 1 for an int offset (``values``), the exact factor and
    f value of each (class, point) that ``_stroke`` took (``strokes``), and,
    read as far as a cut has asked, the coefficients c_j as the ints c_j D
    over their least common denominator D (``ints``) and the prefix sums of
    their absolute values (``sums``), for one call."""

    def __init__(self, form: FormData, plan: _Plan) -> None:
        self.form, self.plan = form, plan
        self.scalars = {}
        self.values = {}
        self.strokes = {}
        self.ints = []
        self.sums = [0]

    @functools.cached_property
    def den(self) -> int:
        """D, the least common denominator of all carried coefficients."""
        return math.lcm(*(c.denominator for c in self.form.series.coeffs
                          if type(c) is not int))

    def integers(self, n: int) -> Tuple[List[int], List[int], int]:
        """``ints`` and ``sums``, read to at least n coefficients, and D."""
        ints, sums, den = self.ints, self.sums, self.den
        if len(ints) < n:
            new = self.form.series.coeffs[len(ints):n]
            if den > 1:
                new = [c * den if type(c) is int
                       else c.numerator * (den // c.denominator) for c in new]
            ints += new
            # accumulate yields its initial value first: it is put back
            sums += accumulate(map(abs, new), initial=sums.pop())
        return ints, sums, den

    @functools.cached_property
    def symbols(self) -> Tuple[Fraction, Fraction, int]:
        """The values of a2, a3 and e: the Hecke scalars and the sign."""
        form = self.form
        return _hecke_scalar(form, 2), _hecke_scalar(form, 3), form.sign


def _integral(plan: _Plan, mat: ProjMat) -> Tuple[int, int, int, int, int]:
    """(A, B, C, D, AD - BC): the class's representative with coprime
    integer entries and its determinant, read once per plan, or
    ``ValueError`` naming a class with an irrational entry."""
    rep = plan.classes.get(mat)
    if rep is None:
        entries = mat.primitive_entries()
        if any(e.q for e in entries):
            raise ValueError(f"class {mat} has an irrational entry; the "
                             f"numeric layer takes rational classes only")
        a, b, c, d = (e.p for e in entries)
        rep = plan.classes[mat] = (a, b, c, d, a * d - b * c)
    return rep


def _common(x: Fraction, y: Fraction) -> Tuple[int, int, int]:
    """The rational point x + iy as (X, Y, R), x = X/R and y = Y/R with R
    the lcm of the denominators: the ints that key and feed the geometry."""
    R = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (R // x.denominator),
            y.numerator * (R // y.denominator), R)


#: The exact geometry of a class (A, B, C, D) at z = (X + iY)/R, in ints:
#: cz + d = (u + iv)/R with u = CX + DR and v = CY, the image height
#: det Y R / N as the pair (top, norm), N = u^2 + v^2 > 0, and R and det.
_Image = namedtuple("_Image", "top norm u v r det")


def _image(plan: _Plan, mat: ProjMat, z: Tuple[int, int, int]) -> _Image:
    """The record of the class at the point z = (X, Y, R) of ``_common``,
    made once per plan, whether the search or ``_stroke`` asks first."""
    key = (mat, z)
    image = plan.images.get(key)
    if image is None:
        _, _, c, d, det = _integral(plan, mat)
        X, Y, R = z
        u, v = c * X + d * R, c * Y
        image = plan.images[key] = _Image(det * Y * R, u * u + v * v, u, v,
                                          R, det)
    return image


def _automorphy(k: int, image: _Image) -> Tuple[int, int, int]:
    """det^{k/2} (cz+d)^{-k} = det^{k/2} R^k (u - iv)^k / N^k, exactly, as
    the ints (re, im, den) of (re + i im)/den, from the record of the class
    at z."""
    re, im = binary_power((image.u, -image.v), k, (1, 0),
                          lambda s, t: (s[0] * t[0] - s[1] * t[1],
                                        s[0] * t[1] + s[1] * t[0]))
    scale = image.det ** (k // 2) * image.r ** k
    return re * scale, im * scale, image.norm ** k


def _stroke(memo: _Memo, mat: ProjMat, z: Tuple[int, int, int],
            label: str = "") -> Tuple[Tuple, Ball]:
    """The exact automorphy factor det^{k/2} (cz+d)^{-k} of the class at the
    point z = (X, Y, R) of ``_common``, and the ball at scale 2^-W of the
    memo's f at the image, which lies in the upper half-plane with z since
    det > 0.  The image is finished from the class's ``_image`` record: Mz
    is (((AX + BR) u + ACY^2) + i det Y R)/N, kept as the triple of
    ``_common``, the three ints over their gcd.  The plan keeps the image
    point and factor of each (class, point) and q there mod 1, the memo the
    factor and value of each (class, point) and f at each image point, mod
    1 for an int offset, so each is computed once.  ``label`` prefixes
    errors."""
    key = (mat, z)
    stroke = memo.strokes.get(key)
    if stroke is None:
        plan, form = memo.plan, memo.form
        k = form.weight
        image = _image(plan, mat, z)
        point = plan.targets.get(key)
        if point is None:
            a, b, c, _, _ = _integral(plan, mat)
            X, Y, R = z
            P = (a * X + b * R) * image.u + a * c * Y * Y
            g = math.gcd(P, image.top, image.norm)
            point = plan.targets[key] = (P // g, image.top // g,
                                         image.norm // g)
        # q, and f for an int offset, are the same balls at z + 1 as at z
        reduced = (point[0] % point[2], *point[1:])
        at = reduced if type(form.series.offset) is int else point
        value = memo.values.get(at)
        if value is None:
            powers = plan.qs.get(reduced)
            if powers is None:
                powers = plan.qs[reduced] = _powers(reduced, plan.W)
            value = memo.values[at] = _evaluate(memo, at, powers, label)
        factor = plan.factors.get((mat, z, k))
        if factor is None:
            factor = plan.factors[(mat, z, k)] = _automorphy(k, image)
        stroke = memo.strokes[key] = factor, value
    return stroke


def stroke_value(form: FormData, matrix, z,
                 cfg: EvalConfig = EvalConfig()) -> mpc:
    """The weight-k stroke det^{k/2} (cz+d)^{-k} f(Mz) at the exact point
    z = (x, y) of the upper half-plane, through the same exact image as
    every residual; requires positive determinant.  The geometry runs on
    integers, so the point's coordinates must be ints or Fractions and the
    class of M must have a rational representative: a class with an
    irrational entry, such as that of ``level13.a_matrix()``, raises
    ``ValueError`` naming it."""
    W = cfg.precision + _CUT_GUARD
    factor, value = _stroke(_Memo(form, _Plan(W)), ProjMat.of(matrix),
                            _common(*_upper(z)))
    return _result(_term(Fraction(1), factor, value, W), W).value


# -- congruence residuals -------------------------------------------------------


def _hecke_scalar(form: FormData, p: int) -> Fraction:
    return Fraction(p) ** (1 - form.weight // 2) * Fraction(
        form.series.coefficient(p))


def _row(congruence: Congruence, seen: Optional[Dict] = None,
         ) -> Tuple[str, Tuple, frozenset]:
    """What ``_residual`` reads: the id, the signed terms (sign, class,
    ``ScalarPoly``), lhs then rhs by ``RingElem.terms()``, the class set.
    A class or scalar equal to one in ``seen`` is replaced by that one, and
    a new one is added to it: the first object seen wins."""
    seen = {} if seen is None else seen
    terms = tuple((sign, seen.setdefault(mat, mat), seen.setdefault(poly, poly))
                  for sign, side in ((1, congruence.lhs), (-1, congruence.rhs))
                  for mat, poly in side.terms())
    return congruence.id, terms, frozenset(mat for _, mat, _ in terms)


def _rows(congruences: Iterable[Congruence]) -> Tuple:
    """Each congruence's ``_row``, interned through one dict: equal classes
    and scalars across the rows are one object, so the dict hits of a plan
    and of a memo, all keyed by them, are identity hits, not ``__eq__``
    calls."""
    seen: Dict = {}
    return tuple(_row(congruence, seen) for congruence in congruences)


def _residual(row: Tuple[str, Tuple, frozenset], memo: _Memo,
              tol: Optional[Fraction] = None) -> int:
    """A certified bound, in ulps of 2^-W, on the max over the sample points
    of the memo's |f|lhs - f|rhs|: by default (``points=None``) those the
    point search picks, or the plan's fixed ones, however low their images
    lie; congruences on the same set of classes share one search per plan.
    At each point it is |sum of the terms' midpoints|, rounded up, plus the
    sum of their radii.  Each ``ScalarPoly`` is read once per memo, as a
    Fraction; terms whose scalar is zero drop out, and an irrational one
    raises ``ValueError`` naming it and its class.
    Radii that alone reach a tolerance ``tol`` at a point raise
    ``PrecisionError``, naming them, ``tol`` and the lowest exact image
    height: the radius, not a floor, says where the points lie too low."""
    label, signed, mats = row
    plan, W = memo.plan, memo.plan.W
    terms = []
    for sign, mat, poly in signed:
        scalar = memo.scalars.get(poly)
        if scalar is None:
            scalar = poly.instantiate(*memo.symbols)
            if not scalar.is_rational:
                raise ValueError(f"{label}: the scalar {scalar} of class "
                                 f"{mat} is irrational; the numeric layer "
                                 f"takes rational scalars only")
            scalar = memo.scalars[poly] = scalar.a
        if scalar:
            terms.append((mat, sign * scalar))
    points = plan.points
    if points is None:
        points = plan.chosen.get(mats)
        if points is None:
            points = plan.chosen[mats] = _search_points(mats, plan)[1]
    worst = widest = 0
    for x, y in points:
        z, re, im, radius = _common(x, y), 0, 0, 0
        for mat, scalar in terms:
            factor, value = _stroke(memo, mat, z, f"{label}: ")
            term_re, term_im, term_radius = _term(scalar, factor, value, W)
            re, im, radius = re + term_re, im + term_im, radius + term_radius
        # ceil(|midpoint|), from the integer square root
        norm = re * re + im * im
        worst = max(worst, (math.isqrt(norm - 1) + 1 if norm else 0) + radius)
        widest = max(widest, radius)
    if tol is not None and widest >= tol * (1 << W):
        low = _lowest_height(points, [mat for mat, _ in terms], plan, None)
        # 5 digits of the exact radius and of p/q as mpf(p)/q at 53 bits
        shown = mpf_div(from_int(tol.numerator, 53, round_nearest),
                        from_int(tol.denominator), 53, round_nearest)
        raise PrecisionError(
            f"{label}: ball radius {to_str(from_man_exp(widest, -W), 5)} is "
            f"not below the tolerance {to_str(shown, 5)}; the points and "
            f"their images reach down to Im = {Fraction(*low)}")
    return worst


def _residuals(form: FormData, plan: _Plan,
               tol: Optional[Fraction] = None) -> List[int]:
    """``_residual`` of each of the plan's rows, in ulps of its 2^-W, with
    one memo of the form's scalars, strokes and f values; the first
    congruence that cannot be decided raises ``PrecisionError``."""
    memo = _Memo(form, plan)
    return [_residual(row, memo, tol) for row in plan.rows]


def congruence_residual(form: FormData, congruence: Congruence,
                        cfg: EvalConfig = EvalConfig()) -> mpf:
    """Certified max of |f|lhs - f|rhs| over the sample points, by default
    those the battery's search picks for the congruence, with its symbols
    instantiated from the form.  Its classes and instantiated scalars must
    be rational, as every certificate's are: ``ValueError`` names the
    first that is not."""
    plan = _Plan(cfg.precision + _CUT_GUARD, cfg.points, (_row(congruence),))
    (residual,) = _residuals(form, plan)
    return _ulps(residual, plan.W)


#: The candidates' heights y0, each with the second point's shift y0/8
#: and height 9 y0/10.
_SUGGEST_HEIGHTS = tuple((y0, y0 / 8, y0 * Fraction(9, 10)) for y0 in (
    Fraction(1), Fraction(4, 5), Fraction(1, 2), Fraction(1, 4),
    Fraction(1, 5)))


def _lowest_height(points, mats, plan: _Plan,
                   floor: Optional[Tuple[int, int]],
                   ) -> Optional[Tuple[int, int]]:
    """The least imaginary part among the points and their images under
    the classes, as a pair (top, bottom) of ints with bottom > 0, or None as
    soon as it is at or below ``floor``.  Heights are compared by
    cross-multiplication, and the image heights are computed lazily, so a
    stop saves the rest."""
    zs = [_common(x, y) for x, y in points]
    heights = chain(((Y, R) for _, Y, R in zs),
                    (_image(plan, mat, z)[:2] for z in zs for mat in mats))
    low = None
    for top, bottom in heights:
        if low is None or top * low[1] < low[0] * bottom:
            low = top, bottom
            if floor is not None and top * floor[1] <= floor[0] * bottom:
                return None
    return low


def _search_points(mats, plan: _Plan):
    """The best candidate pair for a set of classes, with its score: the
    least height it reaches, as a Fraction.  Candidates are centered
    on the classes' isometric circles, at -D/C, and tried in a fixed order,
    and the first with the highest score wins.  A candidate stops being
    scored once its running minimum is at or below the best score so far:
    only a strictly higher score replaces the best, so it could not win."""
    centers = {Fraction(0)}
    for mat in mats:
        _, _, c, d, _ = _integral(plan, mat)
        if c:
            centers.add(Fraction(-d, c))
    centers = sorted(centers)
    best = best_points = None
    for y0, shift, y1 in _SUGGEST_HEIGHTS:
        for x0 in centers:
            pts = ((x0, y0), (x0 + shift, y1))
            score = _lowest_height(pts, mats, plan, best)
            if score is not None:
                best, best_points = score, pts
    # centers holds 0 and every height is tried, so best is set here
    return Fraction(*best), best_points


def suggest_points(congruence: Congruence,
                   y_min: Fraction = Fraction(3, 20),
                   ) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """The two exact sample points that the battery's search picks for the
    congruence, or ``ConfigurationError`` naming the height they reach when
    some image of some class in it lies below y_min, an int or a Fraction."""
    floor = _rational(y_min, "y_min")
    best, points = _search_points(_row(congruence)[2], _Plan())
    if best < floor:
        raise ConfigurationError(
            f"no candidate points keep all images of {congruence.id} above "
            f"y_min={y_min}; the best candidates reach Im = {best}")
    return points


# -- the stretch exponent and the power lattice ---------------------------------


def lambda_compute(cfg: EvalConfig = EvalConfig()) -> mpf:
    """The exponent tying the two diagonal stretches together:
    STRETCH_BASE ** lambda = H3_EIGENVALUE, both inputs exact."""
    with mp.workprec(cfg.precision):
        return mp.log(_to_mpf(H3_EIGENVALUE)) / mp.log(_to_mpf(STRETCH_BASE))


def lambda_rational_exclusion() -> bool:
    """Prove exactly that lambda is irrational.  STRETCH_BASE = e *
    H3_EIGENVALUE for the integral unit e = (3+sqrt13)/2 > 1, and no nonzero
    power of H3_EIGENVALUE (norm 1, not integral) is integral, so
    STRETCH_BASE^p = H3_EIGENVALUE^q forces q = p and e^p = 1: p = q = 0."""
    def integral(z: QuadElem) -> bool:
        # 13 = 1 mod 4: integral exactly when trace and norm are integers
        return all(v.is_rational and v.a.denominator == 1
                   for v in (z + z.conj(), z * z.conj()))

    unit, one = STRETCH_BASE / H3_EIGENVALUE, QuadElem.of(1)
    return (integral(unit) and abs(unit * unit.conj()) == one
            and (unit - one).sign() > 0 and not integral(H3_EIGENVALUE)
            and H3_EIGENVALUE * H3_EIGENVALUE.conj() == one)


class DensityResult(NamedTuple):
    m: int
    n: int
    error: mpf


def _least_in_window(A: int, M: int, L: int, R: int) -> Optional[int]:
    """The least x >= 0 with L <= (A*x) mod M <= R, for 0 <= A < M and
    0 <= L <= R < M, or None.  With no multiple of A in [L, R], the least y
    with (M*y) mod A in [-R mod A, -L mod A] fixes x: one step of Euclid."""
    steps = []
    while L:
        if not A:
            return None
        x = -(-L // A)
        if A * x <= R:
            break
        steps.append((A, M, L))
        A, M, L, R = M % A, A, -R % A, -L % A
    else:
        x = 0
    for A, M, L in reversed(steps):
        x = -(-(L + M * x) // A)
    return x


def density_search(X, tol, bound: int) -> DensityResult:
    """Integers |m|, |n| <= bound with |STRETCH_BASE^(2m + n*lambda) - X|
    <= tol and the least |n| (ties to n > 0), or ``DensityError`` if none.
    With [lo, hi] the exponents u = 2m + n*lambda near X, some m fits n when
    (hi/2 - n*lambda/2) mod 1 <= (hi - lo)/2: a window on (A*|n|) mod 2^w,
    widened by the rounding of A, that ``_least_in_window`` searches.  w and
    the precision that checks each candidate grow with the bound and X/tol."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")

    def read(v) -> mpf:
        return _to_mpf(v) if isinstance(v, (Fraction, QuadElem)) else mpf(v)

    with mp.workprec(64):
        for name, v in (("target", X), ("tolerance", tol)):
            if not (mp.isfinite(read(v)) and read(v) > 0):
                raise ValueError(f"the {name} must be a positive finite "
                                 f"number, got {v}")
        mag = mp.mag(read(X))
        width = 64 + bound.bit_length() + max(0, mag - mp.mag(read(tol)))
    prec = width + abs(mag).bit_length() + 8
    with mp.workprec(prec):
        xv, tolv = read(X), read(tol)
        y = _to_mpf(STRETCH_BASE)
        lam = lambda_compute(EvalConfig(precision=prec))
        t = mp.log(xv) / mp.log(y)

        def attempt(n: int) -> Optional[DensityResult]:
            m = int(mp.nint((t - n * lam) / 2))
            err = abs(y ** (2 * m + n * lam) - xv)
            ok = abs(m) <= bound and err <= tolv
            return DensityResult(m, n, err) if ok else None

        hit = attempt(0)  # a hit at n = 0 leaves nothing to search
        # |u - t| <= 1 keeps attempt's m the one integer in the window
        hi = min(t + 1, mp.log(xv + tolv) / mp.log(y))
        lo = max(t - 1, mp.log(xv - tolv) / mp.log(y)) if xv > tolv else t - 1
        M = 1 << width
        span, shift = int((hi - lo) / 2 * M), int(mp.nint(hi / 2 * M))
        for sign in (1, -1):
            x, stop = 1, abs(hit.n) - 1 if hit else bound
            A, slack = int(mp.nint(-sign * lam / 2 * M)) % M, stop + 2
            found = None
            while x <= stop and not found:
                L = (-slack - shift - A * x) % M
                R = L + span + 2 * slack
                step = 0 if R >= M else _least_in_window(A, M, L, R)
                if step is None or x + step > stop:
                    break
                found = attempt(sign * (x + step))
                x += step + 1
            hit = found or hit
        if hit:
            return hit
        raise DensityError(
            f"no exponent pair with |m|, |n| <= {bound} reaches the target "
            f"within {mp.nstr(tolv, 5)}")


# -- cusp decay -----------------------------------------------------------------


class CuspDecayVerdict(NamedTuple):
    ok: bool
    failures: Tuple[Tuple[str, object], ...]


def cusp_decay_check(form: FormData) -> CuspDecayVerdict:
    """Decide exactly, evaluating nothing, that f vanishes at both cusps.
    At infinity it does exactly when no carried coefficient at an exponent
    <= 0 is nonzero: the other terms vanish as Im z grows, and past L the
    growth bound |a_n| <= n^k that ``FormData`` checks bounds the rest.  At
    0, f|H = eps f with |eps| = 1, which ax:H tests, so both cusps fail
    together, each named with the first such exponent."""
    # the exponents rise, so the first nonzero coefficient decides
    lead = next((form.series.offset + j
                 for j, c in enumerate(form.series.coeffs) if c), 1)
    failures = () if lead > 0 else (("infinity", lead), ("zero", lead))
    return CuspDecayVerdict(not failures, failures)


# -- the battery -----------------------------------------------------------------


_HEADLINE_STEPS = ("W", "HT2", "HT3", "g2", "R3", "S3", "delta1",
                   "H4", "H5", "H6", "H7", "delta3", "delta2")


def _format_residual(x: mpf) -> str:
    """x >= 0 as ``%.2e`` writes it.  Below 2^-1022 a double keeps too few
    bits (and none from 2^-1075 down), so there the exact man*2^exp of x
    is rounded to 3 significant digits in ints."""
    man, exp = x.man_exp
    top = man.bit_length() + exp  # 2^(top-1) <= x < 2^top
    if not man or top > -1022:
        return f"{float(x):.2e}"
    den = 1 << -exp
    # x < 2^top < 10^d; lower d until 10^d <= x
    d = math.floor(top * math.log10(2)) + 1
    while man * 10 ** -d < den:
        d -= 1
    # to nearest: x * 10^(2-d) is odd / 2^j with j > 700, never a tie
    r = (2 * man * 10 ** (2 - d) + den) // (2 * den)
    if r == 1000:
        r, d = 100, d + 1
    return f"{r // 100}.{r % 100:02d}e{d:+03d}"


class FormcheckReport(NamedTuple):
    """The battery's rows, its verdict, the largest residual, and the
    precision in bits (``--prec``) the battery ran at."""

    rows: Tuple[Tuple, ...]
    ok: bool
    max_residual: mpf
    precision: int

    def lines(self) -> List[str]:
        """The report as ``formcheck`` prints it.  A PASS row whose bound is
        below 2^-precision prints ``max_residual<2^-{precision}``: its digits
        are the evaluator's rounding noise at W = precision + 32 bits, which
        a change of kernel or points moves.  A FAIL row, and one at or above
        2^-precision, prints its bound by ``_format_residual``."""
        out = []
        floor = mp.ldexp(1, -self.precision)  # exact, whatever mp.prec is
        for row in self.rows:
            kind = row[0]
            if kind == "CONG":
                _, cid, residual, passed = row
                bound = (f"<2^-{self.precision}"
                         if passed and residual < floor
                         else f"={_format_residual(residual)}")
                out.append(f"CONG {cid} max_residual{bound} "
                           f"verdict={'PASS' if passed else 'FAIL'}")
            elif kind == "HECKE":
                # the stroke identity is the recursion times p^(1-k/2) != 0,
                # so one verdict backs both fields
                _, p, passed = row
                verdict = "PASS" if passed else "FAIL"
                out.append(f"HECKE p={p} recursion={verdict} stroke={verdict}")
            else:
                _, passed = row
                out.append(f"CUSP decay verdict={'PASS' if passed else 'FAIL'}")
        out.append("FORMCHECK OK" if self.ok else "FORMCHECK FAIL")
        return out


def _battery(level: int) -> Tuple[Congruence, ...]:
    """The four context axioms (P, H, T2, T3), then each headline step
    that the level's f certificate builds."""
    from .level13 import build_f_certificate
    certificate = build_f_certificate(level)
    by_id = {step.id: step.result for step in certificate.steps}
    return (*certificate.axioms,
            *(by_id[i] for i in _HEADLINE_STEPS if i in by_id))


def run_formcheck(form: FormData, cfg: EvalConfig = EvalConfig(),
                  residual_tol: Fraction = Fraction(1, 10 ** 15),
                  ) -> FormcheckReport:
    """Full numeric battery: stroke residuals for the context axioms and
    the certificate's headline congruences, by default at the searched
    points whatever height their images reach, judged by ``residual_tol``
    as the module docstring says, the Hecke recursion at p = 2 and 3 (which
    settles the stroke identity too), and cusp decay.  Forms whose
    expansion does not start at exponent 1 are rejected, and so are levels
    divisible by 2 or 3: ax:T2 and ax:T3 are the Hecke operators for p
    prime to the level, which a genuine eigenform there need not satisfy."""
    if Fraction(form.series.offset) != 1:
        raise ValueError(
            f"the battery needs an expansion with leading exponent 1, "
            f"got {form.series.offset}; fractional-offset forms are rejected")
    for p in (2, 3):
        if form.level % p == 0:
            raise ValueError(
                f"level {form.level} is divisible by {p}: the battery's "
                f"ax:T{p} is the Hecke relation of T_{p}, which holds only at "
                f"levels prime to {p}")
    tol = Fraction(residual_tol)
    # first, so that a series too short for them is named by its length;
    # with L < p it is below the 10p that hecke_check checks before it
    # reads a_p, so 0 stands in for the a_p it does not carry
    series = form.series
    hecke = [("HECKE", p, hecke_check(
        series, p, form.weight,
        series.coefficient(p) if p <= series.length else 0).ok)
        for p in (2, 3)]
    W = cfg.precision + _CUT_GUARD
    plan = _plan(form.level, cfg.points, W)
    residuals = _residuals(form, plan, tol)
    rows: List[Tuple] = []
    for (cid, _, _), residual in zip(plan.rows, residuals):
        # residual 2^-W < p/q, exactly in integers
        passed = residual * tol.denominator < tol.numerator << W
        rows.append(("CONG", cid, _ulps(residual, W), passed))
    rows += hecke
    rows.append(("CUSP", cusp_decay_check(form).ok))
    # every row ends with its verdict
    return FormcheckReport(tuple(rows), all(row[-1] for row in rows),
                           _ulps(max(residuals), W), cfg.precision)


def certificate_residual_sweep(form: FormData, certificate: Certificate,
                               cfg: EvalConfig = EvalConfig()) -> mpf:
    """Max stroke residual of the form over every congruence the
    certificate establishes, by default at the points the battery searches;
    the numeric soundness bridge for the symbolic layer."""
    plan = _Plan(cfg.precision + _CUT_GUARD, cfg.points,
                 _rows(step.result for step in certificate.steps))
    return _ulps(max(_residuals(form, plan), default=0), plan.W)
