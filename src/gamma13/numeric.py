"""High-precision evaluation of exact q-expansions on the upper half-plane.

Evaluation is binary floating point at a configured precision (mpmath),
but everything that decides *where* to evaluate is exact: every point is
an exact pair (x, y), images under matrix classes are computed in
Q(sqrt 13), and the minimum-imaginary-part audit compares field elements
by exact sign.  No point is ever given or computed as a complex float.

One private evaluator, ``_evaluate``, is the only code that sums a
truncated expansion (by Horner's rule) and bounds what the truncation
leaves out; ``eval_form``, ``stroke_value``, every congruence residual and
the cusp-decay check go through it.  The bound rests on the crude
coefficient growth bound |a_n| <= n^k, which building a ``FormData`` (in
``qseries``) checks on every carried coefficient with n >= 1:

    sum_{n >= M} n^k x^n  <=  M^k x^M / (1 - rho x),   rho = (1 + 1/M)^k,

with x = e^{-2 pi Im z} and M the first exponent beyond the truncation.
The gate is this bound at M = offset + L + 1, past every carried
coefficient: above the caller's tolerance, or at a point too low for the
bound to exist, it raises ``PrecisionError`` instead of degrading.

Past the gate the sum is cut short, by the truncation rule of Johansson's
Arb (IEEE Trans. Comput. 66(8), 2017): Horner runs over the first n
carried coefficients only, n the least count whose bound at
M = offset + n is at most min(tolerance, 2^-(prec + 32)), 32 guard bits
below the working precision.  The growth bound covers the dropped carried
terms as it covers those past L, so the bound at the cut bounds all that
is left out, and it is the tail bound returned.  Once L reaches the cut,
neither the cut nor the value depends on L, so carrying more coefficients
costs nothing at the heights the cut serves.  Horner's rule runs on
signed Python-int mantissas and exponents (``_horner``, ``_sum``,
``_round``) and reproduces mpc's * and + bit for bit: the four products of
a complex step are exact, the real and the imaginary part are each rounded
once to the working precision, to nearest with ties to even, and the real
part plus the coefficient is rounded once more, as ``mpmath.libmp`` does,
its perturbation of sums whose exponents lie over 100 apart included.  At
offset 1 the shift q^offset is q itself, since 2 pi i * 1 is exact.

Congruences are tested pointwise through the weight-k stroke action
f|M = det(M)^{k/2} (cz+d)^{-k} f(Mz), which is invariant under rescaling
M for even k, so any representative of a projective class may be used.
One private helper, ``_stroke``, computes every stroke: ``stroke_value``
and each residual term take the exact image, its audit and the factor
from it.
The symbols in a congruence are instantiated from the form: the Hecke
scalars as p^{1-k/2} a_p and the inversion sign as the carried +-1.

With ``points=None`` the sample points are searched: two candidate points
per center on the classes' isometric circles, at fixed heights, each
scored by the least height among the points and their images, the first
highest score winning.  The search is pruned: a candidate stops being
scored once its running minimum is at or below the best score so far,
since only a strictly higher score wins, so the choice is that of the full
search.  One battery (one ``_residuals`` call) keeps a memo of the exact
image of each (class, point), shared by the search and ``_stroke``, of the
automorphy factor and f value of each (class, point) that ``_stroke``
audited, of the points chosen for each set of classes, which congruences
on the same classes reuse, and of f at each image point.  The memo dies
with the call.

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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Tuple

from mpmath import exp, mp, mpc, mpf, pi

from .certificate import Certificate, Congruence
from .exactnum import DEFAULT_D, QuadElem
from .level13 import build_f_certificate
from .projmat import ProjMat
from .qseries import FormData, hecke_check


class ConfigurationError(ValueError):
    """A sample point or an image point violates the evaluation config."""


class PrecisionError(ArithmeticError):
    """The rigorous tail bound exceeds the configured tolerance."""


class DensityError(RuntimeError):
    """No lattice power within the bound reaches the target."""


#: Larger diagonal stretch of the first commuting generator: (2+sqrt13)/3.
STRETCH_BASE = QuadElem(Fraction(2, 3), Fraction(1, 3))

#: Smaller diagonal stretch of the second generator: (7-sqrt13)/6.
H3_EIGENVALUE = QuadElem(Fraction(7, 6), Fraction(-1, 6))

DEFAULT_POINTS: Tuple[Tuple[Fraction, Fraction], ...] = tuple(
    (Fraction(x), Fraction(y)) for x, y in (
        (0, 1), (Fraction(1, 3), Fraction(9, 10)),
        (Fraction(-1, 2), Fraction(4, 5)), (Fraction(2, 7), Fraction(6, 5)),
        (Fraction(-2, 5), 1), (Fraction(1, 2), Fraction(11, 10)),
        (Fraction(-1, 4), Fraction(17, 20)), (Fraction(3, 8), Fraction(5, 4)),
    ))

#: Points on the circle |z| = 1/sqrt(13), which the level-13 inversion
#: maps to itself, so both the points and their images keep Im >= 2/13.
FRICKE_POINTS_13: Tuple[Tuple[Fraction, Fraction], ...] = (
    (Fraction(2, 13), Fraction(3, 13)), (Fraction(-2, 13), Fraction(3, 13)),
    (Fraction(3, 13), Fraction(2, 13)), (Fraction(-3, 13), Fraction(2, 13)),
)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings.  ``points=None`` means: auto-tune sample
    points per congruence instead of using a fixed set."""

    precision: int = 256
    points: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = DEFAULT_POINTS
    y_min: Fraction = Fraction(3, 20)
    tolerance: Fraction = Fraction(1, 10 ** 20)

    def __post_init__(self) -> None:
        if self.points is not None:
            pts = tuple((Fraction(x), Fraction(y)) for x, y in self.points)
            if not pts:
                raise ValueError("the sample point set is empty; "
                                 "points=None auto-tunes them instead")
            if any(y <= 0 for _, y in pts):
                raise ValueError("sample points must lie in the upper half-plane")
            object.__setattr__(self, "points", pts)
        object.__setattr__(self, "y_min", Fraction(self.y_min))
        object.__setattr__(self, "tolerance", Fraction(self.tolerance))
        if self.tolerance <= 0 or self.y_min <= 0:
            raise ValueError("tolerance and y_min must be positive")


DEFAULT_CONFIG = EvalConfig()


class EvalResult(NamedTuple):
    value: mpc
    tail_bound: mpf


def _to_mpf(x) -> mpf:
    if isinstance(x, QuadElem):
        if x.is_rational:  # a + 0*sqrt13 rounds to a: skip the root
            return _to_mpf(x.a)
        return _to_mpf(x.a) + _to_mpf(x.b) * mp.sqrt(DEFAULT_D)
    q = Fraction(x)
    return mpf(q.numerator) / q.denominator


#: Bits below the working ulp at which the cut in ``_evaluate`` puts the
#: tail bound.
_CUT_GUARD = 32


def _tail_bound(first: mpf, k: int, x: mpf) -> mpf:
    """M^k x^M / (1 - rho x) at M = ``first``, or +inf when rho x >= 1."""
    rho = (1 + 1 / first) ** k
    if rho * x >= 1:
        return mp.inf
    return first ** k * x ** first / (1 - rho * x)


def _cut_estimate(k: int, offset: float, least: int, length: int,
                  y: float, log_thr: float) -> int:
    """A count n0 no larger than the least n >= ``least`` whose bound at
    M = offset + n is at most e^log_thr.  The bound is at least M^k x^M,
    whose log h(M) = k ln M - 2 pi y M is concave, so the counts it admits
    are those below its left root and those past its right root r; Newton
    steps from the right converge down to r."""
    c = 2 * math.pi * y

    def h(m: float) -> float:
        return k * math.log(m) - c * m - log_thr

    if least > length:
        return length + 1
    if h(offset + least) <= 0:
        return least
    m = offset + length + 1
    if h(m) > 0:
        return length + 1
    for _ in range(64):
        step = h(m) / (k / m - c)
        m -= step
        if step < 1e-6:
            break
    # one count of slack for the rounding of the float estimate
    return min(length + 1, max(least, math.ceil(m - offset) - 1))


def _evaluate(form: FormData, zre: mpf, zim: mpf, tol: mpf,
              label: str = "") -> EvalResult:
    """The truncated expansion at zre + i*zim and its tail bound, as in the
    module docstring.  The gate is the bound at M = offset + L + 1, past
    every carried coefficient: it raises ``PrecisionError`` when it exceeds
    ``tol`` or does not exist at this height (rho x >= 1); ``label``
    prefixes the message.  Horner then runs over the first n coefficients
    only, n the least count whose bound at M = offset + n is at most
    min(tol, 2^-(prec + ``_CUT_GUARD``)) with offset + n >= 1, or L + 1
    when none is.  The returned bound is the one at that cut: it covers the
    dropped carried terms and everything past L together."""
    series, k = form.series, form.weight
    offset = _to_mpf(series.offset)
    length = series.length
    x = exp(-2 * pi * zim)
    tail = _tail_bound(offset + length + 1, k, x)
    if tail > tol or tail == mp.inf:
        raise PrecisionError(
            f"{label}tail bound {mp.nstr(tail, 5)} at Im z = "
            f"{mp.nstr(zim, 8)} exceeds the tolerance {mp.nstr(tol, 5)}")
    thr = min(tol, mp.ldexp(1, -(mp.prec + _CUT_GUARD)))
    # the growth bound covers exponents >= 1 only: no term below is dropped
    least = max(0, math.ceil(1 - Fraction(series.offset)))
    n = _cut_estimate(k, float(offset), least, length, float(zim),
                      float(mp.log(thr)))
    while n <= length:
        cut = _tail_bound(offset + n, k, x)
        if cut <= thr:
            tail = cut
            break
        n += 1
    z = mpc(zre, zim)
    q = exp(mpc(0, 2) * pi * z)
    value = _horner(series.coeffs[:n], q)
    # 2 pi i * 1 is exact, so at offset 1 the shift's exp is q's bit for bit
    shift = q if offset == 1 else exp(mpc(0, 2) * pi * offset * z)
    return EvalResult(value * shift, tail)


def _round(m: int, e: int, prec: int) -> Tuple[int, int]:
    """m 2^e rounded to ``prec`` bits, to nearest with ties to even, as a
    signed mantissa with its trailing zeros stripped (0 comes back as
    (0, 0)): libmp's normalization at round_nearest."""
    n = m.bit_length() - prec
    if n > 0:
        half = 1 << (n - 1)
        r = (m + half) >> n
        if r & 1 and m & (2 * half - 1) == half:  # a tie: keep the even one
            r -= 1
        m, e = r, e + n
    if not m:
        return 0, 0
    tz = (m & -m).bit_length() - 1
    return m >> tz, e + tz


def _sum(sm: int, se: int, tm: int, te: int, prec: int) -> Tuple[int, int]:
    """libmp's mpf_add of sm 2^se and tm 2^te at ``prec`` bits and
    round_nearest, on signed odd mantissas or 0.  Like mpf_add, when the
    exponents differ by more than 100 and the larger operand's top bit lies
    more than prec + 4 bits above the other's, the smaller one counts only
    as +-1 at prec + 4 bits below the larger one's lowest bit."""
    if not tm:
        return _round(sm, se, prec)
    if not sm:
        return _round(tm, te, prec)
    offset = se - te
    if offset < 0:
        sm, se, tm, te, offset = tm, te, sm, se, -offset
    if offset > 100 and (sm.bit_length() + offset - tm.bit_length()
                         > prec + 4):
        return _round((sm << (prec + 4)) + (1 if tm > 0 else -1),
                      se - prec - 4, prec)
    return _round((sm << offset) + tm, te, prec)


def _horner(coeffs, q: mpc) -> mpc:
    """sum_j coeffs[j] q^j by Horner's rule at the working precision, on
    signed integer mantissas and exponents.  Each step is libmp's mpc_mul
    (four exact products, the real and imaginary parts each rounded once)
    and mpc_add_mpf (the real part plus the coefficient, rounded once), all
    at round_nearest, so the value is that of mpc's * and + bit for bit."""
    prec = mp.prec
    (qs, a, ae, _), (ps, b, be, _) = q._mpc_
    a, b = -a if qs else a, -b if ps else b
    re = re_e = im = im_e = 0
    for c in reversed(coeffs):
        re, re_e, im, im_e = (
            *_sum(re * a, re_e + ae, -(im * b), im_e + be, prec),
            *_sum(re * b, re_e + be, im * a, im_e + ae, prec))
        if type(c) is not int:
            cs, cm, ce, _ = _to_mpf(c)._mpf_
            re, re_e = _sum(re, re_e, -cm if cs else cm, ce, prec)
        elif c:
            tz = (c & -c).bit_length() - 1
            re, re_e = _sum(re, re_e, c >> tz, tz, prec)
    # both parts already fit the precision, so mpf((m, e)) is exact
    return mpc(mpf((re, re_e)), mpf((im, im_e)))


def eval_form(form: FormData, z, cfg: Optional[EvalConfig] = None) -> EvalResult:
    """Evaluate the truncated expansion at the exact point z = (x, y) of the
    upper half-plane, returning the value together with its rigorous tail
    bound."""
    cfg = cfg or DEFAULT_CONFIG
    x, y = z
    if (QuadElem.of(y) - cfg.y_min).sign() < 0:
        raise ConfigurationError(
            f"point has imaginary part {y} below the floor {cfg.y_min}")
    with mp.workprec(cfg.precision):
        return _evaluate(form, _to_mpf(x), _to_mpf(y), _to_mpf(cfg.tolerance))


@dataclass
class _Memo:
    """What one battery computes once and reuses: f at each image point
    (``values``), the exact image of each (class, point) (``images``), the
    automorphy factor and f value of each audited (class, point)
    (``strokes``), and the points the search chose for each set of classes
    (``points``).  It lives for one call, so nothing carries over between
    calls."""

    values: Dict = field(default_factory=dict)
    images: Dict = field(default_factory=dict)
    strokes: Dict = field(default_factory=dict)
    points: Dict = field(default_factory=dict)


def _image(memo: _Memo, mat: ProjMat, x, y):
    """``_exact_image`` of the class at x + iy, computed once per memo."""
    key = (mat, x, y)
    image = memo.images.get(key)
    if image is None:
        image = memo.images[key] = _exact_image(mat, x, y)
    return image


def _automorphy(k: int, det: QuadElem, den: QuadElem, cy: QuadElem) -> mpc:
    """det^{k/2} (cz+d)^{-k} at the working precision, from the exact
    determinant and the real and imaginary parts of cz + d."""
    return _to_mpf(det) ** (k // 2) * mpc(_to_mpf(den), _to_mpf(cy)) ** -k


def _stroke(form: FormData, mat: ProjMat, x, y, cfg: EvalConfig,
            memo: _Memo, label: str = "") -> Tuple[mpc, mpc]:
    """The automorphy factor det^{k/2} (cz+d)^{-k} of the class at the exact
    point x + iy, and f at the image.  The image is computed and audited
    against y_min exactly; ``memo`` keeps the factor and value of each
    (class, point) and f at each image point, so each is computed once.
    ``label`` prefixes error messages."""
    key = (mat, x, y)
    stroke = memo.strokes.get(key)
    if stroke is None:
        xi, yi, den, cy, det = _image(memo, mat, x, y)
        if (yi - cfg.y_min).sign() < 0:
            raise ConfigurationError(
                f"{label}image of ({x}, {y}) under {mat} has imaginary part "
                f"below y_min={cfg.y_min}")
        point = (xi, yi)
        if point not in memo.values:
            memo.values[point] = _evaluate(
                form, _to_mpf(xi), _to_mpf(yi), _to_mpf(cfg.tolerance),
                label).value
        stroke = memo.strokes[key] = (
            _automorphy(form.weight, det, den, cy), memo.values[point])
    return stroke


def stroke_value(form: FormData, matrix, z,
                 cfg: Optional[EvalConfig] = None) -> mpc:
    """The weight-k stroke det^{k/2} (cz+d)^{-k} f(Mz) at the exact point
    z = (x, y), through the same exact image and audit as every residual;
    requires positive determinant."""
    cfg = cfg or DEFAULT_CONFIG
    x, y = z
    mat = ProjMat.of(matrix)
    with mp.workprec(cfg.precision):
        factor, value = _stroke(form, mat, x, y, cfg, _Memo())
        return factor * value


# -- congruence residuals -------------------------------------------------------


def _hecke_scalar(form: FormData, p: int) -> Fraction:
    return Fraction(p) ** (1 - form.weight // 2) * Fraction(
        form.series.coefficient(p))


def _exact_image(mat: ProjMat, x, y):
    """Image of the exact point x + iy under the class, as field elements
    (real part, imaginary part, the real and imaginary parts of the
    automorphy denominator c*z + d, and the determinant)."""
    a, b, c, d = mat.entries
    xq, yq = QuadElem.of(x), QuadElem.of(y)
    den, cy = c * xq + d, c * yq
    q = den * den + cy * cy
    det = a * d - b * c
    xi = ((a * xq + b) * den + a * c * yq * yq) / q
    yi = det * yq / q
    return xi, yi, den, cy, det


def _signed_terms(congruence: Congruence) -> List[Tuple[int, ProjMat, object]]:
    items: List[Tuple[int, ProjMat, object]] = []
    for sign, side in ((1, congruence.lhs), (-1, congruence.rhs)):
        for mat, poly in side.terms():
            items.append((sign, mat, poly))
    return items


def _residual(form: FormData, congruence: Congruence,
              cfg: EvalConfig, memo: _Memo) -> mpf:
    """Max over the sample points of |f|lhs - f|rhs|: the configured points,
    or with ``points=None`` those the point search picks above y_min.
    Terms whose instantiated scalar is zero drop out; every other image is
    audited against y_min before f is evaluated there."""
    label, y_min = congruence.id, cfg.y_min
    points = cfg.points
    if points is None:
        points = _chosen_points(congruence, y_min, memo)
    for x, y in points:
        if Fraction(y) < y_min:
            raise ConfigurationError(
                f"{label}: sample point ({x}, {y}) is below y_min={y_min}")
    a2, a3 = _hecke_scalar(form, 2), _hecke_scalar(form, 3)
    terms = []
    for sign, mat, poly in _signed_terms(congruence):
        scalar = poly.instantiate(a2, a3, form.sign)
        if not scalar.is_zero:
            terms.append((sign, mat, _to_mpf(scalar)))
    worst = mpf(0)
    for x, y in points:
        total = mpc(0)
        for sign, mat, scalar in terms:
            factor, value = _stroke(form, mat, x, y, cfg, memo, f"{label}: ")
            total += sign * scalar * factor * value
        worst = max(worst, abs(total))
    return worst


def _residuals(form: FormData, congruences, cfg: EvalConfig) -> List[mpf]:
    """``_residual`` of each congruence, at one working precision and with
    one memo of images, chosen points and f values."""
    with mp.workprec(cfg.precision):
        memo = _Memo()
        return [_residual(form, congruence, cfg, memo)
                for congruence in congruences]


def congruence_residual(form: FormData, congruence: Congruence,
                        cfg: Optional[EvalConfig] = None) -> mpf:
    """Max over the configured sample points of |f|lhs - f|rhs|, with the
    congruence symbols instantiated from the form."""
    return _residuals(form, [congruence], cfg or DEFAULT_CONFIG)[0]


_SUGGEST_HEIGHTS = (Fraction(1), Fraction(4, 5), Fraction(1, 2),
                    Fraction(1, 4), Fraction(1, 5))


def _lowest_height(points, mats, memo: _Memo,
                   floor: Optional[QuadElem]) -> Optional[QuadElem]:
    """The least imaginary part among the points and their images under
    the classes, or None as soon as it is at or below ``floor``.  The
    images are computed lazily, so a stop saves the rest."""
    heights = chain((QuadElem.of(y) for _, y in points),
                    (_image(memo, mat, x, y)[1]
                     for x, y in points for mat in mats))
    low = None
    for height in heights:
        if low is None or (height - low).sign() < 0:
            low = height
            if floor is not None and (low - floor).sign() <= 0:
                return None
    return low


def _search_points(mats, memo: _Memo):
    """The best candidate pair for a set of classes, with its score: the
    least height it reaches.  Candidates are centered on the classes'
    isometric circles and tried in a fixed order, and the first with the
    highest score wins.  A candidate stops being scored once its running
    minimum is at or below the best score so far: only a strictly higher
    score replaces the best, so it could not win."""
    centers = {Fraction(0)}
    for mat in mats:
        _, _, c, d = mat.entries
        if not c.is_zero:
            ratio = d / c
            if ratio.is_rational:
                centers.add(Fraction(-ratio.a))
    best = best_points = None
    for y0 in _SUGGEST_HEIGHTS:
        for x0 in sorted(centers):
            pts = ((x0, y0), (x0 + y0 / 8, y0 * Fraction(9, 10)))
            score = _lowest_height(pts, mats, memo, best)
            if score is not None:
                best, best_points = score, pts
    # centers holds 0 and every height is tried, so best is set here
    return best, best_points


def _chosen_points(congruence: Congruence, y_min,
                   memo: _Memo) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """The searched points of the congruence, refused below y_min.
    Congruences on the same set of classes share one search per memo."""
    mats = frozenset(mat for _, mat, _ in _signed_terms(congruence))
    if mats not in memo.points:
        memo.points[mats] = _search_points(mats, memo)
    best, points = memo.points[mats]
    if (best - y_min).sign() < 0:
        raise ConfigurationError(
            f"no candidate points keep all images of {congruence.id} above "
            f"y_min={y_min}; the best candidates reach Im = {best}")
    return points


def suggest_points(congruence: Congruence,
                   y_min: Fraction = Fraction(3, 20),
                   ) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Two exact sample points keeping every image of every class in the
    congruence at imaginary part >= y_min, found by centering candidates
    on the classes' isometric circles and auditing exactly."""
    return _chosen_points(congruence, y_min, _Memo())


# -- the stretch exponent and the power lattice ---------------------------------


def lambda_compute(cfg: Optional[EvalConfig] = None) -> mpf:
    """The exponent tying the two diagonal stretches together:
    STRETCH_BASE ** lambda = H3_EIGENVALUE, both inputs exact."""
    cfg = cfg or DEFAULT_CONFIG
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
    failures: Tuple[Tuple[str, int], ...]


def cusp_decay_check(form: FormData,
                     cfg: Optional[EvalConfig] = None) -> CuspDecayVerdict:
    """Check |f(iy)| <= 2|a_1| e^{-2 pi y} for y in {2, 4, 8} and the same
    for the inversion image.  The image expansion is the carried sign
    times the expansion itself (that is what the sign means; the relation
    is verified separately by the inversion residual), so direct
    evaluation near 0 -- where no truncated series could certify
    anything -- is never needed."""
    cfg = cfg or DEFAULT_CONFIG
    series = form.series
    shift = 1 - Fraction(series.offset)
    if shift.denominator == 1 and 0 <= shift <= series.length:
        lead = series.coefficient(1)
    else:
        lead = series.coeffs[0]
    failures: List[Tuple[str, int]] = []
    with mp.workprec(cfg.precision):
        for yv in (2, 4, 8):
            value, tail = _evaluate(form, mpf(0), mpf(yv), mp.inf)
            limit = 2 * abs(_to_mpf(lead)) * exp(-2 * pi * yv) + tail
            if abs(value) > limit:
                # the 0-cusp image is sign * f, and |sign| = 1
                failures += [("infinity", yv), ("zero", yv)]
    return CuspDecayVerdict(not failures, tuple(failures))


# -- the battery -----------------------------------------------------------------


_HEADLINE_STEPS = ("W", "HT2", "HT3", "g2", "R3", "S3", "delta1",
                   "H4", "H5", "H6", "H7", "delta3", "delta2")


@dataclass(frozen=True)
class FormcheckReport:
    rows: Tuple[Tuple, ...]
    ok: bool
    max_residual: mpf

    def lines(self) -> List[str]:
        out = []
        for row in self.rows:
            kind = row[0]
            if kind == "CONG":
                _, cid, residual, passed = row
                out.append(f"CONG {cid} max_residual={float(residual):.2e} "
                           f"verdict={'PASS' if passed else 'FAIL'}")
            elif kind == "HECKE":
                _, p, rec_ok, stroke_ok = row
                out.append(f"HECKE p={p} "
                           f"recursion={'PASS' if rec_ok else 'FAIL'} "
                           f"stroke={'PASS' if stroke_ok else 'FAIL'}")
            else:
                _, passed = row
                out.append(f"CUSP decay verdict={'PASS' if passed else 'FAIL'}")
        out.append("FORMCHECK OK" if self.ok else "FORMCHECK FAIL")
        return out


def _battery(form: FormData) -> List[Congruence]:
    """The four context axioms (P, H, T2, T3), then each headline step
    that the level's f certificate builds."""
    certificate = build_f_certificate(form.level)
    by_id = {step.id: step.result for step in certificate.steps}
    return list(certificate.axioms) + [by_id[i] for i in _HEADLINE_STEPS
                                       if i in by_id]


def _battery_config(level: int,
                    precision: int = DEFAULT_CONFIG.precision) -> EvalConfig:
    """The battery's default config on a level: auto-tuned sample points
    above the lowest image height the battery evaluates at."""
    y_min = Fraction(3, 20) if level == 1 else Fraction(1, 52)
    return EvalConfig(precision=precision, points=None, y_min=y_min)


def run_formcheck(form: FormData, cfg: Optional[EvalConfig] = None,
                  residual_tol: Fraction = Fraction(1, 10 ** 15),
                  ) -> FormcheckReport:
    """Full numeric battery: stroke residuals for the context axioms and
    the certificate's headline congruences, the Hecke recursion at p = 2
    and 3 (which settles the stroke identity too), and cusp decay.  Forms
    whose expansion does not start at exponent 1 are rejected, and so are
    levels divisible by 2 or 3: ax:T2 and ax:T3 are the Hecke operators
    for p prime to the level, which a genuine eigenform there need not
    satisfy."""
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
    cfg = cfg or _battery_config(form.level)
    battery = _battery(form)
    residuals = _residuals(form, battery, cfg)
    with mp.workprec(cfg.precision):
        tol_v = _to_mpf(Fraction(residual_tol))
    rows: List[Tuple] = []
    ok = True
    for congruence, residual in zip(battery, residuals):
        passed = residual < tol_v
        ok = ok and passed
        rows.append(("CONG", congruence.id, residual, passed))
    for p in (2, 3):
        # the stroke identity is the recursion times p^(1-k/2) != 0,
        # so one check backs both report fields
        rec = hecke_check(form.series, p, form.weight,
                          form.series.coefficient(p))
        ok = ok and rec.ok
        rows.append(("HECKE", p, rec.ok, rec.ok))
    decay = cusp_decay_check(form, cfg)
    ok = ok and decay.ok
    rows.append(("CUSP", decay.ok))
    return FormcheckReport(tuple(rows), ok, max(residuals))


def certificate_residual_sweep(form: FormData, certificate: Certificate,
                               cfg: Optional[EvalConfig] = None) -> mpf:
    """Max stroke residual of the form over every congruence the
    certificate establishes; the numeric soundness bridge for the
    symbolic layer."""
    residuals = _residuals(form, [step.result for step in certificate.steps],
                           cfg or _battery_config(form.level))
    return max(residuals, default=mpf(0))
