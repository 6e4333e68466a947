"""Tests for high-precision evaluation, stroke residuals, and the
exponent-lattice density search.

Frozen anchors recomputed independently:
  * series evaluation at z = i agrees with the infinite-product route and
    with the closed form Gamma(1/4)^24 / (2^24 pi^18) to 70+ digits;
  * the exponent relating the two diagonal stretches is
    log((7-sqrt13)/6) / log((2+sqrt13)/3) = -0.911177395965...;
  * eta(z)^2 eta(13z)^2 picks up the factor e^{i pi/3} under z -> z+1
    (leading exponent 7/6), and has Fricke sign -1.
"""

import math
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from mpmath import exp, gamma, mp, mpc, mpf, pi

from gamma13 import cli, level13, numeric
from gamma13.certificate import Congruence
from gamma13.exactnum import QuadElem
from gamma13.groupring import RingElem
from gamma13.level13 import a_matrix, build_f_certificate, f_context
from gamma13.numeric import (
    FRICKE_POINTS_13,
    H3_EIGENVALUE,
    STRETCH_BASE,
    ConfigurationError,
    DensityError,
    EvalConfig,
    FormData,
    FormcheckReport,
    PrecisionError,
    certificate_residual_sweep,
    congruence_residual,
    cusp_decay_check,
    density_search,
    eval_form,
    lambda_compute,
    lambda_rational_exclusion,
    _battery,
    _least_in_window,
    run_formcheck,
    stroke_value,
    suggest_points,
)
from gamma13.projmat import Mat2, ProjMat
from gamma13.qseries import QSeries, eta_product, format_coefficient_file
from horner_reference import horner as reference_horner


@pytest.fixture(autouse=True)
def cold_plans():
    """No test sees a battery plan that another test warmed, or filled
    while it patched a helper."""
    numeric._plan.cache_clear()
    yield
    numeric._plan.cache_clear()


def delta_form(L=512):
    return FormData(eta_product([(1, 24)], L), weight=12, level=1, sign=1)


def delta_e4_form(L=512):
    """Delta E4, E4 = 1 + 240 sum sigma_3(n) q^n: the weight-16 eigenform."""
    sigma3 = [0] * (L + 1)
    for d in range(1, L + 1):
        for multiple in range(d, L + 1, d):
            sigma3[multiple] += d ** 3
    e4 = QSeries(0, [1] + [240 * s for s in sigma3[1:]])
    return FormData(eta_product([(1, 24)], L) * e4, weight=16, level=1,
                    sign=1)


def fricke_form(L=512, sign=-1):
    return FormData(eta_product([(1, 2), (13, 2)], L),
                    weight=2, level=13, sign=sign)


FRICKE_CFG = EvalConfig(points=FRICKE_POINTS_13)


class TestEvalForm:
    def test_zero_series_is_exactly_zero(self):
        form = FormData(QSeries(1, [0] * 40), weight=12, level=1, sign=1)
        assert eval_form(form, (0, 1)).value == 0

    def test_value_at_i_matches_product_and_gamma_closed_form(self):
        with mp.workprec(256):
            value = eval_form(delta_form(), (0, 1)).value
            product = exp(-2 * pi)
            for n in range(1, 300):
                product *= (1 - exp(-2 * pi * n)) ** 24
            closed = gamma(mpf(1) / 4) ** 24 / (2 ** 24 * pi ** 18)
            assert abs(value - product) < mpf(10) ** -70
            assert abs(value - closed) < mpf(10) ** -70
            assert abs(value) > 0

    def test_integer_offset_periodicity(self):
        form = delta_form()
        a = eval_form(form, (Fraction(1, 3), Fraction(9, 10))).value
        b = eval_form(form, (Fraction(4, 3), Fraction(9, 10))).value
        assert abs(a - b) < mpf(10) ** -50

    def test_fractional_offset_quasi_periodicity(self):
        form = fricke_form()
        z = (Fraction(1, 5), Fraction(1, 2))
        shifted = eval_form(form, (Fraction(6, 5), Fraction(1, 2))).value
        with mp.workprec(256):
            factor = exp(mpc(0, 1) * pi / 3)
            assert abs(shifted - factor * eval_form(form, z).value) < mpf(10) ** -40

    @pytest.mark.parametrize("z", [(-1, 0), (0, 0), (0, Fraction(-1, 2))],
                             ids=["-1", "0", "-i/2"])
    def test_point_off_the_upper_half_plane_is_refused(self, z):
        # at (-1, 0) the class of [[1,0],[1,1]] has cz + d = 0: its image
        # would divide by zero
        form = delta_form()
        pattern = re.escape(f"point ({z[0]}, {z[1]}) is not in the upper "
                            f"half-plane")
        with pytest.raises(ValueError, match=pattern):
            eval_form(form, z)
        with pytest.raises(ValueError, match=pattern):
            stroke_value(form, [[1, 0], [1, 1]], z)

    def test_unboundable_tail_raises(self):
        # rho x >= 1 at M = L + 2: no tail bound exists, so no ball does
        short = FormData(eta_product([(1, 24)], 20), weight=12, level=1, sign=1)
        with pytest.raises(PrecisionError):
            eval_form(short, (0, Fraction(1, 100)))

    def test_tail_bound_is_reported(self):
        # the radius holds the tail bound at the cut
        result = eval_form(delta_form(), (0, 1))
        assert 0 < result.radius < mpf(10) ** -40

    def test_every_tail_failure_has_one_message(self):
        # the height is printed exactly, not rounded to the working precision
        short = FormData(eta_product([(1, 24)], 20), weight=12, level=1, sign=1)
        for prec in (1, 2, 256):
            low = EvalConfig(precision=prec)
            with pytest.raises(PrecisionError, match=r"^no tail bound past "
                               r"L=20 at Im z = 1/100$"):
                eval_form(short, (0, Fraction(1, 100)), low)
            fixed = EvalConfig(precision=prec, points=((0, Fraction(1, 100)),))
            with pytest.raises(PrecisionError, match=r"^ax:T2: no tail bound "
                               r"past L=20 at Im z = 1/\d+$"):
                congruence_residual(short, f_context(1).axiom("ax:T2"), fixed)


def full_horner(form, z):
    """f at the exact point z by Horner over all L + 1 carried coefficients,
    through the mpc operators at the current precision."""
    x, y = (mpf(q.numerator) / q.denominator for q in map(Fraction, z))
    offset = Fraction(form.series.offset)
    point = mpc(x, y)
    qz = exp(mpc(0, 2) * pi * point)
    acc = mpc(0)
    for c in reversed(form.series.coeffs):
        acc = acc * qz + (c if isinstance(c, int)
                          else mpf(c.numerator) / c.denominator)
    return acc * exp(mpc(0, 2) * pi
                     * (mpf(offset.numerator) / offset.denominator) * point)


def rational_delta_form(L=512):
    """Delta with each coefficient divided by a seeded 1, 3, 7 or 12."""
    rng = random.Random(4099)
    coeffs = [Fraction(c, rng.choice((1, 3, 7, 12)))
              for c in eta_product([(1, 24)], L).coeffs]
    coeffs = [q.numerator if q.denominator == 1 else q for q in coeffs]
    assert {type(c) for c in coeffs} == {int, Fraction}
    return FormData(QSeries(1, coeffs), weight=12, level=1, sign=1)


def large_denominator_form(L=512):
    """Delta with each coefficient divided by a seeded prime below 400: the
    common denominator is the product of 77 of those 78 primes, 534 bits."""
    rng = random.Random(4111)
    primes = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
    coeffs = [Fraction(c, rng.choice(primes))
              for c in eta_product([(1, 24)], L).coeffs]
    coeffs = [q.numerator if q.denominator == 1 else q for q in coeffs]
    assert math.lcm(*(q.denominator for q in coeffs)).bit_length() > 300
    return FormData(QSeries(1, coeffs), weight=12, level=1, sign=1)


class TestBall:
    @pytest.mark.parametrize("prec", [1, 2, 53, 256, 1024])
    def test_ball_contains_the_full_sum(self, prec):
        # the reference carries twice the bits and 64 more, so its own
        # error is far below the radius
        rng = random.Random(prec)
        cfg = EvalConfig(precision=prec)
        points = [(Fraction(rng.randint(-50, 50), 40),
                   Fraction(3, 20) + Fraction(rng.randint(0, 370), 200))
                  for _ in range(4)]
        points += [(Fraction(1, 2 ** 300), Fraction(1)), (Fraction(0), 2)]
        for form in (delta_form(), fricke_form(), rational_delta_form(),
                     large_denominator_form()):
            for z in points:
                result = eval_form(form, z, cfg)
                with mp.workprec(2 * prec + 64):
                    reference = full_horner(form, z)
                    assert abs(result.value - reference) <= result.radius

    @pytest.mark.parametrize("prec", [1, 53, 256])
    @pytest.mark.parametrize("length", [20, 40])
    def test_ball_contains_the_sum_of_a_short_expansion(self, length, prec):
        # where the cut is not reached every carried term is summed, and the
        # bound past L, however large, joins the radius
        form = delta_form(length)
        rng = random.Random(length * 1000 + prec)
        cfg = EvalConfig(precision=prec)
        for y in (Fraction(3, 20), Fraction(1, 5), Fraction(3, 10),
                  Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            z = (Fraction(rng.randint(-50, 50), 40), y)
            result = eval_form(form, z, cfg)
            with mp.workprec(2 * prec + 64):
                reference = full_horner(form, z)
                assert abs(result.value - reference) <= result.radius, z
                past = bound_past(form, mpf(length + 2),
                                  _to_mpf(QuadElem.of(y)))
                assert result.radius >= past, z


def overlap(a, b):
    """Whether two balls (re, im, r) at one scale share a point."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 <= (a[2] + b[2]) ** 2


def reference_sum(memo, n, powers):
    """``numeric._block_sum``'s sum by the four-product Horner of
    ``horner_reference``, from the memo's coefficients as they are carried
    and the W-bit q of ``powers``, with the Euclidean bound on |q|."""
    qr, qi, dq = powers.q
    return reference_horner(memo.form.series.coeffs[:n], powers.q,
                            math.isqrt(qr * qr + qi * qi) + 1 + dq,
                            memo.plan.W)


class TestBlockSum:
    """The block sum encloses what Horner's rule on balls encloses: its ball
    overlaps that of ``horner_reference``, and on the evaluations a battery
    makes its radius is at most the reference's."""

    #: Level-1 heights, and level-13 ones down to 20/1521, where the low
    #: images of a level-13 battery lie.
    POINTS = ((Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(9, 10)),
              (Fraction(13, 40), Fraction(3, 20)),
              (Fraction(2, 13), Fraction(3, 13)),
              (Fraction(-5, 13), Fraction(1, 52)),
              (Fraction(3, 7), Fraction(20, 1521)))

    @pytest.mark.parametrize("W", [1, 2, 53, 256, 1024])
    def test_ball_overlaps_the_reference(self, W):
        # every count from none to past two blocks, and 513
        m = numeric._BLOCK
        for form in (delta_form(), delta_e4_form(), large_denominator_form()):
            memo = numeric._Memo(form, numeric._Plan(W))
            for z in self.POINTS:
                powers = numeric._powers(numeric._common(*z), W)
                for n in (0, 1, m - 1, m, m + 1, 513):
                    ours = numeric._block_sum(memo, n, powers)
                    assert overlap(ours, reference_sum(memo, n, powers)), (
                        z, n)
                    if not n:
                        assert ours == (0, 0, 0)

    def test_battery_radius_is_at_most_the_reference(self, monkeypatch):
        # every evaluation of batteries at levels 1 and 13, on integer and
        # rational coefficients, at --prec 20, 256 and 1024
        seen = []
        original = numeric._block_sum

        def checked(memo, n, powers):
            ours, theirs = original(memo, n, powers), reference_sum(memo, n,
                                                                     powers)
            assert overlap(ours, theirs) and ours[2] <= theirs[2], n
            seen.append(n)
            return ours
        monkeypatch.setattr(numeric, "_block_sum", checked)
        for form in (delta_form(), delta_e4_form(), rational_delta_form(),
                     FormData(eta_product([(1, 24)], 2048), 12, 13, 1)):
            for prec, tol in ((20, Fraction(1, 10 ** 3)),
                              (256, Fraction(1, 10 ** 15)),
                              (1024, Fraction(1, 10 ** 15))):
                run_formcheck(form, EvalConfig(precision=prec), tol)
        assert len(seen) == 3 * (45 * 3 + 86)


def bound_past(form, M, y):
    """The module's tail bound M^k x^M / (1 - rho x) at height y."""
    k, x = form.weight, exp(-2 * pi * y)
    rho = (1 + 1 / M) ** k
    return M ** k * x ** M / (1 - rho * x)


class TestTruncationCut:
    """The evaluator sums only the terms whose tail is not yet below the
    working precision; what it leaves out must stay within the bound it
    reports."""

    def test_cut_value_is_within_its_bound_of_the_full_sum(self):
        # the radius holds the tail at the cut as well as the rounding, and
        # the reference at 2 * 256 + 64 bits is exact to far below it
        rng = random.Random(1812)
        for form in (delta_form(), fricke_form()):
            for _ in range(12):
                y = Fraction(3, 20) + Fraction(rng.randint(0, 370), 200)
                z = (Fraction(rng.randint(-50, 50), 40), y)
                result = eval_form(form, z)
                with mp.workprec(2 * 256 + 64):
                    reference = full_horner(form, z)
                    assert abs(result.value - reference) <= result.radius

    @pytest.mark.parametrize("y", [Fraction(3, 20), Fraction(1, 2), 1])
    def test_value_does_not_depend_on_the_carried_length(self, y):
        short, long = delta_form(512), delta_form(2048)
        for x in (0, Fraction(1, 3)):
            a, b = eval_form(short, (x, y)), eval_form(long, (x, y))
            assert a.value == b.value and a.radius == b.radius
            for form, result in ((short, a), (long, b)):
                with mp.workprec(256):
                    gate = bound_past(form, mpf(form.series.length + 2),
                                      _to_mpf(QuadElem.of(y)))
                assert result.radius >= gate

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_level_thirteen_inversion_residual_matches_full_sum(self, sign):
        # H = [[0,1],[-13,0]] sends z to -1/(13z) with factor 13 (-13z)^-2;
        # on |z|^2 = 1/13 both |factor| and the image height stay put
        form = fricke_form(sign=sign)
        residual = congruence_residual(form, f_context(13).axiom("ax:H"),
                                       FRICKE_CFG)
        worst = mpf(0)
        with mp.workprec(2 * 256 + 64):
            for x, y in FRICKE_POINTS_13:
                norm = 13 * (x * x + y * y)
                image = (-x / norm, y / norm)
                z = mpc(mpf(x.numerator) / x.denominator,
                        mpf(y.numerator) / y.denominator)
                stroke = 13 * (-13 * z) ** -2 * full_horner(form, image)
                worst = max(worst, abs(stroke - sign * full_horner(form, (x, y))))
            # the residual is a bound: at or above the truth, and close
            assert worst <= residual <= worst + mpf(10) ** -70
        if sign == -1:
            assert residual < mpf(10) ** -70
        else:
            assert residual > mpf(1) / 100


#: Points for the q ball: rational ones, a large real part (argument
#: reduction), a low one, and Im z = 50, where |q| < 2^-W up to 256 bits.
Q_POINTS = (
    (Fraction(13, 40), Fraction(3, 20)), (Fraction(-1, 2), Fraction(4, 5)),
    (Fraction(0), Fraction(1)),
    (10 ** 6 + Fraction(1, 3), Fraction(1, 2)),
    (Fraction(1, 7), Fraction(5, 841)), (Fraction(1, 3), Fraction(50)),
)


def q_ball(z, t, W):
    """The ball of q^t at the rational point z and e^{2 pi i t z} in ulps
    of 2^-W, the latter at the current precision."""
    ball = numeric._q_power(numeric._common(*z), t, W)
    tx, ty = (mpf(r.numerator) / r.denominator
              for r in (Fraction(t) * v for v in z))
    return ball, exp(2 * pi * mpc(-ty, tx)) * mpf(2) ** W


class TestQPower:
    """q^t is enclosed on Python ints: the ball holds the value mpmath
    computes at twice the bits and 64 more, and it is one or two ulps wide,
    as tight as the midpoint's rounding allows."""

    @pytest.mark.parametrize("prec", [1, 2, 53, 256, 1024])
    @pytest.mark.parametrize("t", [1, Fraction(7, 6)], ids=["1", "7/6"])
    def test_ball_holds_q_and_is_tight(self, prec, t):
        W = prec + numeric._CUT_GUARD
        for z in Q_POINTS:
            with mp.workprec(2 * W + 64):
                (re, im, r), q = q_ball(z, t, W)
                assert abs(mpc(re, im) - q) <= r, z
            assert 1 <= r <= 2, z

    @pytest.mark.parametrize("prec", [1, 256])
    def test_exponents_at_most_zero_are_enclosed(self, prec):
        # a series with offset <= 0 needs q^t with |q^t| >= 1; the radius
        # stays within 2 ulps and 2^-W relative
        W = prec + numeric._CUT_GUARD
        for t in (0, -2, Fraction(-7, 6)):
            for z in Q_POINTS:
                with mp.workprec(2 * W + 64):
                    (re, im, r), q = q_ball(z, t, W)
                    assert abs(mpc(re, im) - q) <= r <= 2 + abs(q) / 2 ** W

    def test_q_below_one_ulp_is_the_unit_ball_at_zero(self):
        # t y >= W/9 gives 2 pi t y > W ln 2: nothing is summed, and 0 is
        # within 1 ulp of q; at 1024 bits Im z = 50 is summed
        z = numeric._common(Fraction(1, 3), Fraction(50))
        for t in (1, Fraction(7, 6)):
            assert numeric._q_power(z, t, 288) == (0, 0, 1)
        assert numeric._q_power(z, 1, 1056) != (0, 0, 1)

    @pytest.mark.parametrize("k", [3, 2 ** 70], ids=["3", "2^70"])
    def test_ball_does_not_depend_on_the_scale_of_the_triple(self, k):
        # t x and t y are read as floors of quotients, which (kX, kY, kR)
        # leaves as (X, Y, R) has them
        for prec in (1, 53, 256):
            W = prec + numeric._CUT_GUARD
            for z in Q_POINTS:
                X, Y, R = numeric._common(*z)
                for t in (1, Fraction(7, 6), -2):
                    assert (numeric._q_power((k * X, k * Y, k * R), t, W)
                            == numeric._q_power((X, Y, R), t, W)), (z, t)


class TestTranslation:
    """q and its powers, and f for an int offset, are the same ints at
    z + j as at z: the
    reduction of t x mod 1 is exact.  A battery shares them between image
    points that differ by an integer; a fractional offset shares no f."""

    POINTS = ((Fraction(13, 40), Fraction(3, 20)),
              (Fraction(-1, 2), Fraction(4, 5)), (Fraction(0), Fraction(1)),
              (Fraction(1, 3), Fraction(50)))

    @pytest.mark.parametrize("W", [53, 288, 1056])
    def test_q_and_f_repeat_bit_for_bit(self, W):
        forms = (delta_form(), delta_e4_form(), rational_delta_form())
        for x, y in self.POINTS:
            X, Y, R = numeric._common(x, y)
            powers = numeric._powers((X, Y, R), W)
            memos = [numeric._Memo(form, numeric._Plan(W)) for form in forms]
            values = [numeric._evaluate(memo, (X, Y, R), powers)
                      for memo in memos]
            for j in (-7, -1, 1, 2, 13, 10 ** 6):
                moved = (X + j * R, Y, R)
                assert numeric._powers(moved, W) == powers, (x, y, j)
                assert [numeric._evaluate(memo, moved, powers)
                        for memo in memos] == values, (x, y, j)

    def test_a_fractional_offset_shares_no_value(self, monkeypatch):
        # the identity and z -> z + 1 at one point: Delta is evaluated once,
        # eta(z)^2 eta(13z)^2 twice, its values a factor e^(2 pi i 7/6) apart
        points = []
        original = numeric._evaluate

        def counted(memo, z, *args):
            points.append(z)
            return original(memo, z, *args)
        monkeypatch.setattr(numeric, "_evaluate", counted)
        z, W = numeric._common(Fraction(1, 5), Fraction(1, 2)), 288
        shift = ProjMat.of([[1, 1], [0, 1]])
        for form, evaluations in ((delta_form(), 1), (fricke_form(), 2)):
            points.clear()
            memo = numeric._Memo(form, numeric._Plan(W))
            (_, at_z), (_, at_z1) = (numeric._stroke(memo, mat, z)
                                     for mat in (ProjMat.identity(), shift))
            assert len(points) == evaluations
            a, b = (numeric._result(ball, W) for ball in (at_z, at_z1))
            with mp.workprec(2 * W):
                phase = mp.expjpi(2 * mpf(form.series.offset.numerator)
                                  / form.series.offset.denominator)
                assert abs(b.value - phase * a.value) <= a.radius + b.radius
                # so sharing one ball would be wrong by far more than it is wide
                if evaluations == 2:
                    assert abs(b.value - a.value) > 10 ** 6 * (a.radius
                                                               + b.radius)


def reference_tail(offset, n, k, X, X_offset, W):
    """M^k x^M / (1 - rho x) at M = offset + n in ulps of 2^-W, from
    x = X 2^-W and x^offset = X_offset 2^-W, at the current precision; None
    when rho x >= 1."""
    M, x = _to_mpf(QuadElem.of(offset + n)), mp.ldexp(X, -W)
    rho = (1 + 1 / M) ** k
    if rho * x >= 1:
        return None
    return M ** k * X_offset * x ** n / (1 - rho * x)


class TestTailBound:
    """The tail bound on Python ints is rigorous, and no cruder than its
    roundings: x^n keeps a W-bit mantissa rounded up at each of at most
    2 log2 n products, each a factor below 1 + 2^(1-W), and the quotient
    is rounded up once."""

    @staticmethod
    def slack(W):
        return 1 + mp.ldexp(1, 6 - W)

    @pytest.mark.parametrize("prec", [1, 2, 53, 256, 1024])
    def test_bound_holds_the_true_tail_and_is_tight(self, prec):
        # n = 300 at Im z = 3/20 and n = 1000 at Im z = 1 put x^n far
        # below 2^-W, where a power kept at the fixed scale would stop at
        # one ulp and the cut would never be reached
        W = prec + numeric._CUT_GUARD
        for form in (delta_form(), fricke_form()):
            k, offset = form.weight, Fraction(form.series.offset)
            for y in (Fraction(3, 20), Fraction(1, 2), 1):
                z = numeric._common(Fraction(1, 3), y)
                X, X_offset = (math.isqrt(re * re + im * im) + 1 + r
                               for re, im, r in (numeric._q_power(z, t, W)
                                                 for t in (1, offset)))
                for n in (0, 1, 10, 50, 300, 1000):
                    tail = numeric._tail_bound(offset, n, k, X, X_offset, W)
                    with mp.workprec(2 * W + 64):
                        ref = reference_tail(offset, n, k, X, X_offset, W)
                        if ref is None:
                            assert tail is None
                            continue
                        assert ref <= tail <= ref * self.slack(W) + 1
                        true = bound_past(form, offset + n,
                                          _to_mpf(QuadElem.of(y)))
                        assert mp.ldexp(true, W) <= tail

    @pytest.mark.parametrize("prec", [1, 53, 256, 1024])
    def test_cut_estimate_never_passes_the_least_cut(self, prec):
        # at seeded weights, offsets and heights the estimate is at most the
        # least count whose bound is at most one ulp, found by trying every
        # count from the first, and mostly it is that count
        W, rng = prec + numeric._CUT_GUARD, random.Random(prec)
        length, exact = 400, 0
        for _ in range(40):
            k = rng.choice((2, 4, 12, 16, 24))
            offset = rng.choice((1, 2, Fraction(7, 6), 0, -2))
            z = numeric._common(Fraction(rng.randint(0, 9), 10),
                                Fraction(rng.randint(1, 2000), 1000))
            X, X_offset = (math.isqrt(re * re + im * im) + 1 + r
                           for re, im, r in (numeric._q_power(z, t, W)
                                             for t in (1, offset)))
            least = max(0, math.ceil(1 - offset))
            estimate = numeric._cut_estimate(k, float(offset), least, length,
                                             z, W)
            cut = least
            while cut <= length:
                tail = numeric._tail_bound(offset, cut, k, X, X_offset, W)
                if tail is not None and tail <= 1:
                    break
                cut += 1
            assert estimate <= cut, (k, offset, z)
            exact += estimate == cut
        assert exact >= 35

    def test_no_bound_where_rho_x_reaches_one(self):
        # x = 1 gives (1 + 1/M)^k x > 1 at every M: no bound exists
        X = 1 << 288
        assert numeric._tail_bound(Fraction(1), 0, 12, X, X, 288) is None

    #: (form, level, --prec, tolerance, block sums) of the batteries the
    #: cut test runs: at level 13 the level-1 Delta fails ax:H, but its cuts
    #: are made alike; at 20 bits the tolerance is one the radii can meet
    CUT_BATTERIES = (
        (delta_form, 1, 256, Fraction(1, 10 ** 15), 45),
        (delta_e4_form, 1, 256, Fraction(1, 10 ** 15), 45),
        (lambda: delta_form(2048), 13, 256, Fraction(1, 10 ** 15), 86),
        (delta_form, 1, 20, Fraction(1, 10 ** 3), 45),
        (delta_form, 1, 1024, Fraction(1, 10 ** 15), 45),
    )

    def test_every_cut_of_the_battery_is_the_least(self, monkeypatch):
        # each count n of terms summed in each battery is the least count
        # whose bound is at most one ulp, so the cut's estimate never passes
        # it; X bounds |q| as the tail bound's x does
        cuts = []

        def counted(memo, n, powers):
            qr, qi, dq = powers.q
            cuts.append((n, math.isqrt(qr * qr + qi * qi) + 1 + dq,
                         memo.plan.W))
            return original(memo, n, powers)
        original = numeric._block_sum
        monkeypatch.setattr(numeric, "_block_sum", counted)
        for make, level, prec, tol, count in self.CUT_BATTERIES:
            cuts.clear()
            form = make()
            form = FormData(form.series, form.weight, level, form.sign)
            report = run_formcheck(form, EvalConfig(precision=prec), tol)
            assert report.ok == (level == 1)
            assert len(cuts) == count, (level, prec)
            k, length = form.weight, form.series.length
            for n, X, W in cuts:
                # n = L + 1 sums every carried term: no count up to L is a cut
                assert n <= length + 1
                with mp.workprec(2 * W + 64):
                    if n <= length:
                        assert reference_tail(1, n, k, X, X, W) <= 1
                    if n:
                        above = reference_tail(1, n - 1, k, X, X, W)
                        assert above is None or above * self.slack(W) > 1


class TestStroke:
    COCYCLE_CFG = EvalConfig()
    I = (Fraction(0), Fraction(1))

    def form(self):
        return fricke_form(L=2560)

    def test_rescaling_invariance(self):
        form = self.form()
        rng = random.Random(3)
        base = Mat2.of([[2, 1], [1, 1]])
        for _ in range(10):
            r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if rng.random() < 0.5:
                r = -r
            a = stroke_value(form, base, self.I, self.COCYCLE_CFG)
            b = stroke_value(form, base.scale(r), self.I, self.COCYCLE_CFG)
            assert abs(a - b) < mpf(10) ** -30

    def test_cocycle_on_random_integer_matrices(self):
        form = self.form()
        rng = random.Random(17)
        cfg = self.COCYCLE_CFG
        z = mpc(0, 1)
        checked = 0
        while checked < 100:
            rows1 = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
            rows2 = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
            m1, m2 = Mat2.of(rows1), Mat2.of(rows2)
            if m1.det().sign() <= 0 or m2.det().sign() <= 0:
                continue
            checked += 1
            # the exact image of i under m2: (ac + bd + i det) / (c^2 + d^2)
            (ea, eb), (ec, ed) = rows2
            norm = ec * ec + ed * ed
            w = (Fraction(ea * ec + eb * ed, norm),
                 Fraction(ea * ed - eb * ec, norm))
            with mp.workprec(cfg.precision):
                a, b, c, d = (_to_mpf(e) for e in m2.entries())
                factor = (_to_mpf(m2.det()) ** (form.weight // 2)
                          * (c * z + d) ** -form.weight)
                nested = factor * stroke_value(form, m1, w, cfg)
                direct = stroke_value(form, m1 * m2, self.I, cfg)
                assert abs(nested - direct) < mpf(10) ** -30

    def test_nonpositive_determinant_rejected(self):
        with pytest.raises(ValueError):
            stroke_value(self.form(), Mat2.of([[1, 2], [1, 1]]), self.I,
                         self.COCYCLE_CFG)

    def test_image_height_is_audited_exactly(self):
        # z -> -1/z maps (0, 2 + 10^-30) exactly to a point just below
        # Im = 1/2; no floor refuses it, and Delta is invariant there
        inversion = [[0, -1], [1, 0]]
        form = delta_form()
        z = (0, 2 + Fraction(1, 10 ** 30))
        assert abs(stroke_value(form, inversion, z)
                   - eval_form(form, z).value) < mpf(10) ** -30

    def test_complex_point_is_refused(self):
        form = self.form()
        for z in (mpc(0, 1), 1j):
            with pytest.raises(TypeError):
                stroke_value(form, [[2, 1], [1, 1]], z, self.COCYCLE_CFG)
            with pytest.raises(TypeError):
                eval_form(form, z, self.COCYCLE_CFG)


def _to_mpf(q):
    a = mpf(q.a.numerator) / q.a.denominator
    b = mpf(q.b.numerator) / q.b.denominator
    return a + b * mp.sqrt(13)


class TestLambda:
    def test_value_at_default_precision(self):
        lam = lambda_compute()
        assert mp.nstr(lam, 12) == "-0.911177395965"
        assert round(float(lam), 5) == -0.91118

    def test_defining_identity_to_fifty_digits(self):
        lam = lambda_compute()
        with mp.workprec(256):
            y = _to_mpf(STRETCH_BASE)
            target = _to_mpf(H3_EIGENVALUE)
            assert abs(y ** lam - target) < mpf(10) ** -50

    def test_constants_are_the_advertised_field_elements(self):
        assert STRETCH_BASE == QuadElem(Fraction(2, 3), Fraction(1, 3))
        assert H3_EIGENVALUE == QuadElem(Fraction(7, 6), Fraction(-1, 6))

    def test_no_small_rational_exponent(self):
        assert lambda_rational_exclusion()

    def test_stretch_is_a_unit_times_the_eigenvalue(self):
        # the identity the irrationality proof rests on
        unit = QuadElem(Fraction(3, 2), Fraction(1, 2))
        assert STRETCH_BASE == unit * H3_EIGENVALUE


class TestDensitySearch:
    def test_unity_is_the_origin(self):
        result = density_search(1, Fraction(1, 10 ** 9), 10 ** 6)
        assert (result.m, result.n) == (0, 0)
        assert result.error == 0

    def test_fourth_power_is_exact(self):
        with mp.workprec(256):
            x = _to_mpf(STRETCH_BASE) ** 4
        result = density_search(x, Fraction(1, 10 ** 9), 10 ** 6)
        assert (result.m, result.n) == (2, 0)

    def test_five_within_tolerance(self):
        result = density_search(5, Fraction(1, 1000), 10 ** 6)
        assert abs(result.m) <= 10 ** 6 and abs(result.n) <= 10 ** 6
        with mp.workprec(300):
            y = _to_mpf(STRETCH_BASE)
            lam = mp.log(_to_mpf(H3_EIGENVALUE)) / mp.log(y)
            err = abs(y ** (2 * result.m + result.n * lam) - 5)
            assert err < mpf(1) / 1000

    def test_random_targets_in_the_fundamental_window(self):
        rng = random.Random(23)
        with mp.workprec(256):
            top = float(_to_mpf(STRETCH_BASE) ** 2)
        for _ in range(10):
            x = rng.uniform(1.0, top)
            result = density_search(x, Fraction(1, 1000), 10 ** 6)
            assert result.error <= mpf(1) / 1000

    def test_exhausted_bound_is_explicit(self):
        with pytest.raises(DensityError):
            density_search(5, Fraction(1, 1000), 1)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            density_search(0, Fraction(1, 1000), 10)

    def test_exactly_reachable_targets_are_found(self):
        # X = Y^(2m + n*lambda) with |n| in [10^5, 10^6) is reachable at
        # 1e-12 by (m, n) itself, so a pair with |n| no larger is found
        rng = random.Random(31)
        with mp.workprec(300):
            y = _to_mpf(STRETCH_BASE)
            lam = mp.log(_to_mpf(H3_EIGENVALUE)) / mp.log(y)
        cases = [(344477, 756115)]  # X = 0.570867...
        for _ in range(40):
            n = rng.choice((1, -1)) * rng.randrange(10 ** 5, 10 ** 6)
            cases.append((int(mp.nint(-n * lam / 2)), n))
        for m, n in cases:
            with mp.workprec(300):
                x = y ** (2 * m + n * lam)
            result = density_search(x, Fraction(1, 10 ** 12), 10 ** 6)
            assert abs(result.n) <= abs(n), (m, n)
            with mp.workprec(300):
                err = abs(y ** (2 * result.m + result.n * lam) - x)
            assert err <= mpf(10) ** -12, (m, n)

    def test_pair_has_the_least_abs_n(self):
        # targets where a pair with |n| near 10^6 also reaches 1e-3
        with mp.workprec(256):
            y = _to_mpf(STRETCH_BASE)
            lam = mp.log(_to_mpf(H3_EIGENVALUE)) / mp.log(y)
            for x in (1.0696012038955054, 1.0101986238561729,
                      3.3610804760704434):
                result = density_search(x, Fraction(1, 1000), 10 ** 6)
                t = mp.log(x) / mp.log(y)
                for n in range(-abs(result.n) + 1, abs(result.n)):
                    m = int(mp.nint((t - n * lam) / 2))
                    assert abs(y ** (2 * m + n * lam) - x) > mpf(1) / 1000
                if result.n < 0:  # ties go to positive n
                    m = int(mp.nint((t + result.n * lam) / 2))
                    assert abs(y ** (2 * m - result.n * lam) - x) > \
                        mpf(1) / 1000

    def test_unreachable_target_is_decided_quickly(self):
        start = time.perf_counter()
        with pytest.raises(DensityError, match="within 1.0e-40"):
            density_search(5, Fraction(1, 10 ** 40), 10 ** 6)
        assert time.perf_counter() - start < 0.05

    def test_window_helper_matches_brute_force(self):
        rng = random.Random(47)
        for _ in range(3000):
            M = rng.randrange(1, 120)
            A = rng.randrange(M)
            L = rng.randrange(M)
            R = rng.randrange(L, M)
            least = next((x for x in range(M) if L <= A * x % M <= R), None)
            assert _least_in_window(A, M, L, R) == least, (A, M, L, R)


class TestCongruenceResidual:
    def test_discriminant_form_hecke_two_axiom(self):
        ctx = f_context(1)
        residual = congruence_residual(delta_form(), ctx.axiom("ax:T2"))
        assert residual < mpf(10) ** -15

    def test_discriminant_form_inversion_axiom(self):
        ctx = f_context(1)
        residual = congruence_residual(delta_form(), ctx.axiom("ax:H"))
        assert residual < mpf(10) ** -15

    def test_fricke_form_negative_sign_residual(self):
        ctx = f_context(13)
        residual = congruence_residual(fricke_form(), ctx.axiom("ax:H"),
                                       FRICKE_CFG)
        assert residual < mpf(10) ** -15

    def test_wrong_sign_is_detected(self):
        ctx = f_context(13)
        residual = congruence_residual(fricke_form(sign=1), ctx.axiom("ax:H"),
                                       FRICKE_CFG)
        assert residual > mpf(1) / 100

    @pytest.mark.parametrize("form, axiom, cfg", [
        (delta_form(), f_context(1).axiom("ax:H"), None),
        (FormData(eta_product([(1, 24)], 512), weight=12, level=1, sign=-1),
         f_context(1).axiom("ax:H"), None),
        (fricke_form(), f_context(13).axiom("ax:H"), FRICKE_CFG),
    ], ids=["delta", "delta-eps", "fricke"])
    def test_residual_bounds_the_one_at_twice_the_precision(self, form, axiom,
                                                            cfg):
        cfg = cfg or EvalConfig()
        residual = congruence_residual(form, axiom, cfg)
        finer = congruence_residual(
            form, axiom, EvalConfig(precision=2 * cfg.precision,
                                    points=cfg.points))
        # the difference taken exactly: at 53 bits, finer + 1e-70 is finer
        assert 0 <= mp.fsub(residual, finer, exact=True) <= mpf(10) ** -70


    def test_empty_point_set_is_refused(self):
        # a max over no points would read 0, a silent PASS
        with pytest.raises(ValueError, match="empty"):
            EvalConfig(points=())

    @pytest.mark.parametrize("point", [(0, 0), (Fraction(1, 3), -1)])
    def test_point_off_the_upper_half_plane_is_refused(self, point):
        # one check, and one message, for fixed points and evaluated ones
        message = (f"point ({point[0]}, {point[1]}) is not in the upper "
                   f"half-plane")
        with pytest.raises(ValueError) as info:
            EvalConfig(points=(point,))
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            eval_form(delta_form(), point)
        assert str(info.value) == message


class TestSuggestPoints:
    def test_translation_congruence_gets_two_exact_points(self):
        cong = Congruence("P", RingElem.parse("[[1,1],[0,1]]"), RingElem.of(1))
        points = suggest_points(cong, y_min=Fraction(3, 20))
        assert len(points) == 2
        for x, y in points:
            assert isinstance(x, Fraction) and isinstance(y, Fraction)
            assert y >= Fraction(3, 20)

    def test_level_thirteen_word_needs_relaxed_floor(self):
        cong = Congruence("W", RingElem.parse("[[1,0],[13,1]]"), RingElem.of(1))
        with pytest.raises(ConfigurationError):
            suggest_points(cong, y_min=Fraction(3, 20))
        assert len(suggest_points(cong, y_min=Fraction(1, 52))) == 2

    def test_deterministic(self):
        cong = Congruence("H13", RingElem.parse("[[0,1],[-13,0]]"),
                          RingElem.of(1))
        assert suggest_points(cong) == suggest_points(cong)


def exhaustive_search(congruence):
    """The point search before pruning: every candidate is scored in full,
    from images computed here, and the first with the highest score wins.
    Returns the winner's score with its points."""
    mats = {mat for side in (congruence.lhs, congruence.rhs)
            for mat, _ in side.terms()}
    centers = {Fraction(0)}
    for mat in mats:
        _, _, c, d = mat.entries
        if not c.is_zero:
            ratio = d / c
            if ratio.is_rational:
                centers.add(Fraction(-ratio.a))
    best = None
    for y0 in (Fraction(1), Fraction(4, 5), Fraction(1, 2), Fraction(1, 4),
               Fraction(1, 5)):
        for x0 in sorted(centers):
            pts = ((x0, y0), (x0 + y0 / 8, y0 * Fraction(9, 10)))
            score = None
            for x, y in pts:
                xq, yq = QuadElem.of(x), QuadElem.of(y)
                worst_here = yq
                for mat in mats:
                    a, b, c, d = mat.entries
                    yi = ((a * d - b * c) * yq
                          / ((c * xq + d) ** 2 + (c * yq) ** 2))
                    if (yi - worst_here).sign() < 0:
                        worst_here = yi
                if score is None or (worst_here - score).sign() < 0:
                    score = worst_here
            if best is None or (score - best[0]).sign() > 0:
                best = (score, pts)
    return best


class TestPointSearchParity:
    @pytest.mark.parametrize("level", [1, 13])
    def test_pruned_search_matches_the_exhaustive_one(self, level):
        # one plan across the certificate, as a battery shares it, and a
        # fresh one per call through the public wrapper, which refuses the
        # points below the floor it is asked for
        cert = build_f_certificate(level)
        plan = numeric._Plan()
        refused = 0
        for congruence in list(cert.axioms) + [s.result for s in cert.steps]:
            best, expected = exhaustive_search(congruence)
            mats = frozenset(mat for side in (congruence.lhs, congruence.rhs)
                             for mat, _ in side.terms())
            score, points = numeric._search_points(mats, plan)
            assert type(score) is Fraction
            assert (QuadElem.of(score), points) == (best, expected)
            for y_min in (Fraction(3, 20), Fraction(1, 52)):
                if (best - y_min).sign() < 0:
                    refused += 1
                    with pytest.raises(ConfigurationError) as info:
                        suggest_points(congruence, y_min)
                    assert str(info.value) == (
                        f"no candidate points keep all images of "
                        f"{congruence.id} above y_min={y_min}; the best "
                        f"candidates reach Im = {best}")
                else:
                    assert suggest_points(congruence, y_min) == expected
        assert refused > 0 if level == 13 else refused == 0


def quad_geometry(mat, x, y, k):
    """The image height, the image point and the automorphy factor
    det^{k/2} (cz+d)^{-k} of the class at x + iy, computed here in
    Q(sqrt 13) from the canonical entries: the reference for the integer
    geometry."""
    a, b, c, d = mat.entries
    xq, yq = QuadElem.of(x), QuadElem.of(y)
    den, cy, det = c * xq + d, c * yq, a * d - b * c
    inv = (den * den + cy * cy).inv()
    height = det * yq * inv
    real = ((a * xq + b) * den + a * c * yq * yq) * inv
    re, im = QuadElem.of(1), QuadElem.of(0)
    for _ in range(k):  # times conj(cz + d) = den - i cy
        re, im = re * den + im * cy, im * den - re * cy
    scale = det ** (k // 2) * inv ** k
    return height, (real, height), (re * scale, im * scale)


class TestIntegerGeometry:
    #: records the searches of each level's battery make
    RECORDS = {1: 227, 13: 668}

    @pytest.mark.parametrize("level", [1, 13])
    def test_every_visited_record_matches_the_field_computation(
            self, level, monkeypatch):
        # every (class, point) that the battery's searches score, which
        # covers the points its strokes use; at level 13 delta2's classes
        # are among them
        form = FormData(QSeries(1, [1, 0] * 20), weight=12, level=level,
                        sign=1)
        battery = _battery(level)
        assert (battery[-1].id == "delta2") == (level == 13)
        plan = numeric._Plan()
        for congruence in battery:
            numeric._search_points(numeric._row(congruence)[2], plan)
        points = []
        monkeypatch.setattr(numeric, "_evaluate",
                            lambda memo, point, powers, label="":
                            points.append(point) or (0, 0, 0))
        for (mat, z), image in plan.images.items():
            X, Y, R = z
            x, y = Fraction(X, R), Fraction(Y, R)
            assert numeric._common(x, y) == z
            height, point, _ = quad_geometry(mat, x, y, 2)
            assert height.is_rational
            assert Fraction(image.top, image.norm) == height.a
            numeric._stroke(numeric._Memo(form, numeric._Plan(64)), mat, z)
            assert all(v.is_rational for v in point)
            # the offset is an int, so f is evaluated at the image mod 1
            X, Y, R = numeric._common(*(v.a for v in point))
            assert points[-1] == (X % R, Y, R)
            for k in (2, 4, 8, 12, 16):
                _, _, (re, im) = quad_geometry(mat, x, y, k)
                top_re, top_im, den = numeric._automorphy(k, image)
                assert re.is_rational and im.is_rational
                assert (Fraction(top_re, den), Fraction(top_im, den)) == (
                    re.a, im.a)
        assert len(plan.images) == self.RECORDS[level]

    def test_class_with_an_irrational_entry_is_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                f"class {ProjMat.of(a_matrix())} has an irrational entry")):
            stroke_value(delta_form(), a_matrix(), (0, 1))

    def test_irrational_scalar_is_refused(self):
        root = Congruence("root", RingElem.parse("sqrt(13)*[[1,1],[0,1]]"),
                          RingElem.of(1))
        with pytest.raises(ValueError, match=re.escape(
                "root: the scalar 1*sqrt(13) of class [[1,1],[0,1]] is "
                "irrational")):
            congruence_residual(delta_form(), root)

    @pytest.mark.parametrize("entry", ["eval_form", "stroke_value",
                                       "EvalConfig"])
    @pytest.mark.parametrize("z, bad", [
        ((Fraction(1, 2), 0.5), "0.5 is a float"),
        ((QuadElem.sqrt_d(), 1), "QuadElem(1*sqrt(13)) is a QuadElem"),
        (("1/2", 1), "'1/2' is a str"),
    ], ids=["float", "quad", "str"])
    def test_every_entry_point_takes_ints_and_fractions_only(self, entry, z,
                                                            bad):
        # one converter, one message, naming the point and the coordinate
        calls = {"eval_form": lambda: eval_form(delta_form(), z),
                 "stroke_value": lambda: stroke_value(
                     delta_form(), [[2, 1], [1, 1]], z),
                 "EvalConfig": lambda: EvalConfig(points=(z,))}
        with pytest.raises(TypeError) as info:
            calls[entry]()
        assert str(info.value) == (f"point ({z[0]}, {z[1]}): {bad}, not an "
                                   f"int or a Fraction")

    def test_floor_of_the_point_search_must_be_rational(self):
        cong = Congruence("P", RingElem.parse("[[1,1],[0,1]]"), RingElem.of(1))
        with pytest.raises(TypeError, match=re.escape(
                "y_min: 0.15 is a float, not an int or a Fraction")):
            suggest_points(cong, 0.15)


class TestCuspDecay:
    def test_discriminant_form_passes(self):
        verdict = cusp_decay_check(delta_form())
        assert verdict.ok and verdict.failures == ()

    def test_constant_fails_at_infinity(self):
        const = FormData(QSeries(0, [1] + [0] * 40), weight=12, level=1, sign=1)
        verdict = cusp_decay_check(const)
        assert not verdict.ok
        assert ("infinity", 0) in verdict.failures

    def test_failures_name_both_cusps_per_height(self):
        # f|H = sign * f with |sign| = 1, so the two cusps always agree, and
        # each names the first exponent <= 0 with a nonzero coefficient
        for sign in (1, -1):
            const = FormData(QSeries(0, [1] + [0] * 40), weight=12, level=1,
                             sign=sign)
            assert cusp_decay_check(const).failures == (
                ("infinity", 0), ("zero", 0))
            pole = FormData(QSeries(-2, [0, 3, 0, 1] + [0] * 40), weight=12,
                            level=1, sign=sign)
            assert cusp_decay_check(pole).failures == (
                ("infinity", -1), ("zero", -1))

    def test_cusp_check_evaluates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cusp check evaluated f")
        monkeypatch.setattr(numeric, "_evaluate", refuse)
        assert cusp_decay_check(delta_form()).ok

    def test_zero_series_passes(self):
        zero = FormData(QSeries(1, [0] * 40), weight=12, level=1, sign=1)
        assert cusp_decay_check(zero).ok

    def test_fractional_offset_form_passes(self):
        assert cusp_decay_check(fricke_form()).ok


class TestFormData:
    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            FormData(QSeries(1, [1, 0] * 20), weight=11, level=1, sign=1)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            FormData(QSeries(1, [1, 0] * 20), weight=12, level=1, sign=2)

    @pytest.mark.parametrize("level", [2.7, "13", True, 0],
                             ids=["float", "string", "bool", "zero"])
    def test_rejects_a_level_that_is_no_positive_int(self, level):
        # the battery builds the chain of exactly this level
        with pytest.raises(ValueError, match="^level must be a positive "
                           f"integer, got {re.escape(repr(level))}$"):
            FormData(QSeries(1, [1, 0] * 20), weight=12, level=level, sign=1)


class TestFormcheck:
    def test_discriminant_battery_passes(self):
        report = run_formcheck(delta_form())
        assert report.ok
        assert report.max_residual < mpf(10) ** -15

    def test_report_lines_format(self):
        # every bound of Delta's battery is below 2^-256, and ax:H of its
        # eps = -1 copy fails
        report = run_formcheck(delta_form())
        lines = report.lines()
        cong = [line for line in lines if line.startswith("CONG ")]
        assert len(cong) == 16
        assert all(re.fullmatch(r"CONG [\w:.]+ max_residual<2\^-256 "
                                r"verdict=PASS", line) for line in cong)
        assert cong[0] == "CONG ax:P max_residual<2^-256 verdict=PASS"
        wrong = run_formcheck(FormData(delta_form().series, 12, 1, -1))
        assert re.fullmatch(r"CONG ax:H max_residual=\d\.\d\de[-+]\d+ "
                            r"verdict=FAIL", wrong.lines()[1])
        assert any(line.startswith("HECKE p=2 ") for line in lines)
        assert any(line.startswith("CUSP ") for line in lines)
        assert lines[-1] == "FORMCHECK OK"

    @pytest.mark.parametrize("residual, text", [
        (mpf(0), "0.00e+00"),
        (mpf(2) ** -1022, "2.23e-308"),
        (mpf(2) ** -1023, "1.11e-308"),
        (7 * mpf(2) ** -1130, "4.80e-340"),
        (mpf(2) ** -1075, "2.47e-324"),
        (mpf("9.9996e-321"), "1.00e-320"),
        (mpf(1) / 3, "3.33e-01"),
    ], ids=["zero", "least-normal", "subnormal", "below-subnormals",
            "half-least-subnormal", "rounds-up-a-decade", "normal"])
    def test_report_line_prints_a_tiny_residual_as_it_is(self, residual, text):
        # a double holds x >= 2^-1022 to full precision and %.2e prints it;
        # below, float() loses digits, and x <= 2^-1075 reads 0; a FAIL row
        # prints its bound, and so does a PASS row at or above 2^-precision
        # (precision 1200 here): only a zero bound is below it
        for passed in (False, True):
            verdict = "PASS" if passed else "FAIL"
            report = FormcheckReport((("CONG", "ax:P", residual, passed),),
                                     passed, residual, 1200)
            bound = "<2^-1200" if passed and not residual else f"={text}"
            assert report.lines() == [
                f"CONG ax:P max_residual{bound} verdict={verdict}",
                f"FORMCHECK {'OK' if passed else 'FAIL'}"]

    @pytest.mark.parametrize("precision", [1, 20, 256, 1100])
    def test_a_pass_row_below_two_to_the_minus_prec_prints_that_floor(
            self, precision):
        # the floor is exact: 2^-precision itself prints its digits, a bound
        # one ulp of 2^-(precision + 32) below it prints the floor, and a
        # FAIL row prints its bound however small
        floor = mp.ldexp(1, -precision)
        below = floor - mp.ldexp(1, -precision - 32)
        rows = (("CONG", "at", floor, True), ("CONG", "below", below, True),
                ("CONG", "fail", below, False))
        lines = FormcheckReport(rows, False, floor, precision).lines()
        digits = numeric._format_residual
        assert lines == [
            f"CONG at max_residual={digits(floor)} verdict=PASS",
            f"CONG below max_residual<2^-{precision} verdict=PASS",
            f"CONG fail max_residual={digits(below)} verdict=FAIL",
            "FORMCHECK FAIL"]

    def test_wrong_sign_fails_the_inversion_residual(self):
        report = run_formcheck(FormData(eta_product([(1, 24)], 512),
                                        weight=12, level=1, sign=-1))
        assert not report.ok
        assert any(line.startswith("CONG ax:H ") and "FAIL" in line
                   for line in report.lines())
        assert report.lines()[-1] == "FORMCHECK FAIL"

    def test_fractional_offset_forms_are_rejected(self):
        with pytest.raises(ValueError):
            run_formcheck(fricke_form())

    def test_battery_computes_each_exact_image_once(self, monkeypatch):
        # on a cold plan: the exhaustive search and a fresh image per
        # stroke took 1,496 images, and 16 searches: S3/delta1, H4/H5 and
        # H7/delta3 each share one set of classes; each (class, point) gets
        # one record, which the search makes and the strokes only read
        assert numeric._plan.cache_info().currsize == 0
        made, keys, searches, in_stroke = [], set(), [], []
        record, image = numeric._Image, numeric._image
        stroke, search = numeric._stroke, numeric._search_points

        def counted_record(*fields):
            made.append(bool(in_stroke))
            return record(*fields)

        def counted_image(memo, *key):
            keys.add(key)
            return image(memo, *key)

        def counted_stroke(*args):
            in_stroke.append(None)
            try:
                return stroke(*args)
            finally:
                in_stroke.pop()

        def counted_search(*args):
            searches.append(args)
            return search(*args)
        for name, counted in (("_Image", counted_record),
                              ("_image", counted_image),
                              ("_stroke", counted_stroke),
                              ("_search_points", counted_search)):
            monkeypatch.setattr(numeric, name, counted)
        assert run_formcheck(delta_form()).ok
        # as many records made as (class, point) pairs asked for, and none
        # of them made by a stroke
        assert len(made) == len(keys) == 227
        assert not any(made)
        assert len(searches) == 13

    def test_second_battery_reads_the_plan(self, monkeypatch):
        # the plan is the level's, not the form's: a battery on another
        # form at the same level, points and precision makes no record, no
        # search, no certificate and no q at an image point, and reads each
        # congruence's terms off the plan without sorting a side again; it
        # instantiates each distinct scalar once, in 12 field products
        assert run_formcheck(delta_form()).ok
        calls = {name: [] for name in ("_Image", "_search_points", "_q_power",
                                       "build_f_certificate", "__mul__",
                                       "terms")}
        for owner, name in ((numeric, "_Image"), (numeric, "_search_points"),
                            (numeric, "_q_power"),
                            (level13, "build_f_certificate"),
                            (QuadElem, "__mul__"), (RingElem, "terms")):
            def counted(*args, name=name, original=getattr(owner, name)):
                calls[name].append(args)
                return original(*args)
            monkeypatch.setattr(owner, name, counted)
        cold = run_formcheck(delta_e4_form()).lines()
        assert cold[-1] == "FORMCHECK OK"
        assert [len(calls[name]) for name in calls] == [0, 0, 0, 0, 12, 0]
        numeric._plan.cache_clear()
        monkeypatch.undo()
        assert run_formcheck(delta_e4_form()).lines() == cold

    def test_warm_plans_print_what_cold_ones_do(self, capsys, tmp_path):
        # each (form, precision) alone on a cleared plan, then all of them
        # in a mixed order in one process, plans kept: at 20 bits the
        # battery stops at a budget error, which names the image heights
        files = {}
        for name, form in (
                ("delta", delta_form()), ("delta-e4", delta_e4_form()),
                ("11.2.a.a", FormData(eta_product([(1, 2), (11, 2)], 1200),
                                      weight=2, level=11, sign=-1)),
                ("5.4.a.a", FormData(eta_product([(1, 4), (5, 4)], 512),
                                     weight=4, level=5, sign=1))):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(format_coefficient_file(
                form.series, form.weight, form.level, form.sign))
        runs = [(name, prec) for name in files for prec in ("20", "256",
                                                            "512")]

        def formcheck(name, prec):
            code = cli.main(["formcheck", str(files[name]), "--prec", prec])
            return (code, *capsys.readouterr())
        alone = {}
        for run in runs:
            numeric._plan.cache_clear()
            alone[run] = formcheck(*run)
        assert alone[("delta", "20")][0] == 2
        assert "ball radius" in alone[("delta", "20")][2]
        numeric._plan.cache_clear()
        for run in random.Random(7).sample(runs * 2, 2 * len(runs)):
            assert formcheck(*run) == alone[run], run

    def test_battery_work_stays_at_its_floor(self, monkeypatch):
        # a stroke factor per (class, point) instead of per stroke (116),
        # kept in the plan, so a second battery of the weight makes none;
        # f once per image point mod 1 (56 image points) and none for the
        # cusps; the sum cut at the tail; usually one tail bound per cut
        calls = {"_automorphy": [], "_evaluate": [], "_block_sum": [],
                 "_tail_bound": []}
        for name in calls:
            def counted(*args, name=name, original=getattr(numeric, name)):
                calls[name].append(args)
                return original(*args)
            monkeypatch.setattr(numeric, name, counted)
        for form, factors in ((delta_form(), 62),
                              (FormData(delta_form().series, 12, 1, -1), 0)):
            for name in calls:
                calls[name].clear()
            run_formcheck(form)
            assert len(calls["_automorphy"]) == factors
            assert len(calls["_evaluate"]) == 45
            assert sum(n for _, n, _ in calls["_block_sum"]) == 4087
            assert len(calls["_tail_bound"]) == 48

    #: (label, form, --prec, tolerance) of the batteries whose report lines
    #: the kernel must not move
    KERNEL_BATTERIES = tuple(
        (label, make, prec, Fraction(1, 10 ** 3) if prec == 20
         else Fraction(1, 10 ** 15))
        for label, make in (
            ("delta", delta_form), ("delta-2048", lambda: delta_form(2048)),
            ("delta-eps", lambda: FormData(delta_form().series, 12, 1, -1)),
            ("delta-a115+1", lambda: FormData(QSeries(1, [
                c + (j == 114) for j, c in enumerate(delta_form().series
                                                     .coeffs)]), 12, 1, 1)),
            ("delta-e4", delta_e4_form),
            ("5.4.a.a", lambda: FormData(eta_product([(1, 4), (5, 4)], 512),
                                         4, 5, 1)),
            ("11.2.a.a", lambda: FormData(
                eta_product([(1, 2), (11, 2)], 1200), 2, 11, -1)),
            ("delta-N13", lambda: FormData(delta_form(2048).series, 12, 13,
                                           1)))
        for prec in (20, 256, 512))

    @pytest.mark.parametrize("label, make, prec, tol", KERNEL_BATTERIES,
                             ids=[f"{b[0]}-{b[2]}" for b in KERNEL_BATTERIES])
    def test_the_kernel_moves_no_report_line(self, monkeypatch, label, make,
                                             prec, tol):
        # Horner's rule in place of the block sum prints the same lines: a
        # PASS bound below 2^-prec is printed as that floor, and the kernels
        # differ far below it
        form, cfg = make(), EvalConfig(precision=prec)
        blocks = run_formcheck(form, cfg, tol).lines()
        monkeypatch.setattr(numeric, "_block_sum", reference_sum)
        assert run_formcheck(form, cfg, tol).lines() == blocks

    def test_radius_at_the_tolerance_is_a_budget_error(self):
        # at 20 bits the balls are too wide to decide anything at 1e-15
        with pytest.raises(PrecisionError, match=r"^ax:P: ball radius \S+ is "
                           r"not below the tolerance 1\.0e-15; the points and "
                           r"their images reach down to Im = 9/10$"):
            run_formcheck(delta_form(), EvalConfig(precision=20))

    def test_level_eleven_newform_passes_below_the_default_floor(self):
        # 11.2.a.a = eta(z)^2 eta(11z)^2, a Fricke eigenform with eps = -1:
        # H4's images reach Im = 20/1089 there, below the 1/52 that the
        # battery once refused, and the radius still certifies every row
        form = FormData(eta_product([(1, 2), (11, 2)], 1200), weight=2,
                        level=11, sign=-1)
        report = run_formcheck(form)
        assert report.ok, report.lines()
        assert report.lines()[-1] == "FORMCHECK OK"
        assert certificate_residual_sweep(
            form, build_f_certificate(11)) < mpf(10) ** -15

    @pytest.mark.parametrize("level", [1, 7, 13])
    def test_battery_has_delta2_exactly_where_the_builder_makes_it(self, level):
        ids = [cong.id for cong in _battery(level)]
        assert ids[:4] == ["ax:P", "ax:H", "ax:T2", "ax:T3"]
        if level == 13:
            assert len(ids) == 17 and ids[-1] == "delta2"
        else:
            assert len(ids) == 16 and "delta2" not in ids


class TestCertificateBridge:
    def test_every_verified_congruence_has_tiny_residual_on_delta(self):
        cert = build_f_certificate(1)
        residual = certificate_residual_sweep(delta_form(), cert)
        assert residual < mpf(10) ** -15


class TestAmbientPrecision:
    """The balls take W as an argument: mpmath's global precision, whatever
    it is and however it moves during a call, changes no digit."""

    def test_battery_ignores_precision_set_between_steps(self, monkeypatch):
        plain = run_formcheck(delta_form()).lines()
        calls, block_sum = [], numeric._block_sum

        def noisy(*args):
            calls.append(None)
            mp.prec = 20 if len(calls) % 2 else 1024
            return block_sum(*args)
        monkeypatch.setattr(numeric, "_block_sum", noisy)
        with mp.workprec(53):
            assert run_formcheck(delta_form()).lines() == plain
            assert mp.prec in (20, 1024)  # the noise reached the context
        assert calls

    def test_public_results_ignore_ambient_precision(self):
        form, fricke = delta_form(), fricke_form()
        axiom = f_context(13).axiom("ax:H")
        cfg = EvalConfig(points=FRICKE_POINTS_13)

        def results():
            return (eval_form(form, (Fraction(1, 3), Fraction(9, 10))),
                    stroke_value(form, Mat2.of([[2, 1], [1, 1]]), (0, 1)),
                    congruence_residual(fricke, axiom, cfg))
        plain = results()
        with mp.workprec(20):
            assert results() == plain

    def test_budget_error_ignores_ambient_precision(self):
        def message():
            with pytest.raises(PrecisionError) as info:
                run_formcheck(delta_form(), EvalConfig(precision=30),
                              Fraction("1.23456789e-16"))
            return str(info.value)
        plain = message()
        assert "is not below the tolerance 1.2346e-16;" in plain
        with mp.workprec(20):
            assert message() == plain

    def test_battery_ignores_a_thread_that_moves_the_precision(self):
        plain = run_formcheck(delta_form()).lines()
        stop = threading.Event()

        def noise():
            while not stop.is_set():
                for prec in (20, 1024):
                    mp.prec = prec
        with mp.workprec(53):
            thread = threading.Thread(target=noise)
            thread.start()
            try:
                lines = run_formcheck(delta_form()).lines()
            finally:
                stop.set()
                thread.join()
        assert lines == plain

    def test_threads_on_cold_plans_get_the_serial_reports(self):
        # threads that build and fill the same plans at once, switching
        # often, get the reports of one battery at a time, in every run;
        # in odd runs the plans are made, empty, before the threads start,
        # so that every thread fills the same ones
        forms = {1: delta_form(), 11: FormData(
            eta_product([(1, 2), (11, 2)], 512), weight=2, level=11, sign=-1)}
        serial = {level: run_formcheck(form).lines()
                  for level, form in forms.items()}
        orders = ((1, 11), (11, 1), (1, 11))
        W = EvalConfig().precision + numeric._CUT_GUARD
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for run in range(8):
                numeric._plan.cache_clear()
                if run % 2:
                    for level in forms:
                        numeric._plan(level, None, W)
                got = [None] * len(orders)

                def battery(slot):
                    got[slot] = [run_formcheck(forms[level]).lines()
                                 for level in orders[slot]]
                threads = [threading.Thread(target=battery, args=(slot,))
                           for slot in range(len(orders))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == [[serial[level] for level in levels]
                               for levels in orders], run
        finally:
            sys.setswitchinterval(interval)

    def test_precision_below_one_bit_is_refused(self):
        with pytest.raises(ValueError, match="precision 0 is below 1 bit"):
            EvalConfig(precision=0)
