"""Tests for exact truncated q-expansions and Hecke coefficient checks.

Frozen values below were recomputed independently by brute polynomial
multiplication of (1 - q^{mn}) factors: the Euler-product coefficients
(pentagonal-number signs), the discriminant-form coefficients
tau(2) = -24, tau(3) = 252, tau(4) = -1472, tau(6) = tau(2)tau(3), and
the series part of eta(z)^2 eta(13z)^2 = q^{7/6}(1 - 2q - q^2 + ...).
The inverse Euler product doubles as a partition-number oracle.
"""

import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from mpmath import mpf

from gamma13.certificate import Certificate, Congruence, Step
from gamma13.gamma0 import Word
from gamma13.groupring import RingElem
from gamma13.numeric import EvalConfig, FormcheckReport
from gamma13.projmat import Mat2
from gamma13.qseries import (
    FormData,
    QSeries,
    _euler_cube,
    _euler_function,
    _pack,
    _unpack,
    eta_offset,
    eta_product,
    format_coefficient_file,
    hecke_check,
    parse_coefficient_file,
)

TAU = {
    1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
    8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944,
    13: -577738, 14: 401856, 15: 1217160, 16: 987136, 17: -6905934,
    18: 2727432, 19: 10661420, 20: -7109760,
}

PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


def brute_mul(a, b, L):
    out = [Fraction(0)] * (L + 1)
    for i, x in enumerate(a[: L + 1]):
        for j, y in enumerate(b[: L + 1 - i]):
            out[i + j] += x * y
    return out


def delta_series(L):
    return eta_product([(1, 24)], L)


def partition_counts(L):
    """p(0..L) by counting partitions part size by part size."""
    counts = [1] + [0] * L
    for part in range(1, L + 1):
        for n in range(part, L + 1):
            counts[n] += counts[n - part]
    return counts


def miller_power(f, alpha, L):
    """f^alpha for f[0] = 1 by J.C.P. Miller's recurrence
    n g_n = sum_{k=1..n} ((alpha + 1) k - n) f_k g_{n-k}."""
    support = [(k, c) for k, c in enumerate(f[: L + 1]) if k and c]
    g = [1] + [0] * L
    for n in range(1, L + 1):
        total = sum(((alpha + 1) * k - n) * c * g[n - k]
                    for k, c in support if k <= n)
        assert total % n == 0
        g[n] = total // n
    return g


def random_coeffs(rng, count, kind):
    if kind == "small":
        return [rng.randint(-9, 9) for _ in range(count)]
    if kind == "2^64":
        return [rng.choice((-1, 1)) * rng.getrandbits(70) for _ in range(count)]
    if kind == "2^300":
        return [rng.choice((-1, 1)) * (2 ** 300 + rng.getrandbits(310))
                for _ in range(count)]
    if kind == "zero":
        return [0] * count
    if kind == "fraction":
        return [Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12)))
                for _ in range(count)]
    raise AssertionError(kind)


class TestQSeries:
    def test_constructor_normalizes(self):
        s = QSeries(Fraction(2, 2), [Fraction(4, 2), 3])
        assert s.offset == 1
        assert s.coeffs == (2, 3)
        assert s.length == 1

    def test_one_minus_q_times_geometric(self):
        f = QSeries(0, [1, -1, 0, 0])
        g = QSeries(0, [1, 1, 1, 0])
        assert (f * g).coeffs == (1, 0, 0, -1)

    def test_offsets_add_under_mul(self):
        f = QSeries(Fraction(1, 24), [1, 1])
        assert (f * f).offset == Fraction(1, 12)

    def test_mul_truncates_to_min_length(self):
        f = QSeries(0, [1, 2, 3, 4, 5])
        g = QSeries(0, [1, 1])
        assert (f * g).length == 1
        assert (f * g).coeffs == (1, 3)

    def test_mul_matches_brute_convolution(self):
        rng = random.Random(5)
        L = 64
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(L + 1)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(L + 1)]
        prod = QSeries(0, a) * QSeries(0, b)
        assert list(prod.coeffs) == brute_mul(a, b, L)

    def test_add_aligns_integer_offset_difference(self):
        f = QSeries(1, [1, 2, 3, 4])
        g = QSeries(3, [10, 20, 30, 40])
        total = f + g
        assert total.offset == 1
        assert total.coeffs == (1, 2, 13, 24)

    def test_add_resolves_length_to_overlap(self):
        f = QSeries(0, [1, 1, 1, 1, 1])
        g = QSeries(0, [1, 1])
        assert (f + g).coeffs == (2, 2)

    def test_add_rejects_fractional_offset_difference(self):
        f = QSeries(1, [1, 0])
        g = QSeries(Fraction(7, 6), [1, 0])
        with pytest.raises(ValueError):
            f + g

    def test_pow_associativity(self):
        f = QSeries(0, [1, -3, 2, 5, -1, 4, 0, 2])
        assert f ** 2 * f == f ** 3

    def test_pow_requires_positive_exponent(self):
        f = QSeries(0, [1, 1])
        with pytest.raises(ValueError):
            f ** 0

    def test_scalar_mul_and_sub(self):
        f = QSeries(1, [1, 2, 3])
        assert (f * 2).coeffs == (2, 4, 6)
        assert (Fraction(1, 2) * f).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
        assert (f - f).coeffs == (0, 0, 0)
        assert (-f).coeffs == (-1, -2, -3)

    def test_coefficient_accessor(self):
        f = QSeries(Fraction(7, 6), [1, -2, -1])
        assert f.coefficient(Fraction(7, 6)) == 1
        assert f.coefficient(Fraction(13, 6)) == -2
        assert f.coefficient(0) == 0
        assert f.coefficient(Fraction(3, 2)) == 0
        with pytest.raises(ValueError):
            f.coefficient(Fraction(7, 6) + 3)


class TestValueSemantics:
    """``QSeries`` and ``FormData`` are immutable values: equality, hash,
    text, copies and construction read their fields, in order."""

    def series(self):
        return QSeries(1, [1, -24, Fraction(1, 2)])

    def form(self):
        return FormData(QSeries(1, [1, -24, 252]), 12, 1, 1)

    def test_int_and_fraction_offsets_are_one_value(self):
        s, t = self.series(), QSeries(Fraction(1), (Fraction(1), -24,
                                                    Fraction(2, 4)))
        assert s == t and hash(s) == hash(t)
        assert type(t.offset) is int and type(t.coeffs[0]) is int
        f, g = self.form(), FormData(QSeries(Fraction(3, 3), [1, -24, 252]),
                                     12, 1, 1)
        assert f == g and hash(f) == hash(g)
        assert QSeries(Fraction(7, 6), [1]) != QSeries(1, [1])
        assert f != FormData(f.series, 12, 1, -1)
        assert s != (1, (1, -24, Fraction(1, 2))) and f != s

    def test_repr_names_every_field(self):
        assert repr(self.series()) == (
            "QSeries(offset=1, coeffs=(1, -24, Fraction(1, 2)))")
        assert repr(QSeries(Fraction(7, 6), [2])) == (
            "QSeries(offset=Fraction(7, 6), coeffs=(2,))")
        assert repr(self.form()) == (
            "FormData(series=QSeries(offset=1, coeffs=(1, -24, 252)), "
            "weight=12, level=1, sign=1)")

    def test_assignment_and_deletion_raise(self):
        s, f = self.series(), self.form()
        for value, names in ((s, ("offset", "coeffs", "other")),
                             (f, ("series", "weight", "level", "sign",
                                  "other"))):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, 3)
            for name in names[:-1]:
                with pytest.raises(AttributeError):
                    delattr(value, name)
        assert s == self.series() and f == self.form()

    def test_copy_and_pickle_keep_the_value(self):
        for x in (self.series(), self.form()):
            for y in (copy.copy(x), copy.deepcopy(x),
                      pickle.loads(pickle.dumps(x))):
                assert y == x and hash(y) == hash(x) and repr(y) == repr(x)

    def test_positional_and_keyword_construction_agree(self):
        s = self.series()
        assert QSeries(offset=1, coeffs=[1, -24, Fraction(1, 2)]) == s
        assert QSeries(1, coeffs=(1, -24, Fraction(1, 2))) == s
        series = QSeries(1, [1, -24, 252])
        assert FormData(series=series, weight=12, level=1,
                        sign=1) == self.form()
        assert FormData(series, 12, level=1, sign=1) == self.form()

    def test_checks_run_in_their_order(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            QSeries(0, [])
        big = QSeries(1, [1, 10 ** 9])  # breaks |a_n| <= n^k as well
        for args, message in (
                ((big, 3, 0, 0), "weight must be a positive even integer, "
                                 "got 3"),
                ((big, 12, True, 0), "level must be a positive integer, "
                                     "got True"),
                ((big, 12, 1, 0), "sign must be +1 or -1, got 0"),
                ((big, 2, 1, 1), "coefficient a_n at n=2 is 1000000000")):
            with pytest.raises(ValueError) as info:
                FormData(*args)
            assert str(info.value).startswith(message)


def congruence():
    return Congruence("ax:P", RingElem.parse("[[1,1],[0,1]]"), RingElem.of(1))


CONGRUENCE_TEXT = ("Congruence(id='ax:P', lhs=RingElem([[1,1],[0,1]]), "
                   "rhs=RingElem(1))")


# each record, its unchanged repr text, and one of its fields
@pytest.mark.parametrize("make, text, name", [
    (congruence, CONGRUENCE_TEXT, "lhs"),
    (lambda: Step("s", "SYM", ("ax:P",), congruence()),
     f"Step(id='s', rule='SYM', args=('ax:P',), result={CONGRUENCE_TEXT})",
     "result"),
    (lambda: Certificate(1, 13, (congruence(),), ()),
     f"Certificate(version=1, level=13, axioms=({CONGRUENCE_TEXT},), "
     f"steps=())", "steps"),
    (lambda: Word.of([("g2", 2)]), "Word(letters=(('g2', 2),))", "letters"),
    (lambda: Mat2.of([[2, 1], [Fraction(1, 2), 1]]), "Mat2([[2,1],[1/2,1]])",
     "c"),
    (lambda: FormcheckReport((("HECKE", 2, True, True),), True, mpf(0), 256),
     "FormcheckReport(rows=(('HECKE', 2, True, True),), ok=True, "
     "max_residual=mpf('0.0'), precision=256)", "ok"),
    (EvalConfig, "EvalConfig(precision=256, points=None)", "precision"),
    (lambda: EvalConfig(64, ((0, 1),)),
     "EvalConfig(precision=64, points=((Fraction(0, 1), Fraction(1, 1)),))",
     "points"),
], ids=["Congruence", "Step", "Certificate", "Word", "Mat2",
        "FormcheckReport", "EvalConfig", "EvalConfig-points"])
def test_records_are_immutable_values(make, text, name):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, name, 3)
    assert value == make() and hash(value) == hash(make())
    for copied in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and hash(copied) == hash(value)
    assert repr(value) == text


class Call:
    """Pickles as ``func(*args)``, a stream no constructor has checked."""

    def __init__(self, func, *args):
        self.func, self.args = func, args

    def __reduce__(self):
        return self.func, self.args


def test_a_pickled_config_is_rebuilt_through_its_checks():
    cfg = pickle.loads(pickle.dumps(Call(EvalConfig, 64, ((0, 1),))))
    assert cfg == EvalConfig(64, ((0, 1),))
    assert all(type(c) is Fraction for c in cfg.points[0])
    with pytest.raises(TypeError, match="precision: 64.0 is a float"):
        pickle.loads(pickle.dumps(Call(EvalConfig, 64.0, None)))


class TestKernel:
    KINDS = ("small", "2^64", "2^300", "zero", "fraction")

    def test_matches_brute_convolution_on_seeded_factors(self):
        rng = random.Random(2024)
        for trial in range(60):
            la, lb = rng.choice((0, 1, 7, 40)), rng.choice((0, 3, 40, 65))
            a = random_coeffs(rng, la + 1, rng.choice(self.KINDS))
            b = random_coeffs(rng, lb + 1, rng.choice(self.KINDS))
            oa = Fraction(rng.randint(-30, 30), 24)
            ob = rng.randint(-2, 3)
            prod = QSeries(oa, a) * QSeries(ob, b)
            assert prod.offset == oa + ob
            assert list(prod.coeffs) == brute_mul(a, b, min(la, lb)), trial

    def test_self_square_matches_brute_convolution(self):
        rng = random.Random(77)
        for kind in self.KINDS:
            for length in (0, 1, 30):
                a = random_coeffs(rng, length + 1, kind)
                s = QSeries(Fraction(1, 24), a)
                square = brute_mul(a, a, length)
                assert list((s * s).coeffs) == square
                assert (s ** 2).offset == Fraction(1, 12)
                assert list((s ** 3).coeffs) == brute_mul(square, a, length)

    def test_length_zero(self):
        assert (QSeries(1, [-3]) * QSeries(2, [2 ** 300])).coeffs == (
            -3 * 2 ** 300,)
        assert (QSeries(0, [Fraction(1, 3)]) * QSeries(0, [0])).coeffs == (0,)

    #: Values on both sides of +-2^63: an 8-byte limb holds
    #: -2^63 <= v < 2^63, and a value outside sends the slots one by one.
    NEAR_LIMB = (2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
                 -2 ** 63 + 1, -2 ** 63, -2 ** 63 - 1)

    @pytest.mark.parametrize("width", range(1, 25))
    def test_pack_round_trip_at_every_width(self, width):
        edge = 2 ** (8 * width - 1) - 1  # the widest value a slot holds
        small = [0, 1, -1, 127, -128, edge, -edge, edge - 1, 0]
        for values in (small, small + list(self.NEAR_LIMB)):
            values = [v for v in values if abs(v) <= edge]
            packed = _pack(values, width)
            assert packed == sum(v << (8 * width * i)
                                 for i, v in enumerate(values))
            assert _unpack(packed, len(values), width) == values
            # the low slots alone, whatever the slots above them hold
            low = len(values) // 2
            assert _unpack(packed, low, width) == values[:low]

    @pytest.mark.parametrize("top, length", [
        (3, 300), (2 ** 27, 255), (2 ** 31 - 1, 1), (2 ** 31, 1),
        (2 ** 31 - 1, 3), (2 ** 60 + 1, 40)])
    def test_product_at_the_bound(self, top, length):
        # all coefficients M: c_L = (L+1) M^2 = |a|_1 |a|_inf, the bound
        # the slots are sized by, at either sign
        for sign in (1, -1):
            s = QSeries(0, [sign * top] * (length + 1))
            square = brute_mul(s.coeffs, s.coeffs, length)
            assert square[-1] == (length + 1) * top * top
            other = copy.copy(s)
            assert other is not s
            assert list((s * s).coeffs) == square
            assert list((s * other).coeffs) == square
            assert list((s * -s).coeffs) == [-c for c in square]

    def test_discriminant_form_matches_miller_recurrence(self):
        # at L = 2048 the last of Delta's squarings packs 9-byte slots,
        # whose values all lie below 2^63, as bench formcheck's eta does
        L = 2048
        euler = [1] + [0] * L
        for n in range(1, L + 1):  # multiply by (1 - q^n) in place
            for i in range(L, n - 1, -1):
                euler[i] -= euler[i - n]
        assert list(delta_series(L).coeffs) == miller_power(euler, 24, L)


class TestEtaProduct:
    def test_euler_product_pentagonal_signs(self):
        eta = eta_product([(1, 1)], 16)
        assert eta.offset == Fraction(1, 24)
        assert eta.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1, 0)

    def test_discriminant_form_tau_values(self):
        d = delta_series(20)
        assert d.offset == 1
        for n, tau in TAU.items():
            assert d.coefficient(n) == tau

    def test_discriminant_form_multiplicativity(self):
        d = delta_series(20)
        for m in range(2, 21):
            for n in range(2, 21):
                import math
                if m * n <= 20 and math.gcd(m, n) == 1:
                    assert d.coefficient(m * n) == d.coefficient(m) * d.coefficient(n)

    def test_discriminant_form_matches_brute_expansion(self):
        L = 24
        brute = [Fraction(0)] * (L + 1)
        brute[0] = Fraction(1)
        for n in range(1, L + 1):
            factor = [Fraction(0)] * (L + 1)
            factor[0] = Fraction(1)
            factor[n] = Fraction(-1)
            for _ in range(24):
                brute = brute_mul(brute, factor, L)
        assert list(delta_series(L).coeffs) == brute

    def test_weight_two_level_thirteen_form(self):
        f = eta_product([(1, 2), (13, 2)], 20)
        assert f.offset == Fraction(7, 6)
        assert f.coeffs == (1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1,
                            0, 0, 0, 7, 0, -2, -2, -4, 2, -2)

    def test_empty_factor_list_is_one(self):
        one = eta_product([], 4)
        assert one.offset == 0
        assert one.coeffs == (1, 0, 0, 0, 0)

    def test_inverse_euler_product_gives_partition_numbers(self):
        inv = eta_product([(1, -1)], 14)
        assert inv.offset == Fraction(-1, 24)
        assert list(inv.coeffs) == PARTITIONS

    def test_eta_times_inverse_is_one(self):
        assert eta_product([(1, 1), (1, -1)], 8) == eta_product([], 8)

    def test_inverse_euler_product_at_length_300(self):
        assert list(eta_product([(1, -1)], 300).coeffs) == \
            partition_counts(300)

    def test_eta_power_times_its_inverse_is_one_at_length_512(self):
        one = QSeries(0, [1] + [0] * 512)
        for r in (1, 5):
            product = eta_product([(1, r)], 512) * eta_product([(1, -r)], 512)
            assert product == one

    def test_invert_with_rational_lead(self):
        f = QSeries(Fraction(1, 2), [2, 0, Fraction(-1, 3), 0, 5, 1])
        assert f * f.invert() == QSeries(0, [1, 0, 0, 0, 0, 0])

    def test_quotients_match_power_then_invert(self):
        # the order of operations before invert-then-power: each factor
        # raised to |r| first, the dense power inverted afterwards
        rng = random.Random(13)
        for _ in range(8):
            L = rng.choice((30, 120, 200))
            ms = rng.sample(range(1, 14), rng.randint(1, 3))
            factors = [(m, rng.choice((-6, -3, -1, 1, 2, 5))) for m in ms]
            expected = QSeries(0, [1] + [0] * L)
            for m, r in factors:
                factor = eta_product([(m, abs(r))], L)
                expected = expected * (factor.invert() if r < 0 else factor)
            assert eta_product(factors, L) == expected, factors

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            eta_product([(0, 2)], 8)


def reference_eta_product(factors, L):
    """The product of eta(m z)^r the long way: for each (m, r), the
    full-length pentagonal series of prod (1 - q^{mn}), inverted when
    r < 0, raised to |r| by repeated multiplication, then multiplied in."""
    acc = QSeries(0, [1] + [0] * L)
    for m, r in factors:
        euler = [0] * (L + 1)
        euler[0] = 1
        for k in range(1, L + 1):
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if m * g <= L:
                    euler[m * g] += (-1) ** k
        base = QSeries(0, euler)
        if r < 0:
            base = base.invert()
        for _ in range(abs(r)):
            acc = acc * base
    return QSeries(eta_offset(factors), acc.coeffs)


class TestEtaFloor:
    """The expansion of each eta(m z)^r to L // m terms, raised through
    Jacobi's cube and squarings, against the full-length pentagonal
    reference; r covers every residue mod 3 and 2^s for s <= 3."""

    def test_jacobi_series_is_the_pentagonal_cube(self):
        L = 600
        assert _euler_cube(L) == _euler_function(L) ** 3

    @pytest.mark.parametrize("m", [1, 2, 5, 13])
    @pytest.mark.parametrize("r", [*range(-7, 0), *range(1, 9), 24])
    def test_matches_full_length_reference(self, m, r):
        for L in sorted({0, 1, m - 1, m, 97, 300}):
            assert eta_product([(m, r)], L) == \
                reference_eta_product([(m, r)], L), (m, r, L)


def reference_failures(series, p, k, ap, stroke):
    """The indices pn at which the recursion (or, with ``stroke``, the
    stroke identity) fails, with a_x read by its Fraction key: zero unless
    x is a positive integer."""
    def a(x):
        x = Fraction(x)
        return series.coefficient(x) if x.denominator == 1 and x >= 1 else 0

    up = Fraction(p) ** (k // 2)
    down = Fraction(1, p ** (k // 2 - 1))
    failures = []
    for n in range(1, (series.length + 1) // p + 1):
        if stroke:
            holds = (up * a(Fraction(n, p)) + down * a(p * n)
                     == ap * down * a(n))
        else:
            holds = a(p * n) - ap * a(n) + p ** (k - 1) * a(Fraction(n, p)) == 0
        if not holds:
            failures.append(p * n)
    return tuple(failures)


class TestHeckeChecks:
    def corrupted(self, series, n, value):
        coeffs = list(series.coeffs)
        coeffs[n - 1] = value
        return QSeries(series.offset, coeffs)

    def test_discriminant_form_passes_both_primes(self):
        d = delta_series(64)
        for p, ap in ((2, -24), (3, 252)):
            verdict = hecke_check(d, p, 12, ap)
            assert verdict.ok and verdict.failures == ()

    def test_recursion_forces_coefficient_four(self):
        d = delta_series(64)
        assert d.coefficient(4) == (-24) ** 2 - 2 ** 11 == -1472

    def test_corrupted_coefficient_four_fails(self):
        bad = self.corrupted(delta_series(64), 4, -1472 + 1)
        verdict = hecke_check(bad, 2, 12, -24)
        assert not verdict.ok
        assert verdict.failures == (4, 8, 16)

    def test_corrupted_coefficient_six_fails_stroke(self):
        bad = self.corrupted(delta_series(64), 6, -6048 + 5)
        verdict = hecke_check(bad, 2, 12, -24)
        assert not verdict.ok
        assert verdict.failures[0] == 6
        assert verdict.failures == (6, 12, 24)

    def test_zero_series_holds_vacuously(self):
        zero = QSeries(1, [0] * 40)
        assert hecke_check(zero, 2, 12, -24).ok
        assert hecke_check(zero, 3, 12, 252).ok

    def test_check_and_stroke_identity_agree(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rng.choice((2, 3))
            coeffs = [1] + [rng.randint(-4, 4) for _ in range(10 * p + 20)]
            series = QSeries(1, coeffs)
            ap = Fraction(rng.randint(-6, 6))
            k = rng.choice((2, 4, 12))
            verdict = hecke_check(series, p, k, ap)
            for stroke in (False, True):
                expected = reference_failures(series, p, k, ap, stroke)
                assert verdict.failures == expected
                assert verdict.ok == (expected == ())

    def test_preconditions(self):
        d = delta_series(64)
        with pytest.raises(ValueError):
            hecke_check(d, 5, 12, 1)
        with pytest.raises(ValueError):
            hecke_check(delta_series(12), 2, 12, -24)
        with pytest.raises(ValueError):
            hecke_check(eta_product([(1, 2), (13, 2)], 64), 2, 2, 1)
        with pytest.raises(ValueError):
            hecke_check(d, 2, 11, -24)
        with pytest.raises(ValueError):
            hecke_check(d, 7, 12, 0)


class TestCoefficientFile:
    def test_round_trip_is_bit_exact(self):
        d = delta_series(20)
        text = format_coefficient_file(d, weight=12, level=1, sign=1)
        data = parse_coefficient_file(text)
        assert data.series == d
        assert (data.weight, data.level, data.sign) == (12, 1, 1)
        assert format_coefficient_file(data.series, data.weight,
                                       data.level, data.sign) == text

    def test_header_and_line_format(self):
        s = QSeries(1, [1, -24, 252])
        text = format_coefficient_file(s, weight=12, level=1, sign=1)
        lines = text.splitlines()
        assert lines[0] == "# k=12 N=1 eps=+1"
        assert lines[1] == "1 1"
        assert lines[2] == "2 -24"
        assert lines[3] == "3 252"

    def test_negative_sign_and_rational_coefficients(self):
        s = QSeries(1, [1, Fraction(-1, 3)])
        text = format_coefficient_file(s, weight=2, level=13, sign=-1)
        assert "eps=-1" in text.splitlines()[0]
        assert "2 -1/3" in text
        assert parse_coefficient_file(text).series == s

    def test_integer_tokens_parse_as_the_fraction_route_does(self):
        # integer tokens are read by int(), p/q tokens by Fraction()
        tokens = ["1", "-24", "+252", "0007", "-00", "+0", "10/1", "-6/3",
                  "-1/3", "+4/006", "0/5", "84480", "-113643/1"]
        text = "# k=12 N=1 eps=-1\n" + "".join(
            f"{n} {t}\n" for n, t in enumerate(tokens, 1))
        reference = [Fraction(t) for t in tokens]
        reference = [q.numerator if q.denominator == 1 else q
                     for q in reference]
        data = parse_coefficient_file(text)
        assert data == FormData(QSeries(1, reference), 12, 1, -1)
        assert ([type(c) for c in data.series.coeffs]
                == [type(c) for c in reference])

    def test_writer_rejects_fractional_offset(self):
        f = eta_product([(1, 2), (13, 2)], 8)
        with pytest.raises(ValueError):
            format_coefficient_file(f, weight=2, level=13, sign=-1)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, 0],
                             ids=["bool", "float-plus", "float-minus", "zero"])
    def test_sign_that_is_no_int_unit_is_refused(self, sign):
        # 1.0 and -1.0 equal a sign by value, and True equals 1
        series = eta_product([(1, 24)], 20)
        message = f"^sign must be \\+1 or -1, got {re.escape(repr(sign))}$"
        with pytest.raises(ValueError, match=message):
            FormData(series, 12, 1, sign)
        with pytest.raises(ValueError, match=message):
            format_coefficient_file(series, weight=12, level=1, sign=sign)

    def test_parser_refuses_coefficients_beyond_the_growth_bound(self):
        text = format_coefficient_file(QSeries(1, [1, 2 ** 12 + 1]),
                                       weight=12, level=1, sign=1)
        with pytest.raises(ValueError) as info:
            parse_coefficient_file(text)
        assert str(info.value).startswith("coefficient a_n at n=2 is 4097, ")

    @pytest.mark.parametrize("offset", [1, Fraction(7, 6), -2])
    @pytest.mark.parametrize("k", [2, 12])
    def test_growth_check_refuses_exactly_past_the_bound(self, offset, k):
        # a lone coefficient at, just past and far below n^k, as an int and
        # as a fraction: the check decided by bit lengths refuses exactly
        # what |a_n| > n^k refuses, with the same message
        for j in range(40):
            n = offset + j
            if n < 1:
                continue
            bound = Fraction(n) ** k
            near = (bound, bound + Fraction(1, 10 ** 9), math.floor(bound),
                    math.floor(bound) + 1, Fraction(1, 3), 1 - (1 << 2 * j))
            for c in near + tuple(-v for v in near):
                series = QSeries(offset, [0] * j + [c])
                if abs(c) <= bound:
                    FormData(series, k, 1, 1)
                    continue
                stored = series.coeffs[j]
                with pytest.raises(ValueError) as info:
                    FormData(series, k, 1, 1)
                assert str(info.value) == (
                    f"coefficient a_n at n={n} is {stored}, beyond n^{k} = "
                    f"{bound}: the tail bound assumes |a_n| <= n^k")

    def test_parser_rejects_gaps_and_bad_headers(self):
        with pytest.raises(ValueError):
            parse_coefficient_file("# k=12 N=1 eps=+1\n1 1\n3 252\n")
        with pytest.raises(ValueError):
            parse_coefficient_file("# k=12 N=1\n1 1\n")
        with pytest.raises(ValueError):
            parse_coefficient_file("1 1\n2 -24\n")

    @pytest.mark.parametrize("text, message", [
        ("\n# k=12 N=1\n", "line 2: bad coefficient file header: "
                           "'# k=12 N=1'"),
        ("# k=12 N=1 eps=+1\n1 1\n2\n", "line 3: bad coefficient line: '2'"),
        ("# k=12 N=1 eps=+1\nx 1\n", "line 2: bad coefficient index 'x'"),
        ("# k=12 N=1 eps=+1\n1 1\n\n3 252\n",
         "line 4: non-contiguous coefficient index 3"),
        ("# k=12 N=1 eps=+1\n1 1\n2 1/0\n", "line 3: bad coefficient '1/0'"),
        ("# k=12 N=1 eps=+1\n1 abc\n", "line 2: bad coefficient 'abc'"),
        ("# k=12 N=1 eps=+1\n1 1\n2 1e1000000\n",
         "line 3: bad coefficient '1e1000000'"),
        ("# k=12 N=1 eps=+1\n1 1\n2 1.5\n", "line 3: bad coefficient '1.5'"),
    ])
    def test_parse_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_coefficient_file(text)
        assert str(info.value) == message
