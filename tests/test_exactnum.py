"""Exact-arithmetic layer: field of Q(sqrt(13)) and scalar polynomials.

Expected values in this file were derived independently by hand (e.g. the
inverse of 2+sqrt(13) comes from (2+sqrt13)(-2+sqrt13) = 13-4 = 9) and are
frozen here as oracles for the implementation.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, sqrt as mpsqrt

from gamma13.exactnum import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    QuadElem,
    ScalarPoly,
)
from gamma13 import grammar
from gamma13.certificate import (Certificate, load_shipped_certificate,
                                 verify_certificate)
from gamma13.groupring import RingElem
from gamma13.projmat import ProjMat


def q(a, b=0):
    return QuadElem(Fraction(a), Fraction(b))


S13 = q(0, 1)


class TestQuadArith:
    def test_add_componentwise(self):
        assert q(1, 2) + q(3, -1) == q(4, 1)

    def test_inverse_of_2_plus_sqrt13(self):
        x = q(2, 1)
        assert x.inv() == q(Fraction(-2, 9), Fraction(1, 9))
        assert x * x.inv() == q(1)

    def test_inverse_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(200):
            x = q(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            if x.is_zero:
                continue
            assert x * x.inv() == q(1)

    def test_conj_involution(self):
        rng = random.Random(2)
        for _ in range(100):
            x = q(rng.randint(-50, 50), rng.randint(-50, 50))
            assert x.conj().conj() == x

    def test_conj_maps_b_to_minus_b(self):
        assert q(1, 2).conj() == q(1, -2)

    def test_inversion_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            q(0).inv()

    def test_integer_coercion(self):
        assert q(2, 1) + 1 == q(3, 1)
        assert 2 * q(2, 1) == q(4, 2)
        assert q(4, 2) / 2 == q(2, 1)

    def test_pow(self):
        x = q(2, 1)
        assert x ** 0 == q(1)
        assert x ** 2 == x * x
        assert x ** -1 == x.inv()
        assert x ** -3 == (x * x * x).inv()

    def test_field_axioms_random(self):
        # associativity, distributivity, inverses on 10^4 random samples
        rng = random.Random(3)

        def rand():
            return q(Fraction(rng.randint(-20, 20), rng.randint(1, 10)),
                     Fraction(rng.randint(-20, 20), rng.randint(1, 10)))

        for _ in range(10_000):
            x, y, z = rand(), rand(), rand()
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero:
                assert x * x.inv() == q(1)


class TestQuadSign:
    def test_irrational_constant_signs(self):
        assert q(2, -1).sign() == -1          # 2 - sqrt13 < 0 since 4 < 13
        assert (q(2, 1) / 3).sign() == +1
        assert q(0).sign() == 0

    def test_mixed_sign_cases(self):
        assert q(-1, Fraction(1, 3)).sign() == +1   # 1 < 13/9
        assert q(4, -1).sign() == +1                # 16 > 13
        assert q(-4, 1).sign() == -1
        assert q(0, -1).sign() == -1
        assert q(-7, 0).sign() == -1

    def test_sign_matches_float_embedding(self):
        with mp.workprec(256):
            s = mpsqrt(mpf(13))
            rng = random.Random(4)
            for _ in range(10_000):
                x = q(Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                      Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
                approx = mpf(x.a.numerator) / x.a.denominator \
                    + (mpf(x.b.numerator) / x.b.denominator) * s
                expected = 0 if approx == 0 else (1 if approx > 0 else -1)
                assert x.sign() == expected

    def test_abs(self):
        assert abs(q(2, -1)) == q(-2, 1)
        assert abs(q(2, 1)) == q(2, 1)


class _RefQuad:
    """The former representation, a + b*sqrt(13) as two Fractions, kept
    here as the reference the integer triples are checked against."""

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return _RefQuad(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _RefQuad(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return _RefQuad(self.a * o.a + 13 * self.b * o.b,
                        self.a * o.b + self.b * o.a)

    def inv(self):
        norm = self.a * self.a - 13 * self.b * self.b
        return _RefQuad(self.a / norm, -self.b / norm)

    def sign(self):
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == 0 or sa == sb:
            return sb or sa
        return sa if self.a * self.a > 13 * self.b * self.b else sb

    def text(self):
        if not self.b:
            return str(self.a)
        root = f"{abs(self.b)}*sqrt(13)"
        if not self.a:
            return root if self.b > 0 else "-" + root
        return f"{self.a}{'+' if self.b > 0 else '-'}{root}"


class TestIntegerRepresentation:
    @staticmethod
    def rand_rational(rng):
        den = rng.choice((rng.randint(1, 9), rng.randint(1, 10 ** 12)))
        num = rng.choice((rng.randint(-9, 9), rng.randint(-10 ** 15, 10 ** 15)))
        return Fraction(num, den)

    @staticmethod
    def check(x, ref):
        assert (x.a, x.b) == (ref.a, ref.b)
        assert x.r > 0 and math.gcd(x.p, x.q, x.r) == 1
        assert (Fraction(x.p, x.r), Fraction(x.q, x.r)) == (ref.a, ref.b)
        assert x == QuadElem(ref.a, ref.b)
        assert hash(x) == hash(QuadElem(ref.a, ref.b))
        assert x.sign() == ref.sign()
        assert str(x) == ref.text()

    def test_operations_match_fraction_pairs(self):
        rng = random.Random(13)
        for _ in range(400):
            ra = _RefQuad(self.rand_rational(rng), self.rand_rational(rng))
            rb = _RefQuad(self.rand_rational(rng), self.rand_rational(rng))
            if rng.random() < 0.2:
                rb = _RefQuad(rb.a, 0)
            if rng.random() < 0.2:
                rb = _RefQuad(ra.b, ra.a)     # same r: the fast path of + and -
            x, y = QuadElem(ra.a, ra.b), QuadElem(rb.a, rb.b)
            self.check(x, ra)
            self.check(x + y, ra + rb)
            self.check(x - y, ra - rb)
            self.check(x * y, ra * rb)
            self.check(-x, _RefQuad(-ra.a, -ra.b))
            self.check(x.conj(), _RefQuad(ra.a, -ra.b))
            if not (rb.a == 0 and rb.b == 0):
                self.check(y.inv(), rb.inv())
                self.check(x / y, ra * rb.inv())
            if ra.a or ra.b:
                self.check(x ** -2, (ra * ra).inv())
            self.check(x ** 3, ra * ra * ra)
            self.check(x + 2, ra + _RefQuad(2, 0))
            self.check(x * Fraction(3, 7), ra * _RefQuad(Fraction(3, 7), 0))
            assert (x == y) == ((ra.a, ra.b) == (rb.a, rb.b))

    def test_equal_values_by_different_routes(self):
        half = QuadElem(Fraction(2, 4), 0)
        routes = [half, QuadElem.of(Fraction(1, 2)), QuadElem.of(1) / 2,
                  QuadElem(Fraction(1, 2), Fraction(0)), q(3, 1) * q(3, 1) / q(44, 12),
                  (q(1, 1) + q(0, -1)) / 2]
        for x in routes:
            assert (x.p, x.q, x.r) == (1, 0, 2)
            assert x == half and hash(x) == hash(half)
        assert len(set(routes)) == 1
        zero = q(5, 3) - q(5, 3)
        assert (zero.p, zero.q, zero.r) == (0, 0, 1) and zero.is_zero

    def test_sign_of_near_zero_unit(self):
        unit = q(649, -180)       # norm 649^2 - 13*180^2 = 1
        assert unit * unit.conj() == q(1)
        assert unit.sign() == 1 and (-unit).sign() == -1
        # 1/unit = 649 + 180*sqrt(13) = 1297.9992...
        assert (unit - q(Fraction(1, 1298))).sign() == 1
        assert (unit - q(Fraction(1, 1297))).sign() == -1
        assert unit.inv() == q(649, 180)

    def test_value_is_immutable(self):
        x = q(1, 2)
        for name in ("p", "q", "r", "a", "b", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 3)

    def test_copy_and_pickle_keep_the_value(self):
        x = q(Fraction(-7, 6), Fraction(5, 4))
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and (y.p, y.q, y.r) == (-14, 15, 12)

    @pytest.mark.parametrize("build", [
        lambda: ProjMat.of([[2, -1], [13, -6]]),
        lambda: RingElem.of(ProjMat.of([[2, -1], [13, -6]])),
        lambda: ScalarPoly.alpha2(),
        lambda: load_shipped_certificate("f"),
    ], ids=["ProjMat", "RingElem", "ScalarPoly", "Certificate"])
    def test_immutable_values_copy_and_pickle(self, build):
        x = build()
        hash(x)  # a cached hash must not travel with the copy
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            if isinstance(x, Certificate):
                assert (verify_certificate(y).lines()
                        == verify_certificate(x).lines())


class TestScalarPoly:
    def test_eps_squared_is_one(self):
        e = ScalarPoly.eps()
        assert e * e == ScalarPoly.const(1)

    def test_difference_of_squares_with_eps(self):
        a2 = ScalarPoly.alpha2()
        e = ScalarPoly.eps()
        assert (a2 + e) * (a2 - e) == a2 * a2 - ScalarPoly.const(1)

    def test_commutativity(self):
        a2, a3 = ScalarPoly.alpha2(), ScalarPoly.alpha3()
        assert a2 * a3 + a3 * a2 == 2 * (a2 * a3)

    def test_canonical_equality_and_hash(self):
        a2 = ScalarPoly.alpha2()
        p = a2 * a2 - 1
        r = (a2 - 1) * (a2 + 1)
        assert p == r
        assert hash(p) == hash(r)

    def test_zero_absent_terms(self):
        a2 = ScalarPoly.alpha2()
        assert (a2 - a2).is_zero
        assert a2 - a2 == ScalarPoly.const(0)

    def test_exponent_guard(self):
        a2 = ScalarPoly.alpha2()
        big = a2 ** (EXPONENT_LIMIT - 1)
        with pytest.raises(ExponentOverflowError):
            big * big

    def test_power_overflow_names_requested_exponent(self):
        a2, a3 = ScalarPoly.alpha2(), ScalarPoly.alpha3()
        with pytest.raises(ExponentOverflowError,
                           match=r"^exponent 70000 exceeds limit 65536$"):
            a2 ** 70000
        # the largest exponent of the base counts, checked before squaring
        with pytest.raises(ExponentOverflowError,
                           match=r"^exponent 65536 exceeds limit 65536$"):
            (a2 + a3 ** 2) ** 32768

    def test_constant_power_is_capped_on_coefficient_bits(self):
        two = ScalarPoly.const(2)
        assert grammar.parse_scalar_poly("(2)^20000") == \
            ScalarPoly.const(2 ** 20000)
        # checked before any squaring: 2 bits times 10^7 would be 10^7 bits
        with pytest.raises(ExponentOverflowError,
                           match=r"^exponent 10000000 times 2 coefficient "
                                 r"bits exceeds limit 65536$"):
            two ** 10000000
        with pytest.raises(ExponentOverflowError, match=r"times 3 coefficient"):
            grammar.parse_scalar_poly("(1/2 + 1/4*sqrt(13))^30000")

    def test_value_does_not_depend_on_term_order(self):
        rng = random.Random(29)
        monomials = [(i2, i3, ie) for i2 in range(3) for i3 in range(3)
                     for ie in range(2)]
        a2, a3, e = ScalarPoly.alpha2(), ScalarPoly.alpha3(), ScalarPoly.eps()
        for _ in range(60):
            items = [(key, q(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(-3, 3)))
                     for key in rng.sample(monomials, rng.randint(1, 8))]
            built = []
            for _ in range(4):
                rng.shuffle(items)
                built.append(ScalarPoly(dict(items)))
                total = ScalarPoly.const(0)
                for (i2, i3, ie), c in items:
                    total = total + c * a2 ** i2 * a3 ** i3 * e ** ie
                built.append(total)
            first = built[0]
            for poly in built[1:]:
                assert poly == first and hash(poly) == hash(first)
                assert str(poly) == str(first)
                assert list(poly.terms()) == list(first.terms())
            keys = [key for key, _ in first.terms()]
            assert keys == sorted(set(key for key, _ in items))

    def test_instantiate(self):
        a2, a3, e = ScalarPoly.alpha2(), ScalarPoly.alpha3(), ScalarPoly.eps()
        p = a2 * a3 * e - 2 * a2 + 3
        val = p.instantiate(q(Fraction(-3, 4)), q(Fraction(28, 27)), -1)
        expected = q(Fraction(-3, 4)) * q(Fraction(28, 27)) * q(-1) \
            - q(2) * q(Fraction(-3, 4)) + q(3)
        assert val == expected

    def test_is_const(self):
        assert ScalarPoly.const(q(5, 1)).as_const() == q(5, 1)
        assert ScalarPoly.alpha2().as_const() is None


class TestGrammar:
    @staticmethod
    def quad(text):
        return grammar.parse_scalar_poly(text).as_const()

    def test_rational_round_trip(self):
        for text in ["0", "-7", "3/2", "-14/9"]:
            assert str(self.quad(text)) == text

    def test_quad_parse_examples(self):
        assert self.quad("39") == q(39)
        assert self.quad("1/2-3/4*sqrt(13)") == q(Fraction(1, 2), Fraction(-3, 4))
        assert self.quad("-14/39*sqrt(13)") == q(0, Fraction(-14, 39))
        assert self.quad("sqrt(13)") == S13
        assert self.quad(" 2 + 1*sqrt( 13 ) ") == q(2, 1)

    def test_quad_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(500):
            x = q(Fraction(rng.randint(-99, 99), rng.randint(1, 40)),
                  Fraction(rng.randint(-99, 99), rng.randint(1, 40)))
            assert self.quad(str(x)) == x

    def test_mismatched_root_rejected(self):
        with pytest.raises(grammar.GrammarError):
            grammar.parse_scalar_poly("1+sqrt(5)")

    @pytest.mark.parametrize("parse, text, pos", [
        (grammar.parse_scalar_poly, "sqrt(5)", 5),
        (grammar.parse_scalar_poly, "1+sqrt( 5 )", 8),
        (RingElem.parse, "[[1,sqrt(5)],[0,1]]", 9),
        (grammar.parse_scalar_poly, "1/0 + a2", 2),
        (grammar.parse_scalar_poly, "-3/0", 3),
    ])
    def test_error_names_the_offending_token(self, parse, text, pos):
        # the radicand or the denominator itself, not the token after it
        with pytest.raises(grammar.GrammarError) as info:
            parse(text)
        assert info.value.pos == pos

    def test_scalar_poly_round_trip(self):
        rng = random.Random(8)
        syms = [ScalarPoly.alpha2(), ScalarPoly.alpha3(), ScalarPoly.eps()]
        for _ in range(300):
            p = ScalarPoly.const(0)
            for _ in range(rng.randint(0, 4)):
                term = ScalarPoly.const(q(rng.randint(-9, 9), rng.randint(-3, 3)))
                for s in syms:
                    term = term * s ** rng.randint(0, 2)
                p = p + term
            assert grammar.parse_scalar_poly(str(p)) == p

    def test_scalar_poly_examples(self):
        a2 = ScalarPoly.alpha2()
        e = ScalarPoly.eps()
        assert grammar.parse_scalar_poly("3/2*e*a2^2") == Fraction(3, 2) * e * a2 * a2
        assert grammar.parse_scalar_poly("a2^2 - 1") == a2 * a2 - 1
        assert grammar.parse_scalar_poly("(2+1*sqrt(13))*a3") == \
            q(2, 1) * ScalarPoly.alpha3()

    def test_matrix_entries(self):
        [(coeff, mat)] = grammar.parse_ring_terms("[[39,-14],[117,-39]]")
        assert coeff == 1 and mat.primitive_entries() == (
            q(39), q(-14), q(117), q(-39))

    @pytest.mark.parametrize("kind, text, message, pos", [
        ("scalar", "1 + 2 $ 3", "unexpected character '$'", 6),
        ("ring", "[[1,0],[0,1]] # [[1,1],[0,1]]", "unexpected character '#'",
         14),
        ("scalar", "a2\u00d73", "unexpected character '\u00d7'", 2),
        ("scalar", "1/0 + a2", "zero denominator", 2),
        ("ring", "[[1,0],[0, 7/ 0]]", "zero denominator", 14),
        ("ring", "a2*[[1,0],[0, 7/ 0]]", "zero denominator", 17),
        ("scalar", "1+sqrt( 5 )", "sqrt(5) does not belong to Q(sqrt(13))", 8),
        ("ring", "[[1,sqrt(5)],[0,1]]",
         "sqrt(5) does not belong to Q(sqrt(13))", 9),
        ("ring", "[[1,  a2],[0,1]]", "expected a field constant, found symbols",
         6),
        ("ring", "2*[[1,0],[ e+1,1]]",
         "expected a field constant, found symbols", 11),
        ("scalar", "3/", "expected digits, got ''", 2),
        ("scalar", "1/x", "expected digits, got 'x'", 2),
        ("ring", "a2^e*[[1,0],[0,1]]", "expected digits, got 'e'", 3),
        ("scalar", "1 2", "trailing input '2'", 2),
        ("ring", "[[1,0],[0,1]]]", "trailing input ']'", 13),
        ("ring", "a2 a3", "trailing input 'a3'", 3),
        ("scalar", "a2 + + a3", "expected a factor, got '+'", 5),
        ("scalar", "", "expected a factor, got ''", 0),
        ("ring", "[[1,2],[3]]", "expected ',', got ']'", 9),
        ("ring", "sqrt 13", "expected '(', got '13'", 5),
    ])
    def test_every_raise_site_pins_message_and_position(self, kind, text,
                                                        message, pos):
        # tokens carry no positions: each is found again for the error
        parse = grammar.parse_scalar_poly if kind == "scalar" else RingElem.parse
        with pytest.raises(grammar.GrammarError) as info:
            parse(text)
        assert (str(info.value), info.value.pos) == (
            f"{message} (at position {pos})", pos)

    @pytest.mark.parametrize("text", [
        "[[(2+sqrt(13))^70000,0],[0,1]]", "[[1,0],[0,1]] - a2*[[1 ,0],"
        "[0,(2+sqrt(13))^70000]]"])
    def test_matrix_entry_past_the_exponent_cap_is_refused(self, text):
        # a matrix entry is read by the scalar parser, with its cap
        with pytest.raises(ExponentOverflowError, match="^exponent 70000 "
                           "times 2 coefficient bits exceeds limit 65536$"):
            RingElem.parse(text)

    @pytest.mark.parametrize("text, pos", [("", 0), ("1 + a2", 6)])
    def test_reading_past_the_last_token_is_unexpected_end(self, text, pos):
        # the parsers peek before they read, so only the tokenizer sees this
        ts = grammar._Tokens(text)
        while ts.peek():
            ts.next()
        with pytest.raises(grammar.GrammarError) as info:
            ts.next()
        assert (str(info.value), info.value.pos) == (
            f"unexpected end of input (at position {pos})", pos)

    def test_garbage_rejected_with_position(self):
        with pytest.raises(grammar.GrammarError):
            grammar.parse_scalar_poly("3/")
        with pytest.raises(grammar.GrammarError):
            grammar.parse_ring_terms("[[1,2],[3]]")
        with pytest.raises(grammar.GrammarError):
            grammar.parse_scalar_poly("a2 + + a3")
