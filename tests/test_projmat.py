"""Exact 2x2 matrices and their projective classes.

Oracle values here were computed by hand: e.g. [[3,-1],[13,-4]] cubes to the
identity, and [[-1,2/3],[-13/2,10/3]] has characteristic roots (7 +- sqrt13)/6.
A class is parabolic when (a+d)^2 = 4*det and hyperbolic when (a+d)^2 > 4*det;
both are read off the entries.
"""

import random
from fractions import Fraction

import pytest

from gamma13.exactnum import QuadElem
from gamma13.projmat import Mat2, ProjMat
from gamma13 import grammar


def q(a, b=0):
    return QuadElem(Fraction(a), Fraction(b))


def pm(rows):
    return ProjMat.of(rows)


class TestMat2:
    def test_mul(self):
        h = Mat2.of([[0, -1], [13, 0]])
        p_inv_h = Mat2.of([[-13, -1], [13, 0]])
        assert h * p_inv_h == Mat2.of([[-13, 0], [-169, -13]])

    def test_inv_exact(self):
        m = Mat2.of([[3, -1], [13, -4]])
        assert m * m.inv() == Mat2.identity()
        assert m.inv() * m == Mat2.identity()

    def test_inv_of_singular_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Mat2.of([[1, 2], [2, 4]]).inv()

    def test_pow(self):
        g3 = Mat2.of([[3, -1], [13, -4]])
        assert g3 ** 3 == Mat2.identity()
        assert g3 ** -1 == g3.inv()
        assert g3 ** 0 == Mat2.identity()

    def test_scalar_mul(self):
        m = Mat2.of([[1, 0], [13, 1]])
        assert q(0, 1) * m == Mat2.of([[q(0, 1), q(0)], [q(0, 13), q(0, 1)]])

    def test_det_trace(self):
        m = Mat2.of([[2, -1], [13, -6]])
        assert m.det() == q(1)
        assert m.a + m.d == q(-4)


class TestProjMatCanonical:
    def test_scale_invariance(self):
        assert pm([[2, -1], [13, -6]]) == pm([[-4, 2], [-26, 12]])
        assert hash(pm([[2, -1], [13, -6]])) == hash(pm([[-4, 2], [-26, 12]]))

    def test_scale_by_irrational(self):
        s = q(0, 1)
        m = Mat2.of([[s, -14 * s / 39], [3 * s, -s]])
        assert ProjMat.of(m) == pm([[39, -14], [117, -39]])

    def test_negative_determinant_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            pm([[1, 0], [0, -1]])

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            pm([[1, 2], [2, 4]])

    def test_identity_and_negation(self):
        assert pm([[-1, 0], [0, -1]]) == ProjMat.identity()

    def test_of_builds_no_mat2(self, monkeypatch):
        # nested rows, flat rows and a Mat2 give one class, and malformed
        # data the same messages, without a Mat2 built on the way
        given = Mat2.of([[4, 2], [2, 2]])
        built = []
        init = Mat2.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Mat2, "__init__", spy)
        half = q(Fraction(1, 2))
        for rows in ([[2, 1], [1, 1]], (2, 1, 1, 1), given):
            assert ProjMat.of(rows).entries == (q(1), half, half, half)
        for rows, message in [
                ([[1, 2], [3]], "expected 2x2 matrix data"),
                ([1, 2, 3], "expected 2x2 matrix data"),
                ([[1, 2], [2, 4]], "projective class requires positive "
                                   "determinant, got 0 for [[1,2],[2,4]]"),
                ([[1, 2, 3], [4]], "projective class requires positive "
                                   "determinant, got -2 for [[1,2],[3,4]]")]:
            with pytest.raises(ValueError) as info:
                ProjMat.of(rows)
            assert str(info.value) == message
        assert built == []

    def test_mul_and_inv(self):
        h = pm([[0, -1], [13, 0]])
        p_inv_h = pm([[-13, -1], [13, 0]])
        assert h * p_inv_h == pm([[1, 0], [13, 1]])
        g3 = pm([[3, -1], [13, -4]])
        assert g3 * g3.inv() == ProjMat.identity()

    def test_round_trip_through_text(self):
        for rows in ([[39, -14], [117, -39]], [[2, -1], [13, -6]],
                     [[0, -1], [13, 0]]):
            m = pm(rows)
            [(coeff, mat)] = grammar.parse_ring_terms(str(m))
            assert coeff == 1 and mat == m

    def test_text_uses_primitive_integer_form(self):
        assert str(pm([[-4, 2], [-26, 12]])) == "[[2,-1],[13,-6]]"
        s = q(0, 1)
        m = ProjMat.of(Mat2.of([[s, -14 * s / 39], [3 * s, -s]]))
        assert str(m) == "[[39,-14],[117,-39]]"


S = [[0, -1], [1, 0]]


def rand_class(rng) -> ProjMat:
    """A class with entries a + b*sqrt(13), a and b in [-3, 3] over 1 to 3:
    zeros, irrational entries and negative leading entries all occur."""
    while True:
        m = Mat2.of([q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                       Fraction(rng.choice((0, 0, 1, -1, 2)), rng.randint(1, 3)))
                     for _ in range(4)])
        if m.det().sign() > 0:
            return ProjMat.of(m)


def is_canonical(m: ProjMat) -> bool:
    return next(e for e in m.entries if not e.is_zero) == q(1)


class TestClassProducts:
    """Products, inverses and powers of classes work on canonical entries;
    each must be the class of the matrix product, canonicalised."""

    SPECIAL = [S, [[0, 1], [-13, 0]], [[-2, 1], [-5, 2]], [[-1, 0], [3, -1]],
               [[q(0, 1), 1], [-1, q(1, 1)]], [[q(-1, -1), 2], [-3, q(1, -1)]]]

    def classes(self, seed):
        rng = random.Random(seed)
        return [pm(rows) for rows in self.SPECIAL] + [
            rand_class(rng) for _ in range(40)]

    def test_product_matches_matrix_product(self):
        classes = self.classes(60)
        rng = random.Random(61)
        pairs = [(a, b) for a in classes[:6] for b in classes[:6]] + [
            (rng.choice(classes), rng.choice(classes)) for _ in range(200)]
        leads = []
        for a, b in pairs:
            prod = a * b
            assert prod.entries == ProjMat.of(a.mat * b.mat).entries
            assert is_canonical(prod)
            leads.append((a.mat * b.mat).a)
        # the products lead with zero, negative and irrational entries
        assert any(x.is_zero for x in leads)
        assert any(x.sign() < 0 for x in leads)
        assert any(not x.is_rational for x in leads)

    def test_inverse_matches_matrix_inverse(self):
        for a in self.classes(62):
            inv = a.inv()
            assert inv.entries == ProjMat.of(a.mat.inv()).entries
            assert is_canonical(inv)
            assert a * inv == ProjMat.identity() == inv * a

    @pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 3, 5])
    def test_power_matches_matrix_power(self, n):
        for a in self.classes(63)[:20]:
            power = a ** n
            assert power.entries == ProjMat.of(a.mat ** n).entries
            assert is_canonical(power)

    def test_zero_top_left_leads_with_top_right(self):
        s = pm(S)
        assert s.entries == (q(0), q(1), q(-1), q(0))
        assert s * s == ProjMat.identity()
        assert s.inv() == s and s ** 3 == s


def trace_squared_minus_4det(m: ProjMat) -> QuadElem:
    a, b, c, d = m.entries
    return (a + d) ** 2 - 4 * (a * d - b * c)


class TestClassify:
    def test_parabolic(self):
        assert trace_squared_minus_4det(pm([[1, 1], [0, 1]])).is_zero
        assert trace_squared_minus_4det(pm([[1, 0], [13, 1]])).is_zero

    def test_elliptic_orders(self):
        one = ProjMat.identity()
        g3 = pm([[3, -1], [13, -4]])
        assert g3 != one and g3 ** 2 != one and g3 ** 3 == one
        h = pm([[0, -1], [13, 0]])
        assert h != one and h ** 2 == one
        d2 = pm([[5, -2], [13, -5]])
        assert d2 != one and d2 ** 2 == one

    def test_hyperbolic(self):
        m = pm([[q(-1), q(Fraction(2, 3))], [q(Fraction(-13, 2)), q(Fraction(10, 3))]])
        assert trace_squared_minus_4det(m).sign() > 0

    def test_order_of_parabolic_is_none(self):
        p = pm([[1, 1], [0, 1]])
        assert all(p ** n != ProjMat.identity() for n in range(1, 13))


class TestConjugateByH:
    H = pm([[0, -1], [13, 0]])

    def conj(self, m: ProjMat) -> ProjMat:
        return self.H * m * self.H.inv()

    def test_hecke_two_matrices(self):
        assert self.conj(pm([[2, 0], [0, 1]])) == pm([[1, 0], [0, 2]])
        assert self.conj(pm([[1, 1], [0, 2]])) == pm([[2, 0], [-13, 1]])

    def test_involution(self):
        rng = random.Random(10)
        for _ in range(100):
            rows = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
            m = Mat2.of(rows)
            if m.det().sign() <= 0:
                continue
            p = ProjMat.of(m)
            assert self.conj(self.conj(p)) == p


class TestDiagonalize:
    def test_characteristic_roots_7_pm_sqrt13_over_6(self):
        m = Mat2.of([[q(-1), q(Fraction(2, 3))],
                     [q(Fraction(-13, 2)), q(Fraction(10, 3))]])
        lam1 = q(Fraction(7, 6), Fraction(1, 6))
        lam2 = q(Fraction(7, 6), Fraction(-1, 6))
        # the columns (b, lam - a) are eigenvectors, so in their basis m is diagonal
        basis = Mat2.of([[m.b, m.b], [lam1 - m.a, lam2 - m.a]])
        assert basis.inv() * m * basis == Mat2.of([[lam1, 0], [0, lam2]])
