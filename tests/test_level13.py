"""The level-13 derivation data: generator relations, certificates, and the
exact rational-function checks behind the final zero-constant argument.

Every frozen matrix product below (e.g. g3 * d1hat = [[0,-3],[39,-26]],
g3 * d2hat = g2, g3 * d3hat = [[13,-2],[26,0]]) was recomputed by hand
before being asserted here.
"""

import hashlib
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from gamma13 import level13
from gamma13.certificate import (SHIPPED_FILES, certificate_from_json,
                                 certificate_to_json, verify_certificate)
from gamma13.exactnum import QuadElem, ScalarPoly
from gamma13.groupring import RingElem
from gamma13.projmat import Mat2, ProjMat
from slash_reference import blowup_reference, tilde_g_reference


def q(a, b=0):
    return QuadElem(Fraction(a), Fraction(b))


G3 = ProjMat.of([[3, -1], [13, -4]])
G2_CLASS = ProjMat.of([[2, -1], [13, -6]])
D1HAT = ProjMat.of([[39, -14], [117, -39]])
D2HAT = ProjMat.of([[5, -2], [13, -5]])
D3HAT = ProjMat.of([[-26, 8], [-91, 26]])


class TestGeneratorIdentities:
    def test_fricke_translation_conjugation(self):
        h = ProjMat.of([[0, -1], [13, 0]])
        p = ProjMat.of([[1, 1], [0, 1]])
        w = ProjMat.of([[1, 0], [13, 1]])
        assert h * p.inv() * h == w

    def test_hecke_sums_are_their_coset_sums(self):
        assert level13.t_sum(2) == RingElem.parse(
            "[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]]")
        assert level13.t_sum(3) == RingElem.parse(
            "[[3,0],[0,1]] + [[1,0],[0,3]] + [[1,1],[0,3]] + [[1,2],[0,3]]")

    def test_fixed_classes_are_the_builders_at_level_13(self):
        assert level13.G3 == level13.g3_class(13) == G3
        assert level13.DELTA1_HAT == level13.delta1_class(13) == D1HAT
        assert level13.DELTA3_HAT == level13.delta3_class(13) == D3HAT
        assert level13.DELTA2_HAT == D2HAT

    def test_g3_has_order_three(self):
        assert G3 ** 3 == ProjMat.identity()

    def test_g3_inverse_times_g2_is_an_involution(self):
        elt = G3.inv() * G2_CLASS
        assert elt == D2HAT
        assert elt ** 2 == ProjMat.identity()

    def test_unit_ideal_factorization(self):
        one = RingElem.one()
        g3 = RingElem.of(G3)
        assert (one - g3) * (one + g3 + g3 * g3) == RingElem.zero()

    def test_h2_h3_commute(self):
        h2, h3 = level13.h2_mat(), level13.h3_mat()
        assert h2 * h3 == h3 * h2

    def test_h2_h3_are_products_of_involutions(self):
        assert ProjMat.of(level13.h2_mat()) == D2HAT * D1HAT
        assert ProjMat.of(level13.h3_mat()) == D3HAT * D1HAT

    def test_hatted_matrices_match_scaled_forms(self):
        s = q(0, 1)
        d1 = Mat2.of([[s, -14 * s / 39], [3 * s, -s]])
        assert ProjMat.of(d1) == D1HAT
        d3 = Mat2.of([[-s, 4 / s], [-7 * s / 2, s]])
        assert ProjMat.of(d3) == D3HAT

    def test_simultaneous_diagonalization(self):
        a = level13.a_matrix()
        ainv = level13.a_inverse()
        assert ainv * a == Mat2.identity()
        lam_minus = q(Fraction(-2, 3), Fraction(-1, 3))
        lam_plus = q(Fraction(2, 3), Fraction(-1, 3))
        assert ainv * level13.h2_mat() * a == Mat2.of([[lam_minus, 0],
                                                        [0, lam_plus]])
        mu_minus = q(Fraction(7, 6), Fraction(-1, 6))
        mu_plus = q(Fraction(7, 6), Fraction(1, 6))
        assert ainv * level13.h3_mat() * a == Mat2.of([[mu_minus, 0],
                                                        [0, mu_plus]])

    def test_frozen_products(self):
        g3, d1, d2, d3 = (m.mat for m in (G3, D1HAT, D2HAT, D3HAT))
        assert ProjMat.of(g3 * d1) == ProjMat.of([[0, -3], [39, -26]])
        assert ProjMat.of(g3 * d2) == G2_CLASS
        assert ProjMat.of(g3 * d3) == ProjMat.of([[13, -2], [26, 0]])


class TestFCertificate:
    def test_verifies_end_to_end(self):
        start = time.monotonic()
        cert = level13.build_f_certificate()
        report = verify_certificate(cert)
        elapsed = time.monotonic() - start
        assert report.ok
        assert elapsed < 5.0

    def test_contains_all_headline_steps(self):
        cert = level13.build_f_certificate()
        ids = {s.id for s in cert.steps}
        assert {"T2", "T3", "HT2", "HT3", "W", "g2", "R3", "S3", "delta1",
                "H4", "H5", "H6", "H7", "delta3", "delta2"} <= ids

    def test_w_and_g2_collapse_to_identity(self):
        resolved = {s.id: s.result for s in level13.build_f_certificate().steps}
        assert resolved["W"].lhs == RingElem.parse("[[1,0],[13,1]]")
        assert resolved["W"].rhs == RingElem.one()
        assert resolved["g2"].lhs == RingElem.of(G2_CLASS)
        assert resolved["g2"].rhs == RingElem.one()

    def test_delta_steps_are_factored_annihilators(self):
        resolved = {s.id: s.result for s in level13.build_f_certificate().steps}
        one = RingElem.one()
        e = ScalarPoly.eps()
        g3 = RingElem.of(G3)
        d1 = resolved["delta1"]
        assert d1.lhs == (one - g3) * (one - e * RingElem.of(D1HAT))
        assert d1.rhs == RingElem.zero()
        d2 = resolved["delta2"]
        assert d2.lhs == (one - g3) * (one + RingElem.of(D2HAT))
        assert d2.lhs.coeff_of(G2_CLASS) == ScalarPoly.const(-1)
        assert d2.rhs == RingElem.zero()
        d3 = resolved["delta3"]
        assert d3.lhs == -((one - g3) * (one - e * RingElem.of(D3HAT)))
        assert d3.rhs == RingElem.zero()

    def test_r3_is_the_two_sided_leftover(self):
        resolved = {s.id: s.result for s in level13.build_f_certificate().steps}
        r3 = resolved["R3"]
        assert r3.lhs == RingElem.parse("[[1,1],[0,3]] + [[1,2],[0,3]]")
        assert r3.rhs == RingElem.parse("[[3,0],[-13,1]] + [[3,0],[-26,1]]")

    def test_h5_four_term_form(self):
        resolved = {s.id: s.result for s in level13.build_f_certificate().steps}
        h5 = resolved["H5"]
        assert h5.lhs == RingElem.parse(
            "[[1,1],[0,4]] + [[1,3],[0,4]] - [[4,0],[-13,1]] - [[4,0],[-39,1]]")
        assert h5.rhs == RingElem.zero()

    def test_json_round_trip(self):
        cert = level13.build_f_certificate()
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert
        assert verify_certificate(back).ok

    @pytest.mark.parametrize("level", [1, 7, 25])
    def test_generic_level_instances(self, level):
        cert = level13.build_f_certificate(level)
        assert verify_certificate(cert).ok
        ids = {s.id for s in cert.steps}
        assert "delta1" in ids and "delta3" in ids
        assert "delta2" not in ids  # involution trick needs level 13

    def test_json_is_pinned_beyond_level_13(self):
        # SHA-256 of each text, so that every level the battery builds is
        # pinned byte for byte, as level 13 is by the shipped file
        digests = {
            1: "a045256c606dea9f5e251a9ae2f5d0994f92c5827477c75011a52befb7708a69",
            2: "dd42a22cce67deba0e43065182ed91ef4bbaa3aacf1c42eb808c73ab82dcc7d9",
            5: "16aae4c960712026b6733cafe820a3bdc60eb3f8151f540db242e5e7750d3bf5",
            7: "2f98c5d058b221f8d485baf1a2383584b6e3264b07b8c945b70f0077a55e02bf",
            11: "54494b8590ea62ba45553f80cf720e63520e73ed22cce15ebb99abcf7d43a5fa",
            26: "a6b067d64d9302eb01f16f757786c4de8ca45ee332701ec3aea74ca18eb06221",
        }
        for level, digest in digests.items():
            text = certificate_to_json(level13.build_f_certificate(level))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, \
                level

    @pytest.mark.parametrize("level, error", [
        (2.7, TypeError), ("13", TypeError), (True, TypeError),
        (0, ValueError), (-1, ValueError),
    ], ids=["float", "string", "bool", "zero", "negative"])
    def test_level_must_be_a_positive_int(self, level, error):
        # no level is truncated or coerced into some other level's chain
        for build in (level13.build_f_certificate, level13.f_context):
            with pytest.raises(error, match="^level must be "):
                build(level)

    def test_level_one_g2_is_integral(self):
        cert = level13.build_f_certificate(1)
        resolved = {s.id: s.result for s in cert.steps}
        assert resolved["g2"].lhs == RingElem.parse("[[2,-1],[1,0]]")


class TestSquareT2:
    def test_final_congruence(self):
        resolved = {s.id: s.result for s in level13.build_f_certificate().steps}
        cong = resolved["H4pre"]
        assert cong.lhs == RingElem.parse("[[1,1],[0,4]] + [[1,3],[0,4]]")
        assert cong.rhs == RingElem.parse(
            "a2^2 - [[1,1],[0,1]] - a2*[[2,0],[0,1]] - a2*[[1,0],[0,2]]")

    def test_uses_only_linear_rules(self):
        steps = level13.build_f_certificate().steps
        ids = [s.id for s in steps]
        # the T2 axiom step, then the squaring from t2sq.a through H4pre,
        # which cites nothing else
        block = (steps[ids.index("T2")],) + steps[
            ids.index("t2sq.a"):ids.index("H4pre") + 1]
        own = {s.id for s in block}
        assert all(a in own for s in block[1:] for a in s.args
                   if isinstance(a, str))
        rules = {s.rule for s in block}
        assert rules <= {"AXIOM", "RIGHT_MUL", "ADD", "SCALE"}

    def test_square_expansion_terms(self):
        resolved = {s.id: s.result for s in level13.build_f_certificate().steps}
        squared = resolved["t2sq"].lhs
        assert squared.coeff_of([[2, 1], [0, 2]]) == ScalarPoly.const(1)
        assert squared.coeff_of([[1, 2], [0, 4]]) == ScalarPoly.const(1)
        assert squared.coeff_of(ProjMat.identity()) == ScalarPoly.const(2)

    def test_rhs_fixed_by_fricke_conjugation_modulo_units(self):
        resolved = {s.id: s.result for s in level13.build_f_certificate().steps}
        cong = resolved["H4pre"]
        h = ProjMat.of([[0, -1], [13, 0]])

        def conj_and_reduce(elem):
            unit_classes = {ProjMat.of([[1, 1], [0, 1]]),
                            ProjMat.of([[1, 0], [-13, 1]])}
            acc = RingElem.zero()
            for mat, coeff in elem.terms():
                image = h * mat * h.inv()
                if image in unit_classes:
                    image = ProjMat.identity()
                acc = acc + coeff * RingElem.of(image)
            return acc

        def reduce_units(elem):
            acc = RingElem.zero()
            for mat, coeff in elem.terms():
                if mat == ProjMat.of([[1, 1], [0, 1]]):
                    mat = ProjMat.identity()
                acc = acc + coeff * RingElem.of(mat)
            return acc

        assert conj_and_reduce(cong.rhs) == reduce_units(cong.rhs)


class TestGCertificate:
    def test_verifies(self):
        cert = level13.build_g_certificate()
        assert verify_certificate(cert).ok

    def test_three_deltas_sum(self):
        resolved = {s.id: s.result for s in level13.build_g_certificate().steps}
        cong = resolved["threedeltas"]
        assert cong.lhs == (RingElem.of(D1HAT) + RingElem.of(D2HAT)
                            + RingElem.of(D3HAT))
        assert cong.rhs == RingElem.of(2 * ScalarPoly.eps() - 1)

    def test_h2_h3_signs(self):
        resolved = {s.id: s.result for s in level13.build_g_certificate().steps}
        assert resolved["h2-sign"].lhs == RingElem.of(D2HAT * D1HAT)
        assert resolved["h2-sign"].rhs == RingElem.of(-ScalarPoly.eps())
        assert resolved["h3-sign"].lhs == RingElem.of(D3HAT * D1HAT)
        assert resolved["h3-sign"].rhs == RingElem.one()

    def test_h_power_sign(self):
        resolved = {s.id: s.result for s in level13.build_g_certificate().steps}
        cong = resolved["h-power-sign"]
        h2, h3 = level13.h2_mat(), level13.h3_mat()
        assert cong.lhs == RingElem.of(ProjMat.of(h2 * h2 * h3))
        assert cong.rhs == RingElem.one()

    def test_json_round_trip(self):
        cert = level13.build_g_certificate()
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert and verify_certificate(back).ok


class TestFContext:
    def test_is_the_f_certificate_without_steps(self):
        ctx = level13.f_context(7)
        assert ctx.steps == ()
        assert ctx.axioms == level13.build_f_certificate(7).axioms
        assert ctx.axiom("ax:H").lhs == RingElem.of(level13.h_class(7))
        with pytest.raises(KeyError):
            ctx.axiom("ax:W")


class TestShippedData:
    @pytest.mark.parametrize("name, build", [
        ("f", level13.build_f_certificate),
        ("g", level13.build_g_certificate),
    ], ids=["f", "g"])
    def test_shipped_json_matches_builder(self, name, build):
        shipped = (resources.files("gamma13") / "data"
                   / SHIPPED_FILES[name]).read_bytes()
        assert (certificate_to_json(build()) + "\n").encode("utf-8") == shipped


class TestSignExponent:
    def test_single_h2(self):
        check = level13.sign_exponent_check(1, 0)
        assert check.power_sign.rhs == RingElem.of(-ScalarPoly.eps())
        assert check.even_power.rhs == RingElem.one()

    def test_h2_squared_h3(self):
        check = level13.sign_exponent_check(2, 1)
        assert check.power_sign.rhs == RingElem.one()
        h2, h3 = level13.h2_mat(), level13.h3_mat()
        assert check.power_sign.lhs == RingElem.of(ProjMat.of(h2 * h2 * h3))

    def test_trivial_word(self):
        check = level13.sign_exponent_check(0, 0)
        assert check.power_sign.lhs == RingElem.one()
        assert check.power_sign.rhs == RingElem.one()

    def test_negative_exponents(self):
        check = level13.sign_exponent_check(-3, -2)
        assert check.power_sign.rhs == RingElem.of(-ScalarPoly.eps())
        h2 = ProjMat.of(level13.h2_mat())
        h3 = ProjMat.of(level13.h3_mat())
        assert check.power_sign.lhs == RingElem.of(h2 ** -3 * h3 ** -2)
        assert check.even_power.lhs == RingElem.of(h2 ** -6 * h3 ** -2)

    def test_random_small_exponents(self):
        rng = random.Random(30)
        h2 = ProjMat.of(level13.h2_mat())
        h3 = ProjMat.of(level13.h3_mat())
        for _ in range(10):
            m, n = rng.randint(-8, 8), rng.randint(-8, 8)
            check = level13.sign_exponent_check(m, n)
            expected = ScalarPoly.const(-1) ** abs(m) * ScalarPoly.eps() ** (abs(m) % 2)
            assert check.power_sign.rhs == RingElem.of(expected)
            assert check.power_sign.lhs == RingElem.of(h2 ** m * h3 ** n)
            assert check.even_power.rhs == RingElem.one()

    def test_desk_scale_bound(self):
        with pytest.raises(ValueError):
            level13.sign_exponent_check(9, 0)


class TestConjugatedMatrices:
    def test_displayed_entries(self):
        b, b2 = level13.conjugated_g3_matrices()
        five_minus = q(Fraction(5, 6), Fraction(-1, 3))   # (5-2*sqrt13)/6
        five_plus = q(Fraction(5, 6), Fraction(1, 3))
        half = q(Fraction(1, 2))
        assert b == Mat2.of([[-half, five_minus], [five_plus, -half]])
        assert b2 == -Mat2.of([[half, five_minus], [five_plus, half]])
        assert b.det() == q(1)

    def test_cube_is_identity(self):
        b, b2 = level13.conjugated_g3_matrices()
        assert b * b2 == Mat2.identity()
        assert b ** 3 == Mat2.identity()


class TestBlowup:
    def test_negative_weight_vanishes_identically(self):
        res = level13.blowup_check(-2)
        assert res.identically_zero
        assert res.pole_order == 0

    @pytest.mark.parametrize("k", range(2, 17, 2))
    def test_positive_weights_blow_up(self, k):
        res = level13.blowup_check(k)
        assert not res.identically_zero
        assert res.pole_order == k // 2

    @pytest.mark.parametrize("k", range(-16, -3, 2))
    def test_other_negative_weights_have_no_pole(self, k):
        assert level13.blowup_check(k) == level13.BlowupResult(0, False)

    def test_rejects_odd_and_zero(self):
        with pytest.raises(ValueError):
            level13.blowup_check(3)
        with pytest.raises(ValueError):
            level13.blowup_check(0)

    def test_weight_bound(self):
        # no cap for k > 0; below -128 the evaluation is refused
        assert level13.blowup_check(130).pole_order == 65
        with pytest.raises(ValueError, match=r"k >= -128"):
            level13.blowup_check(-130)

    def test_huge_weight_answers_at_once(self):
        start = time.perf_counter()
        assert level13.blowup_check(10 ** 6) == \
            level13.BlowupResult(5 * 10 ** 5, False)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k", [-128, -64, -32, -2, *range(2, 17, 2),
                                   32, 64, 128])
    def test_closed_form_matches_polynomial_reference(self, k):
        assert level13.blowup_check(k) == blowup_reference(k)

    @pytest.mark.parametrize("which, entry", [(0, "b"), (1, "d")])
    def test_conjugate_with_a_zero_entry_is_refused(self, monkeypatch,
                                                   which, entry):
        mats = list(level13.conjugated_g3_matrices())
        mats[which] = mats[which]._replace(**{entry: q(0)})
        monkeypatch.setattr(level13, "conjugated_g3_matrices",
                            lambda: tuple(mats))
        with pytest.raises(ArithmeticError):
            level13.blowup_check(4)


class TestTildeG:
    @pytest.mark.parametrize("k,expected", [
        (2, (-1, -1, -1)), (6, (-1, -1, -1)), (10, (-1, -1, -1)),
        (4, (1, 1, 1)), (8, (1, 1, 1)), (12, (1, 1, 1)),
        (-2, (-1, -1, -1)), (-4, (1, 1, 1)),
    ] + [(k, ((-1) ** (k // 2),) * 3) for k in range(-16, 17, 2)
         if k not in (2, 6, 10, 4, 8, 12, -2, -4)])
    def test_sign_pattern(self, k, expected):
        assert level13.tilde_g_check(k) == expected

    def test_bounds(self):
        # every even weight answers, however large; odd weights are refused
        assert level13.tilde_g_check(18) == (-1, -1, -1)
        start = time.perf_counter()
        assert level13.tilde_g_check(10 ** 6) == (1, 1, 1)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError):
            level13.tilde_g_check(5)

    @pytest.mark.parametrize("k", range(-16, 17, 2))
    def test_closed_form_matches_polynomial_reference(self, k):
        assert level13.tilde_g_check(k) == tilde_g_reference(k)

    def test_reflection_that_is_not_antidiagonal_is_refused(self,
                                                           monkeypatch):
        # A^-1 g3 A has nonzero diagonal entries (TestConjugatedMatrices)
        monkeypatch.setitem(level13._REFLECTIONS, "delta2hat",
                            (level13.G3, ScalarPoly.const(-1)))
        with pytest.raises(ArithmeticError, match="not antidiagonal"):
            level13.tilde_g_check(4)
