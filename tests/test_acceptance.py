"""End-to-end acceptance battery.

One test per acceptance criterion, each printing a single PASS/FAIL line;
the stretch-exponent criterion is split into its two halves (the defining
identity, and the quoted five-decimal value) so each half gets its own
verdict.
"""

import random
import time
from fractions import Fraction

from mpmath import mp, mpf

from gamma13.certificate import load_shipped_certificate, verify_certificate
from gamma13.exactnum import QuadElem
from gamma13.gamma0 import Word, decompose
from gamma13.level13 import (
    a_inverse,
    a_matrix,
    blowup_check,
    f_context,
    g3_class,
    h2_mat,
    h3_mat,
    h_class,
    tilde_g_check,
)
from gamma13.numeric import (
    FRICKE_POINTS_13,
    H3_EIGENVALUE,
    STRETCH_BASE,
    EvalConfig,
    FormData,
    congruence_residual,
    density_search,
    lambda_compute,
    run_formcheck,
)
from gamma13.projmat import ProjMat
from gamma13.qseries import eta_product, hecke_check

SQRT13 = QuadElem(Fraction(0), Fraction(1))
IDENTITY = ProjMat.of([[1, 0], [0, 1]])


def verdict(number: int, label: str, ok: bool) -> bool:
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def to_mpf(q: QuadElem) -> mpf:
    rat = mpf(q.a.numerator) / q.a.denominator
    irr = mpf(q.b.numerator) / q.b.denominator
    return rat + irr * mp.sqrt(13)


def test_shipped_certificates_replay_end_to_end_under_five_seconds():
    start = time.perf_counter()
    main = load_shipped_certificate("f")
    reflections = load_shipped_certificate("g")
    main_report = verify_certificate(main)
    reflection_report = verify_certificate(reflections)
    elapsed = time.perf_counter() - start
    covered = {step.id for step in main.steps}
    required = {"T2", "T3", "HT2", "HT3", "g2", "R3", "S3", "delta1",
                "H4", "H5", "H6", "H7", "delta3", "delta2"}
    relation_ids = {step.id for step in reflections.steps}
    ok = (main_report.ok and reflection_report.ok
          and required <= covered
          and {"threedeltas", "h2-sign", "h3-sign", "h-power-sign"}
          <= relation_ids
          and elapsed < 5.0)
    assert verdict(1, f"certificate replay ({elapsed:.2f}s)", ok)


def test_exact_matrix_identities_hold_with_zero_tolerance():
    H = h_class(13)
    p_inverse = ProjMat.of([[1, -1], [0, 1]])
    conjugation = (H * p_inverse * H) == ProjMat.of([[1, 0], [13, 1]])

    g3 = g3_class(13)
    order_three = g3 ** 3 == IDENTITY
    mixed = g3 ** -1 * ProjMat.of([[2, -1], [13, -6]])
    order_two = mixed * mixed == IDENTITY

    h2, h3 = h2_mat(), h3_mat()
    commuting = h2 * h3 == h3 * h2

    A, A_inv = a_matrix(), a_inverse()
    d2 = (A_inv * h2 * A).entries()
    d3 = (A_inv * h3 * A).entries()
    third = QuadElem(Fraction(1, 3), Fraction(0))
    sixth = QuadElem(Fraction(1, 6), Fraction(0))
    diagonal = (
        d2[1].is_zero and d2[2].is_zero and d3[1].is_zero and d3[2].is_zero
        and d2[0] == (QuadElem.of(-2) - SQRT13) * third
        and d2[3] == (QuadElem.of(2) - SQRT13) * third
        and d3[0] == (QuadElem.of(7) - SQRT13) * sixth
        and d3[3] == (QuadElem.of(7) + SQRT13) * sixth)

    ok = conjugation and order_three and order_two and commuting and diagonal
    assert verdict(2, "exact matrix identities", ok)


def test_stretch_exponent_satisfies_defining_identity_at_256_bits():
    lam = lambda_compute(EvalConfig(precision=256))
    with mp.workprec(256):
        error = abs(to_mpf(STRETCH_BASE) ** lam - to_mpf(H3_EIGENVALUE))
    ok = error < mpf(10) ** -50
    assert verdict(3, "stretch exponent defining identity", ok)


def test_stretch_exponent_matches_quoted_five_decimal_value():
    lam = lambda_compute()
    ok = f"{float(lam):.5f}" == "-0.91177"
    assert verdict(3, "stretch exponent quoted 5-decimal value", ok), (
        f"computed exponent {float(lam):.12f} rounds to {float(lam):.5f}")


def test_averaged_stretch_sum_blowup_orders():
    vanishing = blowup_check(-2)
    ok = vanishing.identically_zero
    for k in (2, 4, 6, 8):
        result = blowup_check(k)
        ok = ok and (not result.identically_zero
                     and result.pole_order == k // 2)
    assert verdict(4, "averaged stretch sum pole orders", ok)


def test_reflection_sign_pattern_by_weight():
    ok = (tilde_g_check(2) == (-1, -1, -1)
          and tilde_g_check(6) == (-1, -1, -1)
          and tilde_g_check(4) == (1, 1, 1)
          and tilde_g_check(8) == (1, 1, 1))
    assert verdict(5, "reflection sign pattern", ok)


def test_numeric_soundness_battery_under_thirty_seconds():
    start = time.perf_counter()
    discriminant = FormData(eta_product([(1, 24)], 512), 12, 1, 1)
    report = run_formcheck(discriminant)
    threshold = mpf(10) ** -15

    fricke = FormData(eta_product([(1, 2), (13, 2)], 512), 2, 13, -1)
    residual = congruence_residual(
        fricke, f_context(13).axiom("ax:H"),
        EvalConfig(points=FRICKE_POINTS_13))
    elapsed = time.perf_counter() - start
    ok = (report.ok and report.max_residual < threshold
          and residual < threshold and elapsed < 30.0)
    assert verdict(6, f"numeric soundness battery ({elapsed:.2f}s)", ok)


def test_hecke_recursion_and_stroke_identity_for_discriminant():
    series = eta_product([(1, 24)], 256)
    ok = series.coefficient(4) == -1472
    for p in (2, 3):
        ap = series.coefficient(p)
        # the stroke identity is the recursion times p^(1-k/2), so one
        # check settles both
        recursion = hecke_check(series, p, 12, ap)
        ok = ok and recursion.ok and recursion.failures == ()
    assert verdict(7, "Hecke recursion and stroke identity", ok)


def test_thousand_random_words_round_trip_through_decompose():
    rng = random.Random(813)
    names = ("P", "W", "g2", "g3")
    wrong = 0
    for _ in range(1000):
        letters = [(rng.choice(names), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 12))]
        target = Word.of(letters).evaluate()
        a, b, c, d = target.primitive_entries()
        recovered = decompose([[a, b], [c, d]])
        if recovered.evaluate() != target:
            wrong += 1
    ok = wrong == 0
    assert verdict(8, f"1000 word round trips ({wrong} wrong)", ok)


def test_hundred_random_density_targets_succeed():
    rng = random.Random(419)
    upper = float(to_mpf(STRETCH_BASE)) ** 2
    failures = 0
    with mp.workprec(256):
        base = to_mpf(STRETCH_BASE)
        lam = lambda_compute()
        for _ in range(100):
            target = rng.uniform(1.0, upper)
            try:
                found = density_search(target, 1e-3, 10 ** 6)
            except Exception:
                failures += 1
                continue
            error = abs(base ** (2 * found.m + found.n * lam) - target)
            if error > 1e-3:
                failures += 1
    ok = failures == 0
    assert verdict(9, f"100 density targets ({failures} failures)", ok)
