"""Layer kernels timed on fixed operands.

Each kernel is one call into one layer with operands that do not depend on
the workload or the seed, so its time moves only when that layer's code
does.  Each time is the fastest of several batches of calls: on a shared
machine interference only ever adds time.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict

import oracle
from gamma13 import (certificate, exactnum, gamma0, groupring, level13,
                     numeric, projmat, qseries)


def _best_call(fn: Callable[[], object], repeats: int, inner: int = 1) -> float:
    """Fewest seconds per call over ``repeats`` batches of ``inner`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return min(samples)


def _checks_per_step() -> float:
    """Step checks made while building the f certificate, per step built."""
    original = certificate._check_step
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    certificate._check_step = counting
    try:
        cert = level13.build_f_certificate(13)
    finally:
        certificate._check_step = original
    return calls / len(cert.steps)


def run(root: Path) -> Dict[str, float]:
    us, ms = 1e6, 1e3
    a = exactnum.QuadElem(Fraction(2, 3), Fraction(1, 3))
    b = exactnum.QuadElem(Fraction(7, 6), Fraction(-1, 6))
    diff = a - b
    g2 = projmat.ProjMat.of([[2, -1], [13, -6]])
    g3 = projmat.ProjMat.of([[3, -1], [13, -4]])
    t2 = groupring.RingElem.parse("[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]]")
    shipped_f = (root / "src" / "gamma13" / "data" / "level13_f.json").read_text(
        encoding="utf-8")
    cert_f = certificate.certificate_from_json(shipped_f)
    # The level-1 chain is the one formcheck runs on Delta.
    delta1 = next(s.result for s in level13.build_f_certificate(1).steps
                  if s.id == "delta1")
    delta = oracle.delta_coeffs(2048)
    forms = {L: numeric.FormData(qseries.QSeries(1, delta[: L + 1]), 12, 1, 1)
             for L in (512, 2048)}
    text_2048 = oracle.coefficient_file(delta, 12, 1, 1)
    point = (Fraction(1, 3), Fraction(9, 10))
    cfg = numeric.EvalConfig(precision=256)
    member = [[-9, 4], [-52, 23]]

    return {
        "exactnum.quad_mul_us": us * _best_call(lambda: a * b, 15, 200),
        "exactnum.quad_add_us": us * _best_call(lambda: a + b, 15, 200),
        "exactnum.quad_sign_us": us * _best_call(diff.sign, 15, 200),
        "projmat.mul_us": us * _best_call(lambda: g2 * g3, 15, 50),
        "projmat.of_us": us * _best_call(
            lambda: projmat.ProjMat.of([[2, -1], [13, -6]]), 15, 50),
        "groupring.t2_sq_ms": ms * _best_call(lambda: t2 * t2, 7),
        "certificate.from_json_ms": ms * _best_call(
            lambda: certificate.certificate_from_json(shipped_f), 5),
        "certificate.replay_f_ms": ms * _best_call(
            lambda: certificate.verify_certificate(cert_f), 5),
        "level13.build_f_ms": ms * _best_call(
            lambda: level13.build_f_certificate(13), 5),
        "level13.step_checks_per_step": _checks_per_step(),
        "level13.blowup_ms": ms * _best_call(lambda: level13.blowup_check(8), 7),
        "gamma0.is_member_us": us * _best_call(
            lambda: gamma0.is_member(member), 15, 20),
        "qseries.eta_2048_ms": ms * _best_call(
            lambda: qseries.eta_product([(1, 24)], 2048), 3),
        "qseries.hecke_ms": ms * _best_call(
            lambda: qseries.hecke_check(forms[512].series, 2, 12, -24), 7),
        "qseries.parse_file_ms": ms * _best_call(
            lambda: qseries.parse_coefficient_file(text_2048), 5),
        "numeric.eval_form_512_ms": ms * _best_call(
            lambda: numeric.eval_form(forms[512], point, cfg), 7),
        "numeric.eval_form_2048_ms": ms * _best_call(
            lambda: numeric.eval_form(forms[2048], point, cfg), 7),
        "numeric.suggest_points_ms": ms * _best_call(
            lambda: numeric.suggest_points(delta1, Fraction(3, 20)), 5),
        "numeric.cusp_ms": ms * _best_call(
            lambda: numeric.cusp_decay_check(forms[512]), 5),
        "numeric.density_search_us": us * _best_call(
            lambda: numeric.density_search(2.0, 1e-3, 10 ** 6), 15, 5),
    }
