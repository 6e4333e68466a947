#!/usr/bin/env python3
"""Print the numeric layer's results at full precision, for diffing.

    PYTHONPATH=src python3 tools/numeric_digest.py [FILE ...]

For each coefficient file (the format ``gamma13 eta`` writes) it prints
every ``run_formcheck`` row (or its budget error),
``certificate_residual_sweep`` over the f certificate of the file's level,
``eval_form`` (value and radius) and ``stroke_value`` at the same exact
point, ``cusp_decay_check``, which decides exactly from the carried
exponents and evaluates nothing, the verdict line or the error text of
``run_formcheck`` at each (precision, tolerance) pair in ``BUDGETS``, and
the stdout, stderr and exit code of ``gamma13 formcheck FILE --prec P`` for
each P in ``CLI_PRECS``: the report lines as printed, where a PASS bound
below 2^-P reads ``max_residual<2^-P``, so that a change of kernel or
sample points, which moves the full-precision digits of the ``row`` lines,
shows whether it moves a printed line too.  It ends with
the Fricke residuals of eta(z)^2 eta(13z)^2 on ``ax:H`` at
``FRICKE_POINTS_13`` for eps = -1 and +1 and its
``certificate_residual_sweep`` over every step of the level-13 f
certificate there for eps = -1, then with ``density_search``
on each request in ``DENSITY_REQUESTS`` as ``(m, n, error)``, and then
with the length and SHA-256 of the stdout of ``gamma13 eta`` for each
product in ``ETA_REQUESTS``, and then with the points ``suggest_points``
picks (or its error) for every axiom and step of the level-1 and
level-13 f certificates at each floor in ``FLOORS``, then with
``eval_form`` (value and radius) of each form in ``EVAL_FORMS`` at every
point of ``EVAL_XS`` x ``EVAL_YS`` and every precision in ``EVAL_PRECS``,
then at each point of ``REFUSED_POINTS``, whose coordinates are not ints or
Fractions, so that the evaluator refuses it.  Last, each file's default
``run_formcheck`` rows are printed once more.  The process keeps the
battery plans (each congruence's row, points, image records and q balls)
of its last eight (level, points, precision) triples, so with a file or
two this block runs on the plan the first block made, after the
``BUDGETS`` runs at other precisions, and it must repeat the first block.
Every ``mpf``/``mpc`` is printed as its ``repr`` at 256 bits, the default
``EvalConfig`` precision of the formcheck and Fricke calls, or at 1024 bits
in the ``eval_form`` section, whose precisions reach 1024.  The balls take
their precision from ``EvalConfig`` as an argument, and only lambda and
``density_search`` use mpmath's global precision (``density_search``
derives its own), so the ``repr`` precision moves no digit of a result.
Two trees agree digit for digit, and their ``eta`` files byte for byte,
exactly when the outputs of

    PYTHONPATH=old/src python3 tools/numeric_digest.py FILES > old.txt
    PYTHONPATH=new/src python3 tools/numeric_digest.py FILES > new.txt

are identical.  An exception is printed as one ``ERROR`` line and the
digest goes on.  It uses only the package's public API.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from fractions import Fraction
from pathlib import Path

from mpmath import mp

from gamma13 import cli, level13, numeric, qseries
from gamma13.exactnum import QuadElem

POINT = (Fraction(1, 3), Fraction(9, 10))
MATRIX = [[2, 1], [1, 1]]
ETA_REQUESTS = [("1:24", 0), ("1:24", 1), ("1:24", 512), ("1:24", 2048),
                ("1:8,2:8", 2048), ("2:16,1:-8", 2048), ("1:4,5:4", 2048),
                ("1:2,11:2", 2048)]


#: (precision, tolerance) pairs of ``run_formcheck``: on Delta at L = 512
#: each ends in a budget error, whose text rounds the radius and the
#: tolerance to 5 digits (a tolerance of 1e-9999 underflows a float, one
#: of 1.23456789e-16 rounds up in its fifth digit).
BUDGETS = ((1, "1e-15"), (20, "1e-15"), (40, "1e-400"),
           (30, "1.23456789e-16"), (8, "1e-9999"), (200, "1e-70"))


#: The ``--prec`` values of the CLI ``formcheck`` runs: at 20 bits the
#: default tolerance ends each level-1 battery in a budget error.
CLI_PRECS = ("20", "256", "512")


#: The floors ``suggest_points`` is asked to keep the points above; the
#: battery itself sets none.
FLOORS = (Fraction(3, 20), Fraction(1, 52))


#: Real parts of the ``eval_form`` points, with their labels.  At +-2^-300
#: and 3/2^400 the imaginary part of q = e^{2 pi i z} is about 2^-300 (or
#: 2^-400) times its real part; 10^6 + 1/3 is reduced mod 1 before q is
#: summed.
EVAL_XS = (("0", Fraction(0)), ("1/3", Fraction(1, 3)),
           ("2^-300", Fraction(1, 2 ** 300)),
           ("-2^-300", Fraction(-1, 2 ** 300)),
           ("3/2^400", Fraction(3, 2 ** 400)),
           ("10^6+1/3", 10 ** 6 + Fraction(1, 3)))
#: At Im z = 50, |q| < 2^-W up to 256 bits, so q is the ball (0, 0, 1).
EVAL_YS = (Fraction(1), Fraction(3, 20), Fraction(50))
EVAL_PRECS = (1, 2, 53, 256, 1024)
#: (label, point) pairs outside the evaluator's contract: a point of
#: Q(sqrt 13), Im z = (sqrt 13 - 3)/2, and a float one.
REFUSED_POINTS = (
    ("sqrt13", (QuadElem(Fraction(1, 7), Fraction(1, 7)),
                QuadElem(Fraction(-3, 2), Fraction(1, 2)))),
    ("float", (0.5, 1.0)))
#: (label, eta factors, weight, level, sign): Delta, and eta(z)^2 eta(13z)^2,
#: whose leading exponent 7/6 needs q^(7/6) besides q.
EVAL_FORMS = (("delta", [(1, 24)], 12, 1, 1),
              ("eta13", [(1, 2), (13, 2)], 2, 13, -1))


def _stretch_power(m: int, n: int):
    """Y^(2m + n*lambda) at 256 bits, Y = (2 + sqrt 13)/3."""
    with mp.workprec(256):
        y = (2 + mp.sqrt(13)) / 3
        return y ** (2 * m + n * numeric.lambda_compute())


#: (label, target, tolerance, bound): targets at 1e-12 (Y^4 is
#: STRETCH_BASE^4 in the field, and 0.570867 is the decimal near the
#: lattice value at n = 756115), one unreachable target, one bound of 0.
DENSITY_REQUESTS = [
    ("1", 1, Fraction(1, 10 ** 12), 10 ** 6),
    ("Y^4", numeric.STRETCH_BASE ** 4, Fraction(1, 10 ** 12), 10 ** 6),
    ("5", 5, Fraction(1, 10 ** 12), 10 ** 6),
    ("0.570867", Fraction("0.570867"), Fraction(1, 10 ** 12), 10 ** 6),
    ("Y^(2*344477+756115*lambda)", _stretch_power(344477, 756115),
     Fraction(1, 10 ** 12), 10 ** 6),
    ("5", 5, Fraction(1, 10 ** 40), 10 ** 6),
    ("5", 5, Fraction(1, 10 ** 3), 0),
]


def _show(label: str, compute) -> None:
    try:
        value = compute()
    except Exception as exc:  # the digest reports failures, it does not stop
        print(f"{label} ERROR {type(exc).__name__}: {exc}")
        return
    print(f"{label} {value!r}")


def _read(path: Path) -> qseries.FormData:
    return qseries.parse_coefficient_file(path.read_text(encoding="utf-8"))


def digest_rows(form: qseries.FormData) -> None:
    try:
        report = numeric.run_formcheck(form)
    except Exception as exc:
        print(f"formcheck ERROR {type(exc).__name__}: {exc}")
    else:
        for row in report.rows:
            print("row", *(repr(x) for x in row))
        print(f"formcheck ok={report.ok} max_residual={report.max_residual!r}")


def digest_file(path: Path) -> None:
    form = _read(path)
    print(f"== {path.name} k={form.weight} N={form.level} eps={form.sign} "
          f"L={form.series.length}")
    digest_rows(form)
    _show("sweep", lambda: numeric.certificate_residual_sweep(
        form, level13.build_f_certificate(form.level)))
    _show("eval_form", lambda: tuple(numeric.eval_form(form, POINT)))
    _show("stroke_value", lambda: numeric.stroke_value(form, MATRIX, POINT))
    _show("cusp", lambda: numeric.cusp_decay_check(form))
    for prec, tol in BUDGETS:
        cfg = numeric.EvalConfig(precision=prec)
        _show(f"formcheck prec={prec} tol={tol}",
              lambda: numeric.run_formcheck(form, cfg, Fraction(tol))
              .lines()[-1])
    for prec in CLI_PRECS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["formcheck", str(path), "--prec", prec])
        for stream, text in (("out", out), ("err", err)):
            for line in text.getvalue().splitlines():
                print(f"cli --prec {prec} {stream} {line}")
        print(f"cli --prec {prec} exit={code}")


def digest_fricke(length: int = 512) -> None:
    series = qseries.eta_product([(1, 2), (13, 2)], length)
    axiom = level13.f_context(13).axiom("ax:H")
    cfg = numeric.EvalConfig(points=numeric.FRICKE_POINTS_13)
    for sign in (-1, 1):
        form = numeric.FormData(series, 2, 13, sign)
        _show(f"fricke ax:H eps={sign:+d}",
              lambda: numeric.congruence_residual(form, axiom, cfg))
    # all 47 classes of the level-13 f certificate, delta2's included; the
    # form picks up e^{i pi/3} under z -> z + 1, so the residual is large:
    # it pins the digits of the geometry, not a congruence
    form = numeric.FormData(series, 2, 13, -1)
    _show("fricke sweep N=13 eps=-1",
          lambda: numeric.certificate_residual_sweep(
              form, level13.build_f_certificate(13), cfg))


def digest_density() -> None:
    for label, target, tol, bound in DENSITY_REQUESTS:
        def search():
            found = numeric.density_search(target, tol, bound)
            return found.m, found.n, found.error
        _show(f"density X={label} tol={float(tol):g} bound={bound}", search)


def digest_eta() -> None:
    for factors, length in ETA_REQUESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eta", factors, str(length)])
        data = out.getvalue().encode("utf-8")
        print(f"eta {factors} {length} exit={code} bytes={len(data)} "
              f"sha256={hashlib.sha256(data).hexdigest()}")


def digest_points() -> None:
    for level in (1, 13):
        certificate = level13.build_f_certificate(level)
        for congruence in (list(certificate.axioms)
                           + [step.result for step in certificate.steps]):
            for y_min in FLOORS:
                _show(f"points N={level} {congruence.id} y_min={y_min}",
                      lambda: numeric.suggest_points(congruence, y_min))


def digest_eval(length: int = 512) -> None:
    with mp.workprec(1024):
        for name, factors, weight, level, sign in EVAL_FORMS:
            form = numeric.FormData(qseries.eta_product(factors, length),
                                    weight, level, sign)
            for prec in EVAL_PRECS:
                cfg = numeric.EvalConfig(precision=prec)
                for y in EVAL_YS:
                    for label, x in EVAL_XS:
                        _show(f"eval_form {name} L={length} prec={prec} "
                              f"x={label} y={y}",
                              lambda: tuple(numeric.eval_form(form, (x, y),
                                                              cfg)))
            for label, z in REFUSED_POINTS:
                _show(f"eval_form {name} L={length} z={label}",
                      lambda: tuple(numeric.eval_form(form, z)))


def main(argv) -> int:
    # the balls take their precision as an argument; this only widens repr
    with mp.workprec(256):
        for name in argv:
            digest_file(Path(name))
        digest_fricke()
        digest_density()
    digest_eta()
    digest_points()
    digest_eval()
    with mp.workprec(256):
        for name in argv:
            print(f"== {Path(name).name} again")
            digest_rows(_read(Path(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
