"""Command-line surface for the verification engine.

Subcommands: ``verify`` (replay a congruence certificate), ``formcheck``
(numeric battery against a coefficient file), ``decompose`` (write a
Gamma0(13) matrix as a word in the generators), ``density`` (realize a
target as a power-lattice value), ``asym`` (pole/vanishing verdict of the
averaged stretch sum), ``eta`` (print an eta-product coefficient file).

Exit codes: 0 all requested checks passed, 1 a verification failed,
2 input or usage error, or a stdout whose reader has gone (reported
quietly).  Reports go to stdout, diagnostics to stderr.
``formcheck`` runs on the checked form ``parse_coefficient_file`` returns,
at the working precision --prec alone sets.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import List, Optional

from .gamma0 import DecompositionError, decompose

PASS, FAIL, USAGE = 0, 1, 2


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return FAIL


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return USAGE


def cmd_verify(args: argparse.Namespace) -> int:
    # each command imports the layers it uses, so a start loads no others
    from .certificate import (CertificateError, certificate_from_json,
                              load_shipped_certificate, verify_certificate)
    try:
        if args.path is None:
            cert = load_shipped_certificate(args.context)
        else:
            with open(args.path, encoding="utf-8") as handle:
                cert = certificate_from_json(handle.read())
        report = verify_certificate(cert)
    except UnicodeDecodeError as exc:
        return _usage(f"{args.path} is not UTF-8 text: {exc}")
    except (OSError, CertificateError) as exc:
        return _usage(str(exc))
    text = report.render() + "\n"
    print(text, end="")
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _usage(str(exc))
    if report.ok:
        return PASS
    for line in report.diagnostics():
        print(line, file=sys.stderr)
    return FAIL


def _positive_number(text: str, name: str) -> Fraction:
    """``text`` read exactly: rounding it could turn a tiny number into 0."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if not (value.is_finite() and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {text}")
    if abs(value.adjusted()) > 9999:  # Fraction builds 10^|exponent| exactly
        raise ValueError(f"{name} must lie between 1e-9999 and 1e9999, "
                         f"got {text}")
    return Fraction(value)


def cmd_formcheck(args: argparse.Namespace) -> int:
    from .numeric import EvalConfig, PrecisionError, run_formcheck
    from .qseries import parse_coefficient_file
    try:
        with open(args.path, encoding="utf-8") as handle:
            form = parse_coefficient_file(handle.read())
    except (OSError, ValueError) as exc:
        return _usage(str(exc))
    for flag, header_value in (("k", form.weight), ("N", form.level),
                               ("eps", form.sign)):
        given = getattr(args, flag)
        if given is not None and given != header_value:
            return _usage(f"--{flag}={given} contradicts the file header "
                          f"({flag}={header_value})")
    if args.prec < 1:
        return _usage(f"--prec must be at least 1 bit, got {args.prec}")
    try:
        tol = _positive_number(args.tol, "--tol")
        cfg = EvalConfig(precision=args.prec)
        report = run_formcheck(form, cfg, residual_tol=tol)
    except (ValueError, PrecisionError) as exc:
        return _usage(str(exc))
    print("\n".join(report.lines()))
    return PASS if report.ok else FAIL


def cmd_decompose(args: argparse.Namespace) -> int:
    try:
        rows = ast.literal_eval(args.matrix)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("expected a 2x2 matrix")
        m = [list(row) for row in rows]
        for i, row in enumerate(m, 1):
            for j, x in enumerate(row, 1):
                # bool is an int subclass; floats must not be truncated
                if type(x) is not int:
                    raise ValueError(f"entry ({i},{j}) is {x!r}, "
                                     f"not an integer")
    except (ValueError, TypeError, SyntaxError) as exc:
        return _usage(f"bad matrix {args.matrix!r}: {exc}")
    except (RecursionError, MemoryError):  # the parser's stack limit
        return _usage(f"bad matrix {args.matrix!r}: nested too deeply")
    try:
        word = decompose(m)
    except ValueError:
        return _fail(f"{args.matrix} is not in Gamma0(13)")
    except DecompositionError as exc:
        return _fail(str(exc))
    print(str(word) or "1")
    return PASS


def cmd_density(args: argparse.Namespace) -> int:
    from mpmath import mp

    from .numeric import DensityError, density_search
    try:
        result = density_search(_positive_number(args.X, "the target"),
                                 _positive_number(args.tol, "the tolerance"),
                                 args.bound)
    except ValueError as exc:
        return _usage(str(exc))
    except DensityError as exc:
        return _fail(str(exc))
    err = "0" if result.error == 0 else mp.nstr(result.error, 3)
    print(f"(m,n)=({result.m},{result.n}) err={err}")
    return PASS


def cmd_asym(args: argparse.Namespace) -> int:
    from .level13 import blowup_check
    try:
        result = blowup_check(args.k)
    except ValueError as exc:
        return _usage(str(exc))
    if result.identically_zero:
        print("IDENTICALLY ZERO")
    else:
        print(f"POLE ORDER {result.pole_order} - NONZERO")
    return PASS


def cmd_eta(args: argparse.Namespace) -> int:
    from .qseries import (coefficient_file_offset, eta_offset, eta_product,
                          format_coefficient_file)
    try:
        pairs = []
        for chunk in args.factors.split(","):
            mult, _, power = chunk.partition(":")
            pairs.append((int(mult), int(power)))
        weight = Fraction(sum(r for _, r in pairs), 2)
        if weight.denominator != 1 or weight <= 0 or weight % 2:
            raise ValueError(f"the exponents give weight {weight}, "
                             f"which is not a positive even integer")
        if args.length < 0:
            raise ValueError("truncation length must be nonnegative")
        offset = eta_offset(pairs)
    except ValueError as exc:
        return _usage(f"bad eta product request: {exc}")
    # refuse an unwritable expansion before computing it
    try:
        coefficient_file_offset(offset)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        series = eta_product(pairs, args.length)
    except (MemoryError, OverflowError):  # no list of L + 1 entries fits
        return _usage(f"bad eta product request: truncation length "
                      f"{args.length} is too large")
    exponents = {}
    for m, r in pairs:
        exponents[m] = exponents.get(m, 0) + r
    level = max((m for m, r in exponents.items() if r), default=1)
    # eta(-1/z) = sqrt(z/i) eta(z) gives f|H = (-1)^(k/2) f when the
    # exponents are symmetric under m <-> N/m; otherwise +1 is a placeholder
    # that ax:H tests
    symmetric = all(level % m == 0 and exponents.get(level // m) == r
                    for m, r in exponents.items() if r)
    sign = -1 if symmetric and weight % 4 else 1
    print(format_coefficient_file(series, int(weight), level, sign), end="")
    return PASS


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own hides a failed write from main; subparsers inherit it
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gamma13",
        description="Exact and numeric verification for weight-k congruences "
                    "on Gamma0(13).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="replay a congruence certificate")
    p.add_argument("path", nargs="?", default=None,
                   help="certificate JSON (default: the bundled one)")
    p.add_argument("--context", choices=("f", "g"), default="f",
                   help="which bundled certificate to use (default: f)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="also write the report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("formcheck",
                       help="numeric battery against a coefficient file")
    p.add_argument("path", help="coefficient file ('# k=.. N=.. eps=..' header)")
    p.add_argument("--k", type=int, default=None,
                   help="expected weight (default: from the header)")
    p.add_argument("--N", type=int, default=None,
                   help="expected level (default: from the header)")
    p.add_argument("--eps", type=int, choices=(1, -1), default=None,
                   help="expected inversion sign (default: from the header)")
    p.add_argument("--prec", type=int, default=256,
                   help="working precision in bits, at least 1 "
                        "(default: 256)")
    p.add_argument("--tol", default="1e-15",
                   help="the one tolerance, read exactly: bounds below it "
                        "pass, radii reaching it exit 2 (default: 1e-15)")
    p.set_defaults(func=cmd_formcheck)

    p = sub.add_parser("decompose",
                       help="write a Gamma0(13) matrix as a generator word")
    p.add_argument("matrix", help="integer matrix, e.g. '[[1,1],[0,1]]'")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("density",
                       help="realize a target as a power-lattice value")
    p.add_argument("X", help="positive target, read exactly")
    p.add_argument("tol", help="admissible absolute error, read exactly")
    p.add_argument("--bound", type=int, default=10 ** 6,
                   help="cap on |m| and |n| (default: 1000000)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("asym",
                       help="pole/vanishing verdict of the averaged stretch sum")
    p.add_argument("k", type=int, help="nonzero even weight, k >= -128")
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("eta", help="print an eta-product coefficient file")
    p.add_argument("factors", help="comma-separated multiplier:exponent pairs, "
                                "e.g. '1:24'")
    p.add_argument("length", type=int, help="truncation length")
    p.set_defaults(func=cmd_eta)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error
            code = USAGE if exc.code else PASS
        else:
            code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away, so no verdict reached it.  Output
        # still buffered would fail again at exit: send it to os.devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
