#!/usr/bin/env python3
"""Print the exact layer's results as text, for diffing.

    PYTHONPATH=src python3 tools/exact_digest.py

It prints the stdout, stderr and exit code of ``gamma13 verify`` on both
shipped certificates and on copies of f with exactly one fault each (a
tampered factor, a foreign square root, an exponent past the cap, a wrong
argument count, a dangling reference, an unknown rule, a ``TRANS`` whose
middle terms differ, a matrix malformed where an earlier step has it well
formed, an entry fault in a matrix token, and, for the first step of each
rule, a claim with one more term on its lhs), the exit code and first stderr line of three inputs nested past
the parsers' depth (a JSON file of 100000 ``[``, f with ax:P's lhs
in 5000 parentheses, ``decompose`` of an entry behind 3000 minus signs),
the JSON of ``build_f_certificate`` at levels 1, 2, 5, 7, 11, 13 and 26 and
of ``build_g_certificate``, and ``lhs - rhs`` of every step of f.  Last
comes the stdout, stderr and exit code of ``gamma13 decompose`` on the
README example, P^200000 and W^200000, a member outside the subgroup the
generators make, a non-member, each generator and its inverse, and 50
seeded members of length 0-24, so that two trees' spellings can be diffed.
It ends with the rest of the exact bench workload: the stdout, stderr and
exit code of ``gamma13 asym k`` for every k from -2 to 16 and for k = +-32,
+-64, +-128, where the negative weights evaluate the averaged sum at the
most points, and +-130 (130 answers, -130 is refused by the bound
k >= -128); ``tilde_g_check(k)`` for every even k with |k| <= 18, its
result or its exception's type and message; and both congruences of
``sign_exponent_check(m, n)`` for every |m|, |n| <= 8, the whole range it
accepts.  Two trees agree on every
certificate text, report line,
word and diagnostic exactly when the outputs of

    PYTHONPATH=old/src python3 tools/exact_digest.py > old.txt
    PYTHONPATH=new/src python3 tools/exact_digest.py > new.txt

are identical.  It uses only the package's public API, and reads the
bundled f through ``certificate_from_json`` so that it runs on older trees
too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from importlib import resources
from pathlib import Path

from gamma13 import certificate, cli, level13
from gamma13.gamma0 import GENERATORS, Word

#: Copies of f with one fault each: (label, step id, field, new value).
#: The first, a new RIGHT_MUL factor, makes the claimed sides disagree with
#: the recomputation in four terms while later steps still run.
FAULTS = [
    ("hpinv.a factor [[1,-2],[0,1]]", "hpinv.a", "args",
     ["H", "[[1,-2],[0,1]]"]),
    ("pinv.a factor sqrt(5)*[[1,-1],[0,1]]", "pinv.a", "args",
     ["P", "sqrt(5)*[[1,-1],[0,1]]"]),
    ("w.d scalar a3^70000", "w.d", "args", ["w.c", "a3^70000"]),
    ("pinv.a with three args", "pinv.a", "args",
     ["P", "[[1,-1],[0,1]]", "[[1,-1],[0,1]]"]),
    ("H citing an unknown id", "H", "args", ["nope"]),
    ("P under an unknown rule", "P", "rule", "FROBNICATE"),
    ("w.c chaining H before w.b", "w.c", "args", ["H", "w.b"]),
    ("Pinv lhs [[1,-1],[0,1]]], well formed in pinv.a", "Pinv", "result",
     {"lhs": "[[1,-1],[0,1]]]", "rhs": "1"}),
    ("Pinv lhs with an entry fault behind a prefix", "Pinv", "result",
     {"lhs": "a2*[[1,-1],[0, 7/ 0]]", "rhs": "1"}),
    ("Pinv lhs [[1,-1],[0,1 3]], [[1,-1],[0,13]] parsed before", "Pinv",
     "result", {"lhs": "[[1,-1],[0,13]] - [[1,-1],[0,1 3]]", "rhs": "1"}),
]

#: The term each tampered claim adds to its lhs.
EXTRA_TERM = " + [[1,1],[0,1]]"


#: decompose inputs other than the generators and the seeded members: the
#: README example, P^200000, W^200000, a member that stalls (it lies outside
#: <P, W, g2, g3>) and a non-member.
DECOMPOSE = ["[[-9,4],[-52,23]]", "[[1,200000],[0,1]]", "[[1,0],[2600000,1]]",
             "[[8,-5],[13,-8]]", "[[1,0],[1,1]]"]


#: The weights and word exponents of the exact bench's other commands.
ASYM_WEIGHTS = (-130, -128, -64, -32, *range(-2, 17), 32, 64, 128, 130)
TILDE_WEIGHTS = range(-18, 19, 2)
SIGN_EXPONENTS = range(-8, 9)


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out, err


def _run(label: str, argv) -> None:
    code, out, err = _capture(argv)
    print(f"== {label} exit={code}")
    print("-- stdout")
    print(out.getvalue(), end="")
    print("-- stderr")
    print(err.getvalue(), end="")


def _verify(label: str, argv) -> None:
    _run(f"verify {label}", ["verify", *argv])


def _decompose_inputs():
    rng = random.Random(16)
    members = [Word.of([(rng.choice(tuple(GENERATORS)), rng.choice((1, -1)))
                        for _ in range(i % 25)]).evaluate() for i in range(50)]
    return (DECOMPOSE
            + [str(m) for gen in GENERATORS.values() for m in (gen, gen.inv())]
            + [str(m) for m in members])


def _shipped_f() -> certificate.Certificate:
    text = (resources.files("gamma13") / "data" / "level13_f.json"
            ).read_text(encoding="utf-8")
    return certificate.certificate_from_json(text)


def _faulty_f(step_id: str, field: str, value) -> str:
    doc = json.loads(certificate.certificate_to_json(_shipped_f()))
    next(s for s in doc["axioms"] + doc["steps"]
         if s["id"] == step_id)[field] = value
    return json.dumps(doc, indent=1)


def _deep(tmp: Path) -> None:
    """Inputs nested past the parsers' depth: each exits 2 with one line."""
    deep_json, deep_f = tmp / "deep.json", tmp / "deep_f.json"
    deep_json.write_text("[" * 100000, encoding="utf-8")
    deep_f.write_text(_faulty_f("ax:P", "lhs", "(" * 5000 + "1" + ")" * 5000),
                      encoding="utf-8")
    for label, argv in [
            ("verify a JSON file of 100000 '['", ["verify", str(deep_json)]),
            ("verify f with ax:P lhs in 5000 parentheses",
             ["verify", str(deep_f)]),
            ("decompose an entry behind 3000 minus signs",
             ["decompose", "[[" + "-" * 3000 + "1,0],[0,1]]"])]:
        code, _, err = _capture(argv)
        print(f"== {label} exit={code}")
        print(err.getvalue().partition("\n")[0])


def main() -> int:
    _verify("f", [])
    _verify("g", ["--context", "g"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "faulty_f.json"
        for label, step_id, field, value in FAULTS:
            path.write_text(_faulty_f(step_id, field, value), encoding="utf-8")
            _verify(f"f with {label}", [str(path)])
        first = {}
        for step in _shipped_f().steps:
            first.setdefault(step.rule, step)
        for rule, step in sorted(first.items()):
            result = {"lhs": str(step.result.lhs) + EXTRA_TERM,
                      "rhs": str(step.result.rhs)}
            path.write_text(_faulty_f(step.id, "result", result),
                            encoding="utf-8")
            _verify(f"f with the {rule} step {step.id} tampered", [str(path)])
        _deep(Path(tmp))
    for level in (1, 2, 5, 7, 11, 13, 26):
        print(f"== build_f_certificate({level})")
        print(certificate.certificate_to_json(
            level13.build_f_certificate(level)))
    print("== build_g_certificate()")
    print(certificate.certificate_to_json(level13.build_g_certificate()))
    print("== f step differences")
    for step in _shipped_f().steps:
        print(f"{step.id} {step.result.lhs - step.result.rhs}")
    for matrix in _decompose_inputs():
        _run(f"decompose {matrix}", ["decompose", matrix])
    for k in ASYM_WEIGHTS:
        _run(f"asym {k}", ["asym", str(k)])
    for k in TILDE_WEIGHTS:
        try:
            result = level13.tilde_g_check(k)
        except ValueError as exc:  # a weight past an older tree's cap
            result = f"{type(exc).__name__}: {exc}"
        print(f"== tilde_g_check({k}) {result}")
    for m in SIGN_EXPONENTS:
        for n in SIGN_EXPONENTS:
            check = level13.sign_exponent_check(m, n)
            print(f"== sign_exponent_check({m},{n})")
            print(check.power_sign)
            print(check.even_power)
    return 0


if __name__ == "__main__":
    sys.exit(main())
