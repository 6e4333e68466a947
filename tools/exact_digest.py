#!/usr/bin/env python3
"""Print the exact layer's results as text, for diffing.

    PYTHONPATH=src python3 tools/exact_digest.py

It prints the stdout, stderr and exit code of ``gamma13 verify`` on both
shipped certificates and on a copy of f with one tampered step, the JSON
of ``build_f_certificate`` at levels 1, 7 and 13 and of
``build_g_certificate``, and ``lhs - rhs`` of every step of f.  Two trees
agree on every certificate text, report line and diagnostic exactly when
the outputs of

    PYTHONPATH=old/src python3 tools/exact_digest.py > old.txt
    PYTHONPATH=new/src python3 tools/exact_digest.py > new.txt

are identical.  It uses only the package's public API.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from gamma13 import certificate, cli, level13

#: The tampered step and its new RIGHT_MUL factor: its claimed sides then
#: disagree with the recomputation in four terms, and later steps still run.
TAMPER_STEP, TAMPER_FACTOR = "hpinv.a", "[[1,-2],[0,1]]"


def _verify(label: str, argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", *argv])
    print(f"== verify {label} exit={code}")
    print("-- stdout")
    print(out.getvalue(), end="")
    print("-- stderr")
    print(err.getvalue(), end="")


def _tampered_f() -> str:
    doc = json.loads(certificate.certificate_to_json(
        level13.load_shipped_certificate("f")))
    step = next(s for s in doc["steps"] if s["id"] == TAMPER_STEP)
    step["args"][1] = TAMPER_FACTOR
    return json.dumps(doc, indent=1)


def main() -> int:
    _verify("f", [])
    _verify("g", ["--context", "g"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tampered_f.json"
        path.write_text(_tampered_f(), encoding="utf-8")
        _verify(f"f with {TAMPER_STEP} factor {TAMPER_FACTOR}", [str(path)])
    for level in (1, 7, 13):
        print(f"== build_f_certificate({level})")
        print(certificate.certificate_to_json(
            level13.build_f_certificate(level)))
    print("== build_g_certificate()")
    print(certificate.certificate_to_json(level13.build_g_certificate()))
    print("== f step differences")
    for step in level13.load_shipped_certificate("f").steps:
        print(f"{step.id} {step.result.lhs - step.result.rhs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
