#!/usr/bin/env python3
"""Diff both digests of this tree against those of a git revision.

    python3 tools/compare_trees.py REV

It extracts ``git archive REV src`` into a temporary directory, writes
Delta at L=512 with ``gamma13 eta 1:24 512``, and runs this tree's
``tools/exact_digest.py``, and ``tools/numeric_digest.py`` on that file,
once with REV's ``src`` and once with this tree's ``src`` on PYTHONPATH.
It first prints the line count of ``src/gamma13/*.py`` (as ``wc -l``
counts it) at REV and here.  For each digest it prints ``identical``, or
how many lines differ on each side, the first ``SHOWN`` lines of the
diff, and the ``@@`` header of every hunk past them, so the extent of a
change shows however many places it touches.  It exits 0 when both are
identical and 1 otherwise.  It uses only the standard library and git.

The numeric digest holds both the full-precision ``row`` lines and the
``cli --prec P`` lines, the report as ``formcheck`` prints it.  A change
of kernel or sample points moves the digits of the ``row`` lines; the
diff shows apart from them whether it moves a printed line as well.
"""

from __future__ import annotations

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: At most this many lines of a differing digest's diff are printed in
#: full; past them only the hunk headers are.
SHOWN = 12


def _run(src: Path, *argv: str) -> str:
    """The stdout of ``python3 argv`` with ``src`` as the package path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


def _lines(src: Path) -> int:
    """The newlines in ``src/gamma13/*.py``, the total ``wc -l`` prints."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "gamma13").glob("*.py"))


def _compare(name: str, old: str, new: str, rev: str) -> bool:
    if old == new:
        print(f"{name}: identical")
        return True
    diff = list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                     f"{name} at {rev}", f"{name} here",
                                     n=0, lineterm=""))
    body = diff[2:]  # past the ---/+++ file lines
    hunks = sum(line.startswith("@@") for line in body)
    removed = sum(line.startswith("-") for line in body)
    added = sum(line.startswith("+") for line in body)
    print(f"{name}: differs in {hunks} hunks, {removed} lines at {rev} and "
          f"{added} here")
    for line in diff[:SHOWN]:
        print(line)
    for line in diff[SHOWN:]:
        if line.startswith("@@"):
            print(line)
    return False


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: compare_trees.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    new_src = ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        old = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev,
                                  "src"], capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace").strip(),
                  file=sys.stderr)
            return 2
        # the "data" filter, where this Python has it, keeps every path
        # inside the directory
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, **safe)
        print(f"src/gamma13/*.py: {_lines(old / 'src')} lines at {rev}, "
              f"{_lines(new_src)} here")
        delta = old / "delta.txt"
        delta.write_text(_run(new_src, "-m", "gamma13", "eta", "1:24", "512"))
        digests = {"exact digest": ["exact_digest.py"],
                   "numeric digest": ["numeric_digest.py", str(delta)]}
        same = True
        for name, (script, *args) in digests.items():
            tool = [str(ROOT / "tools" / script), *args]
            same &= _compare(name, _run(old / "src", *tool),
                             _run(new_src, *tool), rev)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
