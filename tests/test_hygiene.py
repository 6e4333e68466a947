"""Source hygiene: every module of the package, the tests and the tools uses
each name it imports.

A name counts as used when it is read anywhere in the module, as a plain
name or as the base of an attribute.  ``from __future__`` imports bind
nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/gamma13", "tests", "tools")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str):
    """The names that ``source`` imports and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_names_and_skips_future():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from math import pi, tau\n"
              "print(os.sep, tau)\n")
    assert unused_imports(source) == ["regex", "pi"]
