"""Every name a package module imports is used in that module.

No linter ships with the toolchain, so this is the unused-import check
of one, written on ``ast``: an imported name counts as used when the
module refers to it anywhere as a bare name, the root of an attribute
chain included (``np`` in ``np.eye``).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "artinfib"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .domains import QQ, Domain\n"
              "def f(d: Domain):\n    return np.eye(2)\n")
    assert unused_imports(source) == [(3, "os"), (4, "QQ")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
