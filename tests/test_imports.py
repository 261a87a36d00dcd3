"""Every name a package module imports, every private name it defines
at module level, and every private method of its classes, is used in
that module.

No linter ships with the toolchain, so these are the unused-name checks
of one, written on ``ast``: a name counts as used when the module reads
it anywhere as a bare name, the root of an attribute chain included
(``np`` in ``np.eye``), or lists it in its ``__all__`` (so the
package's ``__init__`` is checked too), and a method when the module
reads it anywhere as an attribute (``self._settle``).  A private name
(one leading underscore) read only inside its own definition is not
used.

The package needs no third-party module at run time: a fresh
interpreter's ``import artinfib`` loads no numpy, so a numpy kernel
imports it inside the function that uses it.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "artinfib"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


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
    used.update(n.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .domains import QQ, Domain\n"
              "def f(d: Domain):\n    return np.eye(2)\n")
    assert unused_imports(source) == [(3, "os"), (4, "QQ")]


def test_checker_counts_names_in_all_as_used():
    source = ("from .domains import QQ, ZZ, Domain\n"
              "from .laurent import LaurentPoly\n"
              "__all__ = ['QQ', 'LaurentPoly']\n"
              "def f(d: Domain):\n    return d\n")
    assert unused_imports(source) == [(1, "ZZ")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_privates(source: str) -> list:
    """(line, name) of each private module-level function, class or
    assigned name that ``source`` reads nowhere outside its definition."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node
    return sorted(
        (node.lineno, name) for name, node in defined.items()
        if not any(isinstance(n, ast.Name) and n.id == name
                   and isinstance(n.ctx, ast.Load)
                   for top in tree.body if top is not node
                   for n in ast.walk(top)))


def test_checker_sees_unused_privates():
    source = ("_USED = 1\n_DEAD: int = 2\nPUBLIC = 3\n__version__ = '0'\n"
              "def _helper():\n    return _USED\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Dead:\n    pass\n"
              "def f():\n    return _helper()\n")
    assert unused_privates(source) == [(2, "_DEAD"), (7, "_recursive"),
                                       (9, "_Dead")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_privates(path):
    assert unused_privates(path.read_text()) == []


def unused_private_methods(source: str) -> list:
    """(line, "Class._name") of each private method of a module-level
    class that ``source`` reads as an attribute nowhere outside the
    method itself."""
    tree = ast.parse(source)
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (not isinstance(node, ast.FunctionDef)
                    or not node.name.startswith("_")
                    or node.name.startswith("__")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(isinstance(n, ast.Attribute) and n.attr == node.name
                       and isinstance(n.ctx, ast.Load) and id(n) not in inside
                       for n in ast.walk(tree)):
                out.append((node.lineno, f"{cls.name}.{node.name}"))
    return sorted(out)


def test_checker_sees_unused_private_methods():
    source = ("class Poly:\n"
              "    def _used(self):\n        return 1\n"
              "    def _dead(self):\n        return self._used()\n"
              "    def _recursive(self):\n        return self._recursive()\n"
              "    def __len__(self):\n        return 0\n"
              "    def public(self):\n        return self._used()\n"
              "def _helper(p):\n    return p._used\n")
    assert unused_private_methods(source) == [(4, "Poly._dead"),
                                              (6, "Poly._recursive")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_methods(path):
    assert unused_private_methods(path.read_text()) == []


def test_import_loads_no_numpy():
    # every submodule, the CLI included, comes in with the package
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, artinfib; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'numpy'))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
