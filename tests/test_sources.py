"""Static checks on the package sources.

No linter is a dependency, so the two import rules the package keeps
are checked here by parsing each module: no unused imports, and no
module imports another module's underscore (private) name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sapa_rrm"
# __init__.py imports in order to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name the module never reads.

    Imports from __future__ and lines marked ``# noqa: F401`` are kept
    on purpose and not reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if (name not in read
                    and "# noqa: F401" not in lines[alias.lineno - 1]):
                unused.append((alias.lineno, name))
    return sorted(unused)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "from math import (\n"
              "    inf,\n"
              "    pi,  # noqa: F401  kept\n"
              "    tau,\n"
              ")\n"
              "import numpy as np\n"
              "x = tau * np.ones(1)\n")
    assert unused_imports(source) == [(2, "os"), (3, "os"), (5, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source):
    """(line, name) of each underscore name imported from the package.

    Dunder names such as __version__ are public.
    """
    return sorted(
        (alias.lineno, alias.name) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "sapa_rrm")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__"))


def test_checker_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .experiment import (\n"
              "    _atomic_write,\n"
              "    fmt_budget,\n"
              ")\n"
              "from sapa_rrm.qram import _hull_indices\n"
              "from . import __version__\n")
    assert private_imports(source) == [(4, "_atomic_write"),
                                       (7, "_hull_indices")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
