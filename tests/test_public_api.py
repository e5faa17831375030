"""The package's public names are exactly what its users import.

The demos and the README's Python examples are the documented users of
``sapa_rrm``; they are parsed, not run.
"""

import ast
import re
from pathlib import Path

import sapa_rrm

ROOT = Path(__file__).resolve().parents[1]


def documented_sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        yield f"README.md python block {i}", block


def package_imports(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "sapa_rrm"
            for alias in node.names}


def test_documented_imports_are_public():
    sources = dict(documented_sources())
    assert any(name.startswith("README.md") for name in sources)
    public = set(sapa_rrm.__all__)
    for name, source in sources.items():
        imported = package_imports(source)
        assert imported, f"{name} imports nothing from sapa_rrm"
        missing = imported - public
        assert not missing, f"{name} imports non-public {sorted(missing)}"


def test_every_public_name_resolves():
    for name in sapa_rrm.__all__:
        assert hasattr(sapa_rrm, name), name
