"""Import audit: every name a `qkdsim` module imports is used in it.

Exempt are `from __future__` imports, the package `__init__`'s imports
(its re-exports) and import lines marked `# noqa: F401`, which keep a
name on a module for the benchmark tracer to wrap. The audit reads only
`src/qkdsim`, standard library `ast`, nothing of `bench/`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkdsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_audit_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .quantum import Povm, QubitState\n"
        "from .usd import idp_povm  # noqa: F401\n"
        "def f(s: QubitState) -> float:\n"
        "    return math.pi\n"
    )
    assert _unused_imports(source) == ["os (line 3)", "Povm (line 4)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
