"""Every name a module or script imports is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in [*ROOT.glob("src/retarget_kit/*.py"), *ROOT.glob("scripts/*.py")]
    if p.name != "__init__.py"  # the package's imports are its public names
)


def unused_imports(source):
    """The names bound by the imports of `source` that no other line reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom numbers import Integral, Real as R\nR, os\n"
    assert unused_imports(source) == [(1, "math"), (3, "Integral")]
