"""Static checks on the package source: no unused imports.

No linter ships with the test toolchain, so this walks the syntax tree with
the standard-library ``ast`` module.  Package ``__init__`` modules are
skipped: their imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "privustat"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def used_names(tree: ast.AST) -> set:
    """Every bare name the code reads, including names inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"line {node.lineno}: {name}" for name in bound if name not in used]
    return unused


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom math import inf, log\n"
        "from typing import Optional\n"
        "def f(x: 'Optional[int]') -> float:\n    return log(x)\n"
    )
    assert unused_imports(source) == ["line 2: np", "line 3: os", "line 4: inf"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
