"""Every name a package module, test or demo imports is used in that file.

Deleting code can leave an import behind with nothing to read it; this guard
reports such orphans.  The package's ``__init__.py`` is skipped, since it
imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "centrelat").glob("*.py") if p.name != "__init__.py")
FILES = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation, such as -> "CentralOperator", names its type in a string
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_finds_an_unused_import():
    source = "import json\nfrom typing import Any, Optional\n\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["line 1: json", "line 2: Any"]
    assert unused_imports('from a import B\n\ndef f() -> "B":\n    pass\n') == []
    # a name in an ordinary string is not a use
    assert unused_imports('from a import B\n\nx = "B"\n') == ["line 1: B"]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
