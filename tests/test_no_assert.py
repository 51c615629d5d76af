"""No package module uses an ``assert`` statement.

``python -O`` strips assert statements, so a check written as one does not
run there.  A check that must hold raises an exception of its own.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "centrelat"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_guard_finds_an_assert():
    assert assert_lines("x = 1\n\ndef f():\n    assert x, 'no'\n") == [4]
    # raising AssertionError is a check that -O keeps
    assert assert_lines("def f():\n    raise AssertionError('no')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []
