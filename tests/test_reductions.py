"""No package module calls numpy's reduction functions where an array method
would do.

``np.max(a)`` and ``a.max()`` run the same ``ufunc.reduce``, so their bits
agree, but the function first passes through numpy's Python-level
``_wrapreduction`` and its keyword dict: on a small array it costs about
twice the method, and ``verify`` of the reference corpus made some 18,600
such calls before they became methods.  The guard reads each module with
AST and reports each call of ``max``, ``min``, ``all``, ``any`` or ``sum`` on
the name numpy is imported as.  A call whose argument is not an array (a
list or a tuple) may stay: ``ALLOWED`` names it by module and call text,
with its reason, and an entry that names no call fails.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "centrelat"
MODULES = sorted(SRC.glob("*.py"))
REDUCTIONS = {"max", "min", "all", "any", "sum"}

#: Reduction calls that stay, as "module: call text", with why their argument is no array.
ALLOWED: dict[str, str] = {}


def reduction_calls(source: str) -> list[str]:
    """The text of each numpy reduction function call in ``source``, in source order."""
    tree = ast.parse(source)
    numpy = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in REDUCTIONS and isinstance(node.func.value, ast.Name)
             and node.func.value.id in numpy]
    return [ast.unparse(node) for node in sorted(calls, key=lambda n: (n.lineno, n.col_offset))]


def _found() -> set[str]:
    return {f"{path.stem}: {call}" for path in MODULES
            for call in reduction_calls(path.read_text())}


def test_guard_finds_a_reduction_call():
    source = ("import numpy as np\n\ndef f(a):\n"
              "    return np.max(np.abs(a), axis=0) + np.sum(a > 0)\n")
    assert reduction_calls(source) == ["np.max(np.abs(a), axis=0)", "np.sum(a > 0)"]
    assert reduction_calls("import numpy\nnumpy.any(x)\n") == ["numpy.any(x)"]
    # the method form, numpy's other functions and another module's max are not reported
    assert reduction_calls("import numpy as np\nimport math\n"
                           "a.max()\nnp.maximum(a, b)\nnp.abs(a).all()\nmath.max(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_reduction_function_calls(path):
    found = {f"{path.stem}: {call}" for call in reduction_calls(path.read_text())}
    assert sorted(found - set(ALLOWED)) == []


def test_every_allowlist_entry_names_a_call():
    assert sorted(set(ALLOWED) - _found()) == []
