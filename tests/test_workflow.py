"""Every test that the CI workflow names by node id exists.

A workflow step that names ``tests/<file>.py::<name>`` fails only on CI once
that test is renamed or deleted, so the names are read here, with AST, from
the test files.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_workflow_node_ids_name_existing_test_functions():
    named = re.findall(r"tests/(\w+\.py)::(\w+)", WORKFLOW.read_text())
    assert named, "the workflow names no test by node id"
    missing = []
    for file, name in named:
        tree = ast.parse((ROOT / "tests" / file).read_text())
        tests = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}
        if name not in tests:
            missing.append(f"tests/{file}::{name}")
    assert missing == []
