"""Source hygiene: every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "motorgame"

# (module file, name) imported on purpose without being used: perfbench's
# traced run patches env.evaluate to count the environment's surrogate calls
UNUSED_ON_PURPOSE = {("env.py", "evaluate")}


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # a quoted annotation such as "BaseMachine" uses the names it spells
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [ast.parse(node.value, mode="eval") for node in annotations
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for root in (tree, *quoted) for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported.items()
              if name not in used and (path.name, name) not in UNUSED_ON_PURPOSE]
    assert unused == [], f"{path.name} imports but never uses: {', '.join(unused)}"
