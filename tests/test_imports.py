"""Source hygiene: every name a package or test module imports, and every
private name such a module defines at module level, is used in that
module; the design game's rule stays in env."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "motorgame"
MODULES = sorted(SOURCE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))

# (module file, name) imported on purpose without being used: perfbench's
# traced run patches env.evaluate to count the environment's surrogate calls
UNUSED_ON_PURPOSE = {("env.py", "evaluate")}


def _names(tree: ast.Module, loaded_only: bool = False) -> set[str]:
    """The names the module's code spells, with those in its quoted
    annotations: a quoted annotation such as "BaseMachine" uses the names
    it spells.  With ``loaded_only``, only the names it reads."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [ast.parse(node.value, mode="eval") for node in annotations
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for root in (tree, *quoted) for node in ast.walk(root)
            if isinstance(node, ast.Name)
            and not (loaded_only and isinstance(node.ctx, ast.Store))}


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names(tree)
    unused = [f"{name} (line {line})" for name, line in imported.items()
              if name not in used and (path.name, name) not in UNUSED_ON_PURPOSE]
    assert unused == [], f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_private_module_name_is_used(path):
    """A module-level ``_name`` (function, class or assignment) is private
    to its module, so a helper that its callers left behind shows here, in
    a package module or a test module."""
    tree = ast.parse(path.read_text(), str(path))
    defined = {}  # private name -> line of its definition
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {name.id: node.lineno for target in targets
                        for name in ast.walk(target) if isinstance(name, ast.Name)}
    read = _names(tree, loaded_only=True)
    unused = [f"{name} (line {line})" for name, line in defined.items()
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unused == [], f"{path.name} defines but never uses: {', '.join(unused)}"


# the game's step rule and the lattice live in env; ppo plays them through
# env.EnvPool and env.walk
RULE_NAMES = {"move", "flags", "WIN_CODE", "FLAG_CODE_WEIGHTS", "FLAG_ROWS", "reward_table"}


def test_ppo_imports_no_step_rule():
    tree = ast.parse((SOURCE / "ppo.py").read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    leaked = sorted(f"{module}.{name}" for module, name in imported
                    if name in RULE_NAMES or module == "surrogate")
    assert leaked == [], f"ppo.py imports the game's rule: {', '.join(leaked)}"


def _spelled_outside(names: set[str], allowed: dict[str, set[str]]) -> list[str]:
    """``module: name`` for each of ``names`` that a package module spells,
    as a name, an attribute or an imported alias, unless ``allowed`` lets
    that module spell it."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        spelled = _names(tree) | {node.attr for node in ast.walk(tree)
                                  if isinstance(node, ast.Attribute)}
        spelled |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        found += [f"{path.name}: {name}"
                  for name in sorted(spelled & names - allowed.get(path.name, set()))]
    return found


def test_only_the_catalog_looks_up_a_start_index():
    """A machine holds its lattice shape and a variant its start index, so
    only catalog.py's loader turns a design into a lattice index, and no
    module spells the lattice_shape that the machine's shape replaced."""
    found = _spelled_outside({"lattice_index", "lattice_shape"},
                             {"catalog.py": {"lattice_index"}, "surrogate.py": {"lattice_index"}})
    assert found == [], f"lattice lookups outside the catalog: {', '.join(found)}"


def test_only_the_catalog_reads_the_step_sizes():
    """BaseMachine.axes holds the lattice values, so only the
    BaseMachine.__post_init__ that lays the axes out reads a machine's
    bounds or step sizes; every other module and function reads the axes."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        allowed = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and cls.name == "BaseMachine"
                   for method in cls.body if getattr(method, "name", "") == "__post_init__"
                   for node in ast.walk(method)}
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("bounds", "step_sizes")
                  and id(node) not in allowed]
    assert found == [], f"bounds or step sizes read outside BaseMachine: {', '.join(found)}"
