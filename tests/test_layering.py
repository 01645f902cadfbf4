"""Layering: only the harness and the CLI touch files, and no module keeps
an import or a local it never reads.

netsim, controller, knowledge, actions and metrics compute; the harness
reads scenario files and the knowledge seed and writes every artifact.
"""
import ast
from pathlib import Path

import pytest

import voipqos

PACKAGE = Path(voipqos.__file__).parent
FILE_MODULES = {"csv", "io", "json", "os", "importlib.resources"}
MAY_TOUCH_FILES = {"harness", "cli"}


def _imports(path: Path) -> set:
    """The absolute modules the file imports, and each `from` import's
    module.name too, so `from importlib import resources` reads as
    importlib.resources."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    # `import os.path` imports os.
    return found | {name.split(".")[0] for name in found}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.stem not in MAY_TOUCH_FILES),
    ids=lambda p: p.stem,
)
def test_only_harness_and_cli_import_file_modules(path):
    assert not _imports(path) & FILE_MODULES


def test_the_check_sees_the_harness_imports():
    assert FILE_MODULES <= _imports(PACKAGE / "harness.py")


def _unused_imports(tree: ast.Module) -> set:
    """The names the module imports and never reads."""
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def _own_nodes(function):
    """The function's nodes, less those of the functions, lambdas and
    classes nested in it (each is checked as its own function)."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _unused_locals(tree: ast.Module) -> set:
    """(function, name) of each local a function assigns and never reads;
    a nested function's read of it counts."""
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        assigned = set()
        for node in _own_nodes(function):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.add(node.name)
        read = {
            node.id for node in ast.walk(function)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        found |= {(function.name, name) for name in assigned - read - {"_"}}
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_import_or_local(path):
    tree = ast.parse(path.read_text())
    # __init__ imports to re-export.
    assert path.stem == "__init__" or not _unused_imports(tree)
    assert not _unused_locals(tree)


def test_the_unused_check_sees_both_kinds():
    tree = ast.parse(
        "import os\nfrom dataclasses import replace\n"
        "def f(x):\n    y = x\n    for i, _ in x:\n        pass\n"
        "    try:\n        pass\n    except ValueError as exc:\n        pass\n"
        "    z = 1\n    return lambda: z\n"
    )
    assert _unused_imports(tree) == {"os", "replace"}
    assert _unused_locals(tree) == {("f", "y"), ("f", "i"), ("f", "exc")}
