"""Layering: only the harness and the CLI touch files.

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
