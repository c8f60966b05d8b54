"""Every name a module of the package imports is used in that module, and
every private module-level name is read somewhere in the package.

Deleting code tends to leave its imports and its private helpers behind;
this catches both with the stdlib parser alone. ``__init__.py`` is
skipped by the import check, since it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sqss"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
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
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    assert MODULES, f"no modules found under {PACKAGE}"
    source = "from .optics import AMBIGUOUS, VACUUM\nimport numpy as np\n\nx = VACUUM\n"
    assert unused_imports(source) == ["line 1: AMBIGUOUS", "line 2: np"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names with one leading underscore that no module of
    ``sources`` (module name -> source) reads, by name, as an attribute or
    through an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module} line {node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_the_check_finds_an_unread_private_name():
    sample = ("_USED = 1\n_UNUSED: int = 2\n__version__ = '0'\n_LENT = 3\n"
              "def _helper():\n    return _USED\n")
    reader = "from .sample import _LENT\n"
    assert unread_private_names({"sample": sample, "reader": reader}) == [
        "sample line 2: _UNUSED", "sample line 5: _helper",
    ]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []
