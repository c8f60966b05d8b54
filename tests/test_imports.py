"""Every name a module of the package, the tests, the tools or the demos
imports is used in that module; no test module imports another; every
private module-level name is read somewhere in the package; and every
public name or method of the package is exported or read outside the
tests.

Deleting code tends to leave its imports, its private helpers and the
public names only its tests read behind; this catches them with the
stdlib parser alone. ``__init__.py`` is skipped by the import check,
since it imports names to re-export them. Helpers that more than one
test module reads live in ``tests/session_records.py``, so each has one
copy.
"""

import ast
import re
from pathlib import Path

import pytest

import sqss

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqss"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))
SCRIPTS = TESTS + sorted(p for d in ("tools", "demos") for p in (ROOT / d).glob("*.py"))
# what reads the package besides itself: the scripts, the benchmark and README's examples
READERS = sorted(p for d in ("tools", "demos", "perfbench") for p in (ROOT / d).glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=[p.stem for p in MODULES]
                         + [f"{p.parent.name}/{p.stem}" for p in SCRIPTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_test_modules(source: str) -> list[str]:
    """Each dotted name ``source`` imports that lies in a ``test_*`` module."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in imported
            if any(part.startswith("test_") for part in name.split("."))]


def test_the_check_finds_an_import_of_a_test_module():
    assert TESTS, f"no test modules found under {ROOT / 'tests'}"
    source = ("import test_optics\nfrom test_engine_agreement import _poisson\n"
              "from tests import test_protocol\nfrom session_records import recorded\n")
    assert imported_test_modules(source) == [
        "test_optics", "test_engine_agreement._poisson", "tests.test_protocol",
    ]


def test_no_test_module_imports_another():
    imports = {p.name: imported_test_modules(p.read_text(encoding="utf-8")) for p in TESTS}
    assert {name: found for name, found in imports.items() if found} == {}


def read_names(trees) -> set[str]:
    """Every name the parsed ``trees`` read: by name, as an attribute,
    through an import, or as a string that is one (``getattr``)."""
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def defined_names(tree) -> list[tuple[int, str, str]]:
    """(line, name, shown as) of each name ``tree`` defines at module level
    and of each method of its classes, shown as ``Class.method``."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [(f.lineno, f.name, f"{node.name}.{f.name}") for f in node.body
                        if isinstance(f, ast.FunctionDef)]
    return defined


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names with one leading underscore that no module of
    ``sources`` (module name -> source) reads (``read_names``)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
    return [f"{module} line {line}: {name}" for module, tree in trees.items()
            for line, name, shown in defined_names(tree)
            if name == shown and name.startswith("_") and not name.startswith("__")
            and name not in read]


def unread_public_names(sources: dict[str, str], readers: list[str], exported) -> list[str]:
    """Public module-level names and public methods of ``sources`` (module
    name -> source) that neither those modules nor the ``readers`` (more
    sources) read, leaving out the ``exported`` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names([*trees.values(), *map(ast.parse, readers)])
    return [f"{module} line {line}: {shown}" for module, tree in trees.items()
            for line, name, shown in defined_names(tree)
            if not name.startswith("_") and name not in read and name not in exported]


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


def test_the_check_finds_an_unread_public_name():
    sample = ("LIMIT = 1\nSPARE = 2\nNAMED = 3\ndef helper():\n    return LIMIT\n"
              "def shown(): pass\nclass Box:\n    def used(self): pass\n"
              "    def spare(self): pass\n    def _private(self): pass\n")
    reader = "from sample import helper\nBox().used()\ngetattr(sample, 'NAMED')\n"
    assert unread_public_names({"sample": sample}, [reader], {"shown"}) == [
        "sample line 2: SPARE", "sample line 9: Box.spare",
    ]


def test_every_public_name_is_read_outside_the_tests():
    # a name only tests read is a test helper, and belongs with them
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert READERS and examples
    readers = [p.read_text(encoding="utf-8") for p in READERS] + examples
    assert unread_public_names(sources, readers, set(sqss.__all__)) == []
