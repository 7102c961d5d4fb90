"""Source hygiene: no module in the package imports a name it never uses,
and no module-level name is assigned that no module of the package reads."""

import ast
from pathlib import Path

import pytest

import claslab

PACKAGE = Path(claslab.__file__).resolve().parent
# the package's __init__ imports names only to export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no other node of ``source`` reads."""
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
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "c (line 2)", "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assigned_names(source: str) -> dict:
    """Non-dunder names bound by a module-level assignment -> line."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t)):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    names[name.id] = node.lineno
    return names


def read_names(source: str) -> set:
    """Names ``source`` loads, reads as an attribute, or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_names(sources: dict) -> list:
    """Module-level names of ``sources`` (module name -> source) that none of them reads."""
    read = set().union(*(read_names(src) for src in sources.values()))
    return sorted(
        f"{module}.{name} (line {line})"
        for module, src in sources.items()
        for name, line in assigned_names(src).items()
        if name not in read
    )


def test_the_scan_sees_a_dead_name():
    sources = {
        "a": "X = 1\nY: int = 2\nZ, W = 3, 4\n__version__ = '0'\ndef f():\n    return X\n",
        "b": "from a import W\nimport a\nprint(a.Y)\n",
    }
    assert dead_names(sources) == ["a.Z (line 3)"]


def test_no_dead_module_level_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_names(sources) == []
