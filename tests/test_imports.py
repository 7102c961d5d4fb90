"""Source hygiene: no module in the package imports a name it never uses,
no module-level name is assigned that no module of the package reads, and
no class of the package defines a method that no source of the repo calls."""

import ast
from pathlib import Path

import pytest

import claslab

PACKAGE = Path(claslab.__file__).resolve().parent
# the package's __init__ imports names only to export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parent.parent


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


def methods(source: str) -> dict:
    """Non-dunder methods and properties of the classes in ``source`` -> line."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    found[f"{node.name}.{item.name}"] = item.lineno
    return found


def dead_methods(package: dict, readers: list) -> list:
    """Methods of ``package`` (module name -> source) whose name neither the
    package nor any of the ``readers`` sources reads."""
    read = set().union(*(read_names(src) for src in [*package.values(), *readers]))
    return sorted(
        f"{module}.{method} (line {line})"
        for module, src in package.items()
        for method, line in methods(src).items()
        if method.rsplit(".", 1)[1] not in read
    )


def test_the_scan_sees_a_dead_method():
    package = {
        "a": "class A:\n    def used(self):\n        return self.prop\n"
        "    @property\n    def prop(self):\n        return 1\n"
        "    def dead(self):\n        pass\n    def __repr__(self):\n        return ''\n",
    }
    assert dead_methods(package, []) == ["a.A.dead (line 7)", "a.A.used (line 2)"]
    assert dead_methods(package, ["A().used()\n"]) == ["a.A.dead (line 7)"]


def test_no_dead_methods():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [
        p.read_text(encoding="utf-8")
        for p in [*(REPO / "tests").glob("*.py"), *(REPO / "bench").glob("*.py")]
    ]
    assert dead_methods(package, readers) == []
