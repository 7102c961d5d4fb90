"""Source hygiene: no module in the package imports a name it never uses,
no module-level name is assigned that no module of the package reads, the
package defines no function, class or method that no source of the repo
reads, no module keeps two tables keyed by the same names, no
``__post_init__`` stores a field from a value that never reads it, no
code but ``base.freeze`` calls ``setflags``, no module but ``data``
parses JSON, and no function only passes its arguments on to a method of
one of them."""

import ast
import itertools
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


def defined_names(source: str) -> dict:
    """Non-dunder functions and classes defined at module level -> line."""
    return {
        node.name: node.lineno
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
    }


def methods(source: str) -> dict:
    """Non-dunder methods and properties of the classes in ``source`` -> line."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    found[f"{node.name}.{item.name}"] = item.lineno
    return found


def unread(package: dict, readers: list, found) -> list:
    """Names that ``found`` lists in a source of ``package`` (module name ->
    source) and that neither the package nor any of the ``readers`` reads;
    a method counts as read when its own name is."""
    read = set().union(*(read_names(src) for src in [*package.values(), *readers]))
    return sorted(
        f"{module}.{name} (line {line})"
        for module, src in package.items()
        for name, line in found(src).items()
        if name.rsplit(".", 1)[-1] not in read
    )


def package_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}


def reader_sources() -> list:
    """Every test and benchmark source: they may read what the package defines."""
    return [
        p.read_text(encoding="utf-8")
        for p in [*(REPO / "tests").glob("*.py"), *(REPO / "bench").glob("*.py")]
    ]


def test_the_scan_sees_a_dead_name():
    sources = {
        "a": "X = 1\nY: int = 2\nZ, W = 3, 4\n__version__ = '0'\ndef f():\n    return X\n",
        "b": "from a import W\nimport a\nprint(a.Y)\n",
    }
    assert unread(sources, [], assigned_names) == ["a.Z (line 3)"]


def test_no_dead_module_level_names():
    # an assignment counts as read only when the package itself reads it
    assert unread(package_sources(), [], assigned_names) == []


def test_the_scan_sees_a_dead_function():
    package = {
        "a": "def used():\n    return Shown()\ndef dead():\n    pass\n"
        "class Shown:\n    pass\nclass Hidden:\n    pass\ndef __getattr__(name):\n    pass\n",
        "__init__": "from .a import Hidden\n",
    }
    assert unread(package, [], defined_names) == ["a.dead (line 3)", "a.used (line 1)"]
    assert unread(package, ["used()\n"], defined_names) == ["a.dead (line 3)"]


def test_no_dead_functions():
    assert unread(package_sources(), reader_sources(), defined_names) == []


def test_the_scan_sees_a_dead_method():
    package = {
        "a": "class A:\n    def used(self):\n        return self.prop\n"
        "    @property\n    def prop(self):\n        return 1\n"
        "    def dead(self):\n        pass\n    def __repr__(self):\n        return ''\n",
    }
    assert unread(package, [], methods) == ["a.A.dead (line 7)", "a.A.used (line 2)"]
    assert unread(package, ["A().used()\n"], methods) == ["a.A.dead (line 7)"]


def test_no_dead_methods():
    assert unread(package_sources(), reader_sources(), methods) == []


def parallel_tables(source: str) -> list:
    """Pairs of module-level dict literals in ``source`` that share two or
    more string keys: one table with a row per name says the same once."""
    tables = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            keys = [k.value for k in node.value.keys if isinstance(k, ast.Constant)]
            keys = {k for k in keys if isinstance(k, str)}
            tables.update({t.id: keys for t in targets if isinstance(t, ast.Name)})
    return [
        f"{a}/{b}" for a, b in itertools.combinations(tables, 2) if len(tables[a] & tables[b]) > 1
    ]


def test_the_scan_sees_parallel_tables():
    source = (
        "A = {'x': 1, 'y': 2, 'z': 3}\nB = {'x': 4, 'y': 5}\nC: dict = {'y': 6, 'z': 7}\n"
        "D = {'x': 8, 1: 9, 2: 0}\nE = {1: 0, 2: 0}\nF = dict(x=1, y=2)\n"
        "def f():\n    G = {'x': 1, 'y': 2}\n"
    )
    assert parallel_tables(source) == ["A/B", "A/C"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_parallel_tables(path):
    assert parallel_tables(path.read_text(encoding="utf-8")) == []


def reads_field(expr, field: str, values: dict, seen: set) -> bool:
    """``expr`` reads ``self.<field>``, directly or through the expressions
    ``values`` assigns to a local it reads."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and ast.unparse(node) == f"self.{field}":
            return True
        if isinstance(node, ast.Name) and node.id not in seen:
            seen.add(node.id)
            if any(reads_field(v, field, values, seen) for v in values.get(node.id, [])):
                return True
    return False


def init_false_fields(cls: ast.ClassDef) -> set:
    """Names the class body declares as ``field(init=False, ...)``."""
    return {
        node.target.id for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "field"
        and any(k.arg == "init" and ast.unparse(k.value) == "False" for k in node.value.keywords)
    }


def fields_set_blind(source: str) -> list:
    """Fields that a class's ``__post_init__`` sets with ``object.__setattr__``
    from a value that never reads the field: the constructor ignores what a
    caller passes there, so it is no input and should not be a field.  A
    field declared ``field(init=False)`` takes no argument, so it is exempt."""
    found = []
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        derived = init_false_fields(cls)
        for init in (f for f in cls.body if getattr(f, "name", None) == "__post_init__"):
            values = {}  # local name -> the expressions assigned to it
            for node in ast.walk(init):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for name in (n for t in targets for n in ast.walk(t)):
                        if isinstance(name, ast.Name):
                            values.setdefault(name.id, []).append(node.value)
            for call in (n for n in ast.walk(init) if isinstance(n, ast.Call)):
                if ast.unparse(call.func) == "object.__setattr__" and len(call.args) == 3:
                    field = call.args[1].value
                    if field not in derived and not reads_field(call.args[2], field, values, set()):
                        found.append(f"{cls.name}.{field} (line {call.lineno})")
    return found


def test_the_scan_sees_a_field_set_blind():
    source = (
        "class A:\n    def __post_init__(self):\n"
        "        n = self.x\n        m = n + 1\n        m *= 2\n"
        "        object.__setattr__(self, 'x', m)\n"
        "        object.__setattr__(self, 'y', tuple(self.y))\n"
        "        object.__setattr__(self, 'z', n)\n"
        "        object.__setattr__(self, 'w', len(range(3)))\n"
        "class B:\n    def check(self):\n        object.__setattr__(self, 'v', 0)\n"
        "class C:\n    u: int = field(init=False)\n    t: int = field(default=0)\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'u', 0)\n"
        "        object.__setattr__(self, 't', 0)\n"
    )
    assert fields_set_blind(source) == ["A.z (line 8)", "A.w (line 9)", "C.t (line 18)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_field_set_blind(path):
    assert fields_set_blind(path.read_text(encoding="utf-8")) == []


def setflags_outside_freeze(source: str, module: str) -> list:
    """``.setflags`` calls in ``source`` that are not inside ``base.freeze``:
    one helper copies and freezes every array a constructor stores."""
    tree = ast.parse(source)
    freeze = [f for f in tree.body if module == "base" and getattr(f, "name", None) == "freeze"]
    allowed = {id(n) for f in freeze for n in ast.walk(f)}
    calls = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "setflags" and id(n) not in allowed
    ]
    return [f"{module} line {n.lineno}" for n in sorted(calls, key=lambda n: n.lineno)]


def test_the_scan_sees_a_setflags_call_outside_freeze():
    source = (
        "def freeze(a):\n    a.setflags(write=False)\n"
        "class A:\n    def __post_init__(self):\n        self.x.setflags(write=False)\n"
        "setflags(b)\nnp.copy(b).setflags(write=True)\n"
    )
    assert setflags_outside_freeze(source, "base") == ["base line 5", "base line 7"]
    assert setflags_outside_freeze(source, "data") == ["data line 2", "data line 5", "data line 7"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_freeze_calls_setflags(path):
    assert setflags_outside_freeze(path.read_text(encoding="utf-8"), path.stem) == []


def json_parses_outside_data(source: str, module: str) -> list:
    """``json.load`` and ``json.loads`` calls in ``source`` unless it is ``data``:
    one reader, ``data.read_json``, parses every JSON file the package reads."""
    calls = [
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and ast.unparse(n.func) in ("json.load", "json.loads")
    ]
    return [] if module == "data" else [f"{module} line {n.lineno}" for n in calls]


def test_the_scan_sees_a_json_parse_outside_data():
    source = "import json\njson.dump(a, fh)\nb = json.load(fh)\nf(json.loads(s))\n"
    assert json_parses_outside_data(source, "data") == []
    assert json_parses_outside_data(source, "oracle") == ["oracle line 3", "oracle line 4"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_data_parses_json(path):
    assert json_parses_outside_data(path.read_text(encoding="utf-8"), path.stem) == []


def pass_throughs(source: str) -> list:
    """Module-level functions whose body, after any docstring, is one ``return``
    of a call to a method of a parameter (``t.apply(ds)``) or of a call whose
    first argument is such a bound method (``wrap(model.predict, x)``):
    a caller can make that call on the object itself."""
    found = []
    for fn in (n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)):
        params = {a.arg for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]}
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        if not isinstance(call, ast.Call):
            continue
        bound = [
            node for node in [call.func, *call.args[:1]]
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in params
        ]
        if bound:
            found.append(f"{fn.name} (line {fn.lineno})")
    return found


def test_the_scan_sees_a_pass_through():
    source = (
        "def apply_transform(t, ds):\n    return t.apply(ds)\n"
        "def lda_decision(model, x):\n    \"\"\"Doc.\"\"\"\n"
        "    return point_or_batch(model.decision_function, x)\n"
        "def append_noise(ds, count):\n    return AppendNoise(count).apply(ds)\n"
        "def scaled(model, x):\n    return 2.0 * model.decision_function(x)\n"
        "def checked(model, x):\n    check(x)\n    return model.predict(x)\n"
        "def second(model, x):\n    return f(x, model.predict)\n"
        "class A:\n    def predict(self, X):\n        return self.model.predict(X)\n"
    )
    assert pass_throughs(source) == ["apply_transform (line 1)", "lda_decision (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pass_throughs(path):
    assert pass_throughs(path.read_text(encoding="utf-8")) == []
