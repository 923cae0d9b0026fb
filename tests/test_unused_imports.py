"""No module of the package imports a name it never uses, and no private name goes unread.

A static scan with the standard library's ast: a name bound by an import
counts as used when the module reads it (a Name, or the base of an
attribute chain) or lists it in __all__.  __init__.py re-exports the
package API by importing it, so its relative imports count as used.

A private name (one leading underscore, not a dunder) defined at module
level (a function, class or assigned constant) or as a method counts as
read when some module of the package loads it (a Name or an attribute)
or imports it; one that none does is dead code left behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvsgeo"


def unused_imports(source: str, package_init: bool = False) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" and not (package_init and node.level):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import_and_accepts_used_ones():
    source = (
        "import re\nimport os.path\nfrom json import dumps as d, loads\n"
        "__all__ = ['loads']\nos.path.join(d({}))\n"
    )
    assert unused_imports(source) == ["re (line 1)"]
    assert unused_imports("import re\nfrom .camera import Camera\n", package_init=True) == ["re (line 1)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(), package_init=module == "__init__.py") == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(source: str) -> dict[str, int]:
    """Private module-level functions, classes and constants, and private methods: name to line."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [(item.name, item.lineno) for item in node.body if isinstance(item, ast.FunctionDef)]
    return {name: line for name, line in reversed(defined) if _private(name)}


def names_read(source: str) -> set[str]:
    """Every name the source loads, as a Name or an attribute, or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_private_scan_finds_an_unread_name_and_accepts_read_ones():
    source = (
        "_LIMIT = 4\n_spare = 1\ndef _helper(): pass\ndef _unused(): pass\nclass _Kind:\n"
        "    def _method(self): pass\n    def _dead(self): pass\n    def __len__(self): return _LIMIT\n"
        "_Kind()._method()\n"
    )
    other = "from .module import _helper\n"
    read = names_read(source) | names_read(other)
    dead = sorted(name for name in private_definitions(source) if name not in read)
    assert dead == ["_dead", "_spare", "_unused"]


def test_every_private_name_is_read_somewhere_in_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    read = set().union(*(names_read(source) for source in sources.values()))
    dead = [f"{module}: {name} (line {line})" for module, source in sorted(sources.items())
            for name, line in private_definitions(source).items() if name not in read]
    assert dead == []
