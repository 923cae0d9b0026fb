"""No module of the package imports a name it never uses.

A static scan with the standard library's ast: a name bound by an import
counts as used when the module reads it (a Name, or the base of an
attribute chain) or lists it in __all__.  __init__.py re-exports the
package API by importing it, so its relative imports count as used.
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
