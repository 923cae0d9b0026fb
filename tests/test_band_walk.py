"""The package walks row bands in one place: reproject._bands.

A static scan with the standard library's ast.  Outside _bands no module
of src/mvsgeo reads _BAND_PIXELS or writes its own row-band loop: a loop
over a range whose step is computed (a band stride), or a loop that
builds slice objects.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvsgeo"
WALKER = "_bands"

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _reads_band_pixels(node) -> bool:
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    return name == "_BAND_PIXELS" and isinstance(node.ctx, ast.Load)


def _is_constant(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _strided(iterable) -> bool:
    """A call range(start, stop, step) whose step is not a literal."""
    return (isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "range" and len(iterable.args) == 3 and not _is_constant(iterable.args[2]))


def band_walks(source: str, walker: str | None = None) -> list[str]:
    """Reads of _BAND_PIXELS and row-band loops outside the function named `walker`."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == walker:
            inside |= {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if _reads_band_pixels(node):
            found.append(f"reads _BAND_PIXELS (line {node.lineno})")
        if isinstance(node, (ast.For, ast.comprehension)) and _strided(node.iter):
            found.append(f"strided range loop (line {node.iter.lineno})")
        if isinstance(node, _LOOPS):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "slice":
                    found.append(f"slice built in a loop (line {sub.lineno})")
    return sorted(set(found))


def test_scan_finds_hand_written_band_loops_and_accepts_the_rest():
    driver = (
        "def _row_bands(shape):\n"
        "    h, w = shape\n"
        "    step = max(1, reproject._BAND_PIXELS // w)\n"
        "    for start in range(0, h, step):\n"
        "        yield slice(start, min(start + step, h))\n"
    )
    assert band_walks(driver) == [
        "reads _BAND_PIXELS (line 3)", "slice built in a loop (line 5)", "strided range loop (line 4)",
    ]
    assert band_walks(driver.replace("_row_bands", WALKER), WALKER) == []
    assert band_walks("rows = [slice(i, i + n) for i in starts]\n") == ["slice built in a loop (line 1)"]
    accepted = (
        "_BAND_PIXELS = 32768\n"
        "whole = slice(0, h)\n"
        "for k in range(kmax, lo - 1, -1):\n"
        "    pass\n"
        "for rows, f, b in _bands(shape, 2, 1):\n"
        "    out[rows] = f[0]\n"
    )
    assert band_walks(accepted) == []


def test_the_walker_is_the_band_size_reader():
    source = (PACKAGE / "reproject.py").read_text()
    assert band_walks(source) != []  # the rule is not vacuous: _bands reads the band size
    assert band_walks(source, WALKER) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_walks_its_own_bands(module):
    assert band_walks((PACKAGE / module).read_text(), WALKER if module == "reproject.py" else None) == []
