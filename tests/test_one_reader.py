"""Each binary file format has one reader: formats.py's _OpenedFile subclass for it.

A static scan with the standard library's ast.  read_pfm, read_ply and
read_probability_volume build the same _OpenedFile subclass that
open_pfm, open_ply and open_probability_volume build, and formats.py
defines no module-level function that calls one of its parameters (a
header parser taking a line reader, say) and no lambda: so no second
header parser or payload decoder can sit beside the reader.
"""

import ast
from pathlib import Path

import pytest

FORMATS = Path(__file__).resolve().parents[1] / "src" / "mvsgeo" / "formats.py"
BASE = "_OpenedFile"
PAIRS = {"read_pfm": "open_pfm", "read_ply": "open_ply", "read_probability_volume": "open_probability_volume"}


def readers(tree) -> set[str]:
    """The names of the classes that subclass _OpenedFile."""
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == BASE for base in node.bases)}


def built(function: ast.FunctionDef, classes: set[str]) -> set[str]:
    """The classes among `classes` that function calls."""
    return {node.func.id for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in classes}


def callback_parsers(tree) -> list[str]:
    """Module-level functions that call one of their own parameters, and lambdas anywhere."""
    found = [f"lambda (line {node.lineno})" for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            params = {a.arg for a in node.args.args + node.args.kwonlyargs}
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in params
                   for call in ast.walk(node)):
                found.append(f"{node.name} calls a parameter (line {node.lineno})")
    return found


def _functions(tree) -> dict:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_scan_finds_a_header_parser_with_a_line_reader_and_a_second_decoder():
    source = (
        "class _OpenedFile:\n"
        "    pass\n"
        "class _PfmFile(_OpenedFile):\n"
        "    pass\n"
        "def _pfm_header(line, size):\n"
        "    magic, pos = line(0)\n"
        "def read_pfm(data):\n"
        "    h = _pfm_header(lambda at: data[at:], len(data))\n"
        "def open_pfm(path):\n"
        "    return _PfmFile(path)\n"
    )
    tree = ast.parse(source)
    assert readers(tree) == {"_PfmFile"}
    assert callback_parsers(tree) == ["lambda (line 8)", "_pfm_header calls a parameter (line 5)"]
    functions = _functions(tree)
    assert built(functions["read_pfm"], readers(tree)) == set()
    assert built(functions["open_pfm"], readers(tree)) == {"_PfmFile"}


def test_formats_defines_no_header_parser_that_takes_a_line_reader():
    assert callback_parsers(ast.parse(FORMATS.read_text())) == []


@pytest.mark.parametrize("read, opener", PAIRS.items())
def test_the_bytes_reader_builds_the_file_openers_reader(read, opener):
    tree = ast.parse(FORMATS.read_text())
    classes, functions = readers(tree), _functions(tree)
    (reader,) = built(functions[opener], classes)
    assert built(functions[read], classes) == {reader}
