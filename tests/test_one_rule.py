"""Each input rule has one implementation: a static scan of src/mvsgeo with the standard library's ast.

- Text: no module calls .splitlines() or a zero-argument .split(), which
  split at Unicode line breaks and whitespace.  cam.txt, pair.txt and
  ASCII PLY lines come from formats._text_lines, their fields from
  formats._fields, at ASCII alone.
- Valid depth: DepthMap._of_bands and loss._truth_band apply
  reproject._valid_depths.
- PLY record: write_ply builds its records with formats._ply_record.
- Penalty sources: each of penalty._check_sources' two messages is
  written once in penalty.py.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mvsgeo"
SOURCE_MESSAGES = ["at least one source view is required", "range_mode must be one of"]


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def unicode_splits(tree) -> list[str]:
    """The calls of .splitlines(), and of .split() with no separator or a None one, by line."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        seps = node.args[:1] + [k.value for k in node.keywords if k.arg == "sep"]
        if node.func.attr == "splitlines" or node.func.attr == "split" and all(
                isinstance(s, ast.Constant) and s.value is None for s in seps):
            found.append(f"{node.func.attr} (line {node.lineno})")
    return found


def calls(function, name: str) -> bool:
    """Whether function calls `name`, as a plain name or an attribute."""
    return any(isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(function))


def function(tree, name: str, cls: str = None):
    """The module-level function `name`, or method `name` of class `cls`."""
    if cls is not None:
        tree = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def messages(tree, text: str) -> int:
    """The number of string literals (f-string parts among them) that contain text."""
    return sum(isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
               for node in ast.walk(tree))


def test_scan_finds_unicode_splits_and_a_second_message():
    tree = ast.parse(
        "lines = text.splitlines()\n"
        "parts = lines[0].split()\n"
        "same = lines[1].split(None, 1)\n"
        "also = lines[1].split(sep=None)\n"
        "rows = text.split('\\n')\n"
        "def check(m):\n"
        "    if m < 1:\n"
        "        raise ValueError('at least one source view is required')\n"
        "    raise ValueError(f'range_mode must be one of {m}')\n"
        "def again(m):\n"
        "    raise ValueError('at least one source view is required')\n"
    )
    assert unicode_splits(tree) == ["splitlines (line 1)", "split (line 2)", "split (line 3)", "split (line 4)"]
    assert [messages(tree, text) for text in SOURCE_MESSAGES] == [2, 1]
    assert calls(function(tree, "check"), "ValueError") and not calls(function(tree, "check"), "check")


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_splits_at_unicode_whitespace(module):
    assert unicode_splits(_tree(module)) == []


def test_text_files_are_split_by_the_one_splitter():
    formats, views = _tree("formats.py"), _tree("views.py")
    assert calls(function(formats, "read_cam"), "_text_lines")
    assert calls(function(views, "parse_pair_text"), "_text_lines")
    assert calls(function(formats, "_ascii", "_PlyFile"), "_text_lines")


def test_depths_are_validated_by_the_one_rule():
    assert calls(function(_tree("reproject.py"), "_of_bands", "DepthMap"), "_valid_depths")
    assert calls(function(_tree("loss.py"), "_truth_band"), "_valid_depths")


def test_write_ply_builds_records_with_the_reader_layout():
    assert calls(function(_tree("formats.py"), "write_ply"), "_ply_record")


@pytest.mark.parametrize("text", SOURCE_MESSAGES)
def test_each_penalty_source_message_is_written_once(text):
    assert messages(_tree("penalty.py"), text) == 1
