"""The package walks a view pair in one place: reproject._checks.

A static scan with the standard library's ast.  In src/mvsgeo only
_checks composes the forward warp (_apply_warp), the bilinear sample
(_sample) and the pair check (_pair_errors); the public forward_project
and remap each run one of the kernels alone.  No module outside
reproject.py imports _apply_warp or _sample.  _pair_errors is imported
outside it only by penalty.py, whose public inconsistency_mask applies it
to fbr's frames.  The penalty, fusion, fbr and the `warp` command each
walk _checks, so a second pair walk cannot grow back.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvsgeo"
OWNER = "reproject.py"
KERNELS = ("_apply_warp", "_sample", "_pair_errors")
# The one caller of _pair_errors outside reproject.py: the paper's
# single-view vote over fbr's full-frame result.
FRAME_CHECK = {"penalty.py": "inconsistency_mask"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def kernel_calls(source: str) -> dict:
    """{function name: the kernels (and _checks) it calls}, for every top-level function that calls one."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            called = {_name(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
            if called & {*KERNELS, "_checks"}:
                found[node.name] = sorted(called & {*KERNELS, "_checks"})
    return found


def kernel_imports(source: str) -> list[str]:
    """The kernels imported by name from a reproject module."""
    return sorted(f"imports {a.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "reproject"
                  for a in node.names if a.name in KERNELS)


def test_scan_finds_a_second_pair_walk_and_accepts_the_rest():
    driver = (
        "from .reproject import _WARP, _chain, _pair_errors\n"
        "def _chain(d_ref, d_src):\n"
        "    for band in _depth_bands(d_ref):\n"
        "        _apply_warp(forward, *band)\n"
        "        reproject._sample(d_src, corners)\n"
        "def _cmd_warp(args):\n"
        "    for band, back in _chain(d_ref, d_src):\n"
        "        _pair_errors(*band, *back)\n"
    )
    assert kernel_imports(driver) == ["imports _pair_errors (line 1)"]
    assert kernel_calls(driver) == {"_chain": ["_apply_warp", "_sample"], "_cmd_warp": ["_pair_errors"]}
    assert kernel_calls("def fbr(d):\n    for _ in _checks(d):\n        pass\n") == {"fbr": ["_checks"]}


def test_only_checks_composes_the_warp_the_sample_and_the_pair_check():
    calls = kernel_calls((PACKAGE / OWNER).read_text())
    assert calls == {
        "_checks": sorted(KERNELS),
        "fbr": ["_checks"],
        "forward_project": ["_apply_warp"],
        "remap": ["_sample"],
    }


@pytest.mark.parametrize("module, walker", [
    ("penalty.py", "_add_pair_votes"), ("fusion.py", "_fill_pair"), ("cli.py", "_cmd_warp"),
])
def test_each_pair_check_walks_checks(module, walker):
    assert kernel_calls((PACKAGE / module).read_text())[walker] == ["_checks"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != OWNER))
def test_no_other_module_takes_a_kernel(module):
    source = (PACKAGE / module).read_text()
    imports, calls = kernel_imports(source), kernel_calls(source)
    if module in FRAME_CHECK:
        assert [i.split(" (")[0] for i in imports] == ["imports _pair_errors"]
        assert {name: kernels for name, kernels in calls.items() if set(kernels) - {"_checks"}} == {
            FRAME_CHECK[module]: ["_pair_errors"]}
    else:
        assert imports == []
        assert all(kernels == ["_checks"] for kernels in calls.values()), calls
