"""The package has one thread pool: metrics._searches.

A static scan with the standard library's ast: no module of src/mvsgeo
constructs a ThreadPoolExecutor or a deque (a look-ahead window), but
for metrics._searches, which runs the k-d searches on its own pool and
builds no window.  gc-penalty and fuse run their references in order on
the calling thread (see tests/test_cli.py for gc-penalty's one
reference in flight).
"""

import ast
from pathlib import Path

import pytest


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvsgeo"
POOLS = ("ThreadPoolExecutor", "deque")
# Per module, the one function that may construct a pool, and what it may construct.
OWNERS = {"metrics.py": ("_searches", ("ThreadPoolExecutor",))}


def pool_constructions(source: str, owner: str | None = None, allowed=()) -> list[str]:
    """Calls of ThreadPoolExecutor or deque, but for those of `allowed` inside the function named `owner`."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == owner:
            inside |= {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name in POOLS and not (id(node) in inside and name in allowed):
            found.append(f"{name} (line {node.lineno})")
    return sorted(found)


def test_scan_finds_pools_and_windows():
    fork = (
        "def run(jobs, threads):\n"
        "    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:\n"
        "        ahead = collections.deque()\n"
    )
    assert pool_constructions(fork) == ["ThreadPoolExecutor (line 2)", "deque (line 3)"]
    # An owner allowed only a pool still may not build a window.
    assert pool_constructions(fork, "run", ("ThreadPoolExecutor",)) == ["deque (line 3)"]
    assert pool_constructions(fork.replace("def run", "def other"), "run", ("ThreadPoolExecutor",)) == [
        "ThreadPoolExecutor (line 2)", "deque (line 3)"]
    assert pool_constructions("from concurrent.futures import ThreadPoolExecutor\n") == []


def test_the_searches_own_the_metrics_pool():
    source = (PACKAGE / "metrics.py").read_text()
    assert pool_constructions(source) != []  # not vacuous: _searches builds a pool
    assert pool_constructions(source, *OWNERS["metrics.py"]) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_runs_its_own_reference_loop(module):
    source = (PACKAGE / module).read_text()
    assert pool_constructions(source, *OWNERS.get(module, (None, ()))) == []


def test_reprojection_imports_no_pool_or_window():
    tree = ast.parse((PACKAGE / "reproject.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"concurrent", "collections", "itertools"}
