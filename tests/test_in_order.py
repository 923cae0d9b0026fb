"""The package has one reference-view loop: reproject._in_order.

A static scan with the standard library's ast: outside _in_order no
module of src/mvsgeo constructs a ThreadPoolExecutor or a deque (the
look-ahead window), but for one other named pool owner,
metrics._searches, which runs the k-d searches on its own pool and
builds no window.  Then _in_order's own contract: order, window, the
thread items are drawn on, and no item kept alive past its turn.
"""

import ast
import threading
import weakref
from pathlib import Path

import pytest

from mvsgeo.reproject import _in_order

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvsgeo"
LOOP = "_in_order"
POOLS = ("ThreadPoolExecutor", "deque")
# Per module, the one function that may construct a pool, and what it may construct.
OWNERS = {"reproject.py": (LOOP, POOLS), "metrics.py": ("_searches", ("ThreadPoolExecutor",))}


def pool_constructions(source: str, owner: str | None = None, allowed=POOLS) -> list[str]:
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


def test_scan_finds_pools_and_windows_and_accepts_the_loop():
    fork = (
        "def run(jobs, threads):\n"
        "    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:\n"
        "        ahead = collections.deque()\n"
    )
    assert pool_constructions(fork) == ["ThreadPoolExecutor (line 2)", "deque (line 3)"]
    assert pool_constructions(fork.replace("def run", f"def {LOOP}"), LOOP) == []
    # An owner allowed only a pool still may not build a window.
    assert pool_constructions(fork, "run", ("ThreadPoolExecutor",)) == ["deque (line 3)"]
    assert pool_constructions("from concurrent.futures import ThreadPoolExecutor\n") == []


def test_the_loop_is_the_pool_owner():
    source = (PACKAGE / "reproject.py").read_text()
    assert pool_constructions(source) != []  # the rule is not vacuous: _in_order builds the pool
    assert pool_constructions(source, LOOP) == []


def test_the_searches_own_the_metrics_pool():
    source = (PACKAGE / "metrics.py").read_text()
    assert pool_constructions(source) != []  # not vacuous: _searches builds a pool
    assert pool_constructions(source, *OWNERS["metrics.py"]) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_runs_its_own_reference_loop(module):
    source = (PACKAGE / module).read_text()
    assert pool_constructions(source, *OWNERS.get(module, (None, ()))) == []


class Item:
    """A stand-in for one reference view's arrays."""

    def __init__(self, index):
        self.index = index


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_consumes_every_item_in_order_on_the_calling_thread(threads):
    caller = threading.current_thread()
    drawn, consumed = [], []

    def items():
        for i in range(7):
            drawn.append(threading.current_thread())
            yield i, Item(i)

    def produce(i, item):
        assert item.index == i
        return item

    def consume(item):
        consumed.append((item.index, threading.current_thread()))

    _in_order(produce, consume, items(), threads)
    assert consumed == [(i, caller) for i in range(7)]
    assert drawn == [caller] * 7


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_no_item_outlives_the_window(threads):
    # An item is drawn after the one `threads` places before it is
    # consumed: no earlier item is alive with one thread, and with a pool
    # at most `threads - 1` are, those in flight.
    alive = []
    refs = []

    def items():
        for i in range(8):
            alive.append(sum(ref() is not None for ref in refs))
            item = Item(i)
            refs.append(weakref.ref(item))
            yield (item,)
            del item

    _in_order(lambda item: item, lambda item: None, items(), threads)
    assert max(alive) == threads - 1
    assert all(ref() is None for ref in refs)


def test_window_holds_when_threads_switch_often():
    # More workers than cores, a thread switch about every microsecond and
    # producers that finish in a scrambled order: every item is still
    # consumed once, in order, and no item drawn sees more than
    # `threads - 1` earlier items alive.
    import random
    import sys
    import time

    threads, n = 4, 200
    alive, refs, consumed = [], [], []

    def items():
        for i in range(n):
            alive.append(sum(ref() is not None for ref in refs))
            item = Item(i)
            refs.append(weakref.ref(item))
            yield (item,)
            del item

    def produce(item):
        time.sleep(random.Random(item.index).random() * 1e-4)
        return item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        _in_order(produce, lambda item: consumed.append(item.index), items(), threads)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - start < 30
    assert consumed == list(range(n))
    assert max(alive) == threads - 1


def test_a_producer_error_reaches_the_caller():
    def produce(i):
        if i == 2:
            raise ValueError("bad item")
        return i

    consumed = []
    with pytest.raises(ValueError, match="bad item"):
        _in_order(produce, consumed.append, ((i,) for i in range(5)), 2)
    assert consumed == [0, 1]
