"""The penalty has one vote rule and one level mapping, both in penalty.py.

A static scan with the standard library's ast.  Outside penalty.py no
module of src/mvsgeo imports an underscore name from .penalty, and the
vote rule (_add_votes) and the count-to-level mapping (_levels) are
referenced nowhere else: every other module reaches votes and levels
through the public PenaltyMap, stage_penalties, apply_reference_mask and
penalty_histogram, so a second path to the same bytes cannot grow back.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvsgeo"
OWNER = "penalty.py"
ONE_PATH = ("_add_votes", "_levels")


def private_penalty_uses(source: str) -> list[str]:
    """Underscore names imported from the penalty module, and references to its one-path names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "penalty":
            found += [f"imports {a.name} (line {node.lineno})" for a in node.names if a.name.startswith("_")]
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in ONE_PATH:
            found.append(f"references {name} (line {node.lineno})")
    return sorted(found)


def test_scan_finds_private_penalty_uses_and_accepts_the_public_api():
    private = (
        "from .penalty import GcThresholds, _stage_map\n"
        "from mvsgeo.penalty import _levels as levels\n"
        "from . import penalty\n"
        "votes = penalty._add_votes\n"
        "hist = _levels(count, m, mode)\n"
    )
    assert private_penalty_uses(private) == [
        "imports _levels (line 2)", "imports _stage_map (line 1)",
        "references _add_votes (line 4)", "references _levels (line 5)",
    ]
    public = (
        "from .penalty import PenaltyMap, apply_reference_mask, penalty_histogram, stage_penalties\n"
        "from .reproject import _checks, _pair_errors\n"
        "levels = penalty.values\n"
    )
    assert private_penalty_uses(public) == []


def test_the_penalty_module_owns_both():
    found = private_penalty_uses((PACKAGE / OWNER).read_text())
    for name in ONE_PATH:  # the rule is not vacuous: penalty.py uses both
        assert any(f"references {name} " in f for f in found), found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != OWNER))
def test_no_other_module_takes_a_private_penalty_path(module):
    assert private_penalty_uses((PACKAGE / module).read_text()) == []
