"""The guard vocabulary: one helper raises every GuardError."""

import ast
from pathlib import Path

import pytest

from simpchrom.report import GuardError, check_limit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simpchrom"


def test_check_limit_names_the_measured_value_and_the_bound():
    check_limit("pairs", 20, 20, "pairs")  # at the bound: no refusal
    with pytest.raises(GuardError) as exc:
        check_limit("pairs", 21, 20, "pairs")
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "pairs", 21, 20, "21 pairs exceed the 20 limit")
    with pytest.raises(GuardError, match="^3 states exceed the 2 limit; sum less$"):
        check_limit("states", 3, 2, "states", "sum less")


def _name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_guard_errors_are_constructed_only_in_check_limit():
    calls, helper = [], None
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _name(node.func) == "GuardError"]
        helper = helper or next(
            (node for node in ast.walk(tree) if path.name == "report.py"
             and isinstance(node, ast.FunctionDef) and node.name == "check_limit"),
            None)
    (where, line), = calls
    assert where == "report.py" and helper.lineno <= line <= helper.end_lineno
