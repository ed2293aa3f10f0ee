"""The library surface the benchmark in perfbench/ relies on.

The benchmark's own self-tests are slow and live outside the default test
paths, so these checks keep a rename or a dropped detail from breaking the
benchmark unnoticed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from simpchrom import CyclotomicSpec, check_constant_term_detection

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def simpchrom_imports():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "simpchrom"
            for alias in node.names]


def test_workload_imports_resolve():
    names = simpchrom_imports()
    assert ("simpchrom", "CyclotomicSpec") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("labeling", ["zero", "one"])
def test_residue_labelings_and_detector_details(labeling):
    spec = CyclotomicSpec((3, 5), labeling)
    assert spec.labeling == labeling
    rep = check_constant_term_detection(spec, 2)
    assert rep.details["coefficient"] == 0
    assert len(rep.details["h_vector"]) == 3
