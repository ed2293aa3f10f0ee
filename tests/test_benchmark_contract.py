"""The library surface the benchmark in perfbench/ relies on.

The benchmark's own self-tests are slow and live outside the default test
paths, so these checks keep a rename or a dropped detail from breaking the
benchmark unnoticed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from simpchrom import (CyclotomicSpec, SimplicialComplex, boundary_matrix,
                       build_residue_subcomplex, check_constant_term_detection,
                       chromatic_polynomial, lift_with_apex,
                       log_concavity_report, uniform_matroid_complex,
                       verify_main_theorem)

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


def test_boundary_matrices_read_as_dense_rows():
    # the homology op ranks each boundary matrix over GF(p) from its dense
    # entries, which the library builds from its sparse rows on first read
    T = build_residue_subcomplex(CyclotomicSpec((3, 5, 7)), {7})
    for S in (T, uniform_matroid_complex(9, 4)):
        for k in range(S.dimension + 1):
            B = boundary_matrix(S, k)
            rows = B.entries
            assert type(rows) is tuple and len(rows) == B.nrows
            assert all(type(r) is tuple and len(r) == B.ncols for r in rows)
            assert all(type(x) is int for r in rows for x in r)
            assert [tuple((j, x) for j, x in enumerate(r) if x) for r in rows] \
                == list(B.sparse_rows)


def test_apex_lift_report_takes_the_identity_route():
    # the closure op's path: the apex shape vouches for the 210-pair
    # assignment without the state pass
    L, assign = lift_with_apex(uniform_matroid_complex(10, 5))
    rep = log_concavity_report(L, assign)
    assert len(assign) == 210
    assert rep.details["chromatic_route"] == "identity"


def test_main_theorem_details_of_an_apex_lift():
    # the theorem suite reads these details of a small apex lift
    T = SimplicialComplex.from_minimal_nonfaces("abcd", [("a", "c"), ("b", "d")])
    S, assign = lift_with_apex(T)
    rep = verify_main_theorem(S, assign)
    d = rep.details
    assert rep.passed
    assert (d["n_T"], d["d_T"], d["check_b_h_form"]) == (4, 2, False)
    assert d["chromatic"] == list(chromatic_polynomial(S).coeffs)
