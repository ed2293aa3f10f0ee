"""Randomized property suites behind the sweep command.

Each suite draws one seeded instance from the shared rng, checks it, and
returns (n, r, witness), the witness None when the check passes.
``SUITES`` lists each suite with its instance prefix, count and check name,
and ``run_sweep`` turns every instance into one verdict row; rows are plain
dicts so the CLI can stream them as CSV.  Same seed, same rows, byte for
byte.
"""

from __future__ import annotations

import json
import random

from .auxiliary import lift_with_apex, verify_main_theorem
from .chromatic import chromatic_polynomial, complex_of_graph, finite_model_count, \
    graph_chromatic
from .complexes import SimplicialComplex
from .hilbert import (numerator_by_inclusion_exclusion, numerator_from_h,
                      series_coefficients, standard_monomial_count)
from .report import FAIL, PASS
from .sampling import random_complex, random_graph

CSV_COLUMNS = ("instance_id", "seed", "n", "r", "check_name", "verdict", "witness")


def _oracle(rng):
    S = random_complex(rng, n_max=6, r_max=4)
    poly = chromatic_polynomial(S)
    witness = None
    for q in range(S.n + 2):
        expected = finite_model_count(S, q)
        if poly.evaluate(q) != expected:
            witness = {"q": q, "poly": poly.evaluate(q), "count": expected}
            break
    return S.n, len(S.minimal_nonface_masks), witness


def _graph(rng):
    G = random_graph(rng)
    via_complex = chromatic_polynomial(complex_of_graph(G))
    classical = graph_chromatic(G)
    witness = None if via_complex == classical else {
        "complex_route": list(via_complex.coeffs),
        "deletion_contraction": list(classical.coeffs)}
    return len(G.vertices), len(G.edges), witness


def _hilbert(rng):
    S = random_complex(rng, n_max=8, r_max=5)
    gens = S.minimal_nonfaces()
    ie = numerator_by_inclusion_exclusion(gens)
    fh = numerator_from_h(S)
    witness = None
    if ie != fh:
        witness = {"inclusion_exclusion": list(ie.coeffs), "from_h": list(fh.coeffs)}
    else:
        series = series_coefficients(S, 6)
        for m in range(7):
            if series[m] != standard_monomial_count(S, m):
                witness = {"m": m, "series": series[m],
                           "monomials": standard_monomial_count(S, m)}
                break
    return S.n, len(gens), witness


def _theorem(rng):
    T = random_complex(rng, n_max=6, r_max=4)
    S, assign = lift_with_apex(T)
    rep = verify_main_theorem(S, assign)
    # the h-form coincides with the numerator form exactly when the
    # auxiliary complex the lift hands over has as many vertices as its
    # dimension + 1
    h_form_expected = rep.details["n_T"] == rep.details["d_T"]
    ok = rep.passed and rep.details["check_b_h_form"] == h_form_expected
    return S.n, len(assign), None if ok else rep.to_dict()["details"]


def _roundtrip(rng):
    S = random_complex(rng, n_max=8, r_max=5)
    # S dualizes its seeded nonfaces; the rebuilt complex recovers them
    back = SimplicialComplex.from_facets(S.vertices, S.facets)
    ok = back.minimal_nonface_masks == S.minimal_nonface_masks
    return S.n, len(S.minimal_nonface_masks), None if ok else {
        "facets": [list(f) for f in S.facets]}


# (instance prefix, instances, check name, suite), drawn in this order
SUITES = (
    ("oracle", 50, "finite_model_oracle", _oracle),
    ("graph", 10, "graph_agreement", _graph),
    ("hilbert", 50, "numerator_cross_check", _hilbert),
    ("theorem", 30, "main_theorem_apex_lift", _theorem),
    ("roundtrip", 20, "nonface_roundtrip", _roundtrip),
)


def run_sweep(seed: int) -> list[dict]:
    """All suites under one master seed, rows ordered by instance index."""
    rng = random.Random(seed)
    rows = []
    for prefix, count, check_name, suite in SUITES:
        for i in range(count):
            n, r, witness = suite(rng)
            rows.append(dict(zip(CSV_COLUMNS, (
                f"{prefix}-{i:03d}", seed, n, r, check_name,
                PASS if witness is None else FAIL,
                "" if witness is None else json.dumps(witness, sort_keys=True)))))
    return rows
