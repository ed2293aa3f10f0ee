"""Randomized property suites behind the sweep command.

Each suite draws seeded instances and emits one verdict row per instance;
rows are plain dicts so the CLI can stream them as CSV.  Same seed, same
rows, byte for byte.
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


def _row(instance_id, seed, n, r, check_name, ok, witness=None):
    return {
        "instance_id": instance_id,
        "seed": seed,
        "n": n,
        "r": r,
        "check_name": check_name,
        "verdict": PASS if ok else FAIL,
        "witness": "" if ok else json.dumps(witness, sort_keys=True),
    }


def _oracle_rows(rng, seed, count):
    rows = []
    for i in range(count):
        S = random_complex(rng, n_max=6, r_max=4)
        poly = chromatic_polynomial(S)
        bad = None
        for q in range(S.n + 2):
            expected = finite_model_count(S, q)
            if poly.evaluate(q) != expected:
                bad = {"q": q, "poly": poly.evaluate(q), "count": expected}
                break
        rows.append(_row(f"oracle-{i:03d}", seed, S.n,
                         len(S.minimal_nonface_masks),
                         "finite_model_oracle", bad is None, bad))
    return rows


def _graph_rows(rng, seed, count):
    rows = []
    for i in range(count):
        G = random_graph(rng)
        via_complex = chromatic_polynomial(complex_of_graph(G))
        classical = graph_chromatic(G)
        ok = via_complex == classical
        rows.append(_row(f"graph-{i:03d}", seed, len(G.vertices), len(G.edges),
                         "graph_agreement", ok,
                         None if ok else {"complex_route": list(via_complex.coeffs),
                                          "deletion_contraction":
                                          list(classical.coeffs)}))
    return rows


def _hilbert_rows(rng, seed, count):
    rows = []
    for i in range(count):
        S = random_complex(rng, n_max=8, r_max=5)
        gens = S.minimal_nonfaces()
        ie = numerator_by_inclusion_exclusion(gens)
        fh = numerator_from_h(S)
        bad = None
        if ie != fh:
            bad = {"inclusion_exclusion": list(ie.coeffs), "from_h": list(fh.coeffs)}
        else:
            series = series_coefficients(S, 6)
            for m in range(7):
                if series[m] != standard_monomial_count(S, m):
                    bad = {"m": m, "series": series[m],
                           "monomials": standard_monomial_count(S, m)}
                    break
        rows.append(_row(f"hilbert-{i:03d}", seed, S.n, len(gens),
                         "numerator_cross_check", bad is None, bad))
    return rows


def _theorem_rows(rng, seed, count):
    rows = []
    for i in range(count):
        T = random_complex(rng, n_max=6, r_max=4)
        S, assign = lift_with_apex(T)
        rep = verify_main_theorem(S, assign)
        # the h-form coincides with the numerator form exactly when the
        # auxiliary complex the lift hands over has as many vertices as its
        # dimension + 1
        h_form_expected = rep.details["n_T"] == rep.details["d_T"]
        ok = rep.passed and rep.details["check_b_h_form"] == h_form_expected
        rows.append(_row(f"theorem-{i:03d}", seed, S.n, len(assign),
                         "main_theorem_apex_lift", ok,
                         None if ok else rep.to_dict()["details"]))
    return rows


def _roundtrip_rows(rng, seed, count):
    rows = []
    for i in range(count):
        S = random_complex(rng, n_max=8, r_max=5)
        # S dualizes its seeded nonfaces; the rebuilt complex recovers them
        back = SimplicialComplex.from_facets(S.vertices, S.facets)
        ok = back.minimal_nonface_masks == S.minimal_nonface_masks
        rows.append(_row(f"roundtrip-{i:03d}", seed, S.n,
                         len(S.minimal_nonface_masks),
                         "nonface_roundtrip", ok,
                         None if ok else {"facets": [list(f) for f in S.facets]}))
    return rows


def run_sweep(seed: int) -> list[dict]:
    """All suites under one master seed, rows ordered by instance index."""
    rng = random.Random(seed)
    rows = []
    rows += _oracle_rows(rng, seed, 50)
    rows += _graph_rows(rng, seed, 10)
    rows += _hilbert_rows(rng, seed, 50)
    rows += _theorem_rows(rng, seed, 30)
    rows += _roundtrip_rows(rng, seed, 20)
    return rows
