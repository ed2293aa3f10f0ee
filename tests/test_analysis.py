"""Matroid fixtures, log-concavity reports, and palindromic symmetry."""

import json
import random
from functools import cached_property

import pytest

from simpchrom import auxiliary, complexes, report, sweep
from simpchrom.analysis import (dehn_sommerville_check, log_concavity_report,
                                octahedron_boundary, reciprocity_report,
                                uniform_matroid_complex)
from simpchrom.auxiliary import (AlphaAssignment, lift_disjoint, lift_with_apex,
                                 verify_main_theorem)
from simpchrom.chromatic import chromatic_polynomial, verify_addition_contraction
from simpchrom.cli import main
from simpchrom.complexes import NonfaceFamily, SimplicialComplex
from simpchrom.hilbert import h_vector
from simpchrom.polynomials import IntPolynomial, substitute_shift
from simpchrom.report import CheckReport, GuardError

from oracles import points_complex

P = IntPolynomial
SC = SimplicialComplex


def test_uniform_matroid_fixtures():
    u42 = uniform_matroid_complex(4, 2)
    assert u42.f_vector == (1, 4, 6)
    u96 = uniform_matroid_complex(9, 6)
    assert len(u96.minimal_nonfaces()) == 36
    assert all(len(g) == 7 for g in u96.minimal_nonfaces().generators)
    full = uniform_matroid_complex(3, 3)
    assert full.facets == (("01", "02", "03"),)
    for n, r in ((3, 4), (3, 0)):
        with pytest.raises(ValueError, match=f"need 1 <= r <= n, got n = {n}"):
            uniform_matroid_complex(n, r)
    with pytest.raises(GuardError) as exc:
        uniform_matroid_complex(21, 2)
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "uniform_vertices", 21, 20, "21 vertices of U(n, r) exceed the 20 limit")


def test_uniform_matroid_apex_lift_nonfaces():
    u = uniform_matroid_complex(5, 3)
    s, assign = lift_with_apex(u)
    assert all("q" in sig for sig in assign.sigmas)
    assert {frozenset(a) for a in assign.alphas} == {
        frozenset(g) for g in u.minimal_nonfaces().generators}


def test_octahedron_fixture():
    octa = octahedron_boundary()
    assert octa.f_vector == (1, 6, 12, 8)
    assert h_vector(octa).entries == (1, 3, 3, 1)
    assert octa.dimension == 2
    gens = [set(g) for g in octa.minimal_nonfaces().generators]
    assert gens == [{"a", "c"}, {"b", "d"}, {"e", "f"}]


def test_log_concavity_u96():
    rep = log_concavity_report(uniform_matroid_complex(9, 6))
    assert rep.passed
    subs = rep.details["sub_results"]
    assert subs["h_vector"]["verdict"] == "PASS"
    assert subs["f_vector"]["verdict"] == "PASS"
    assert rep.details["chromatic_route"] == "direct"
    assert subs["chromatic"]["verdict"] == "PASS"
    assert subs["chromatic"]["details"]["sequence"] == [
        0, -28, 63, -36, 0, 0, 0, 0, 0, 1]
    assert h_vector(uniform_matroid_complex(9, 6)).entries == (
        1, 3, 6, 10, 15, 21, 28)


def test_log_concavity_octahedron():
    rep = log_concavity_report(octahedron_boundary())
    assert rep.details["sub_results"]["h_vector"]["verdict"] == "PASS"


def _chromatic_not_applicable(rep, reason):
    """Both chromatic scans NOT_APPLICABLE, with ``reason`` as the route."""
    subs = rep.details["sub_results"]
    assert rep.details["chromatic_route"] == reason
    for name in ("chromatic", "chromatic_translate"):
        assert subs[name]["verdict"] == "NOT_APPLICABLE"
        assert subs[name]["details"]["reason"] == reason


def test_a_guard_on_the_direct_route_is_not_applicable(monkeypatch):
    # the chi_c sum holds one key after the first nonface, whose vertices
    # retire with it
    monkeypatch.setattr(report, "STATE_LIMIT", 0)
    rep = log_concavity_report(octahedron_boundary())
    _chromatic_not_applicable(rep, "1 live states exceed the 0 limit; "
                                   "use the auxiliary-complex identity instead")
    subs = rep.details["sub_results"]
    assert subs["h_vector"]["verdict"] == subs["f_vector"]["verdict"] == "PASS"
    assert rep.passed


def test_state_work_on_the_direct_route_is_not_applicable(monkeypatch):
    monkeypatch.setattr(report, "STATE_WORK_LIMIT", 10_000)
    rep = log_concavity_report(uniform_matroid_complex(12, 6))
    _chromatic_not_applicable(rep, "10207 states summed exceed the 10000 limit; "
                                   "use the auxiliary-complex identity instead")
    subs = rep.details["sub_results"]
    assert subs["h_vector"]["verdict"] == subs["f_vector"]["verdict"] == "PASS"


def _refused_u74_assignment():
    """The apex lift of U(7,4), 21 pairs, with one alpha that keeps q and
    drops a v: no longer apex-shaped, so only the target invariant decides
    it."""
    s, assign = lift_with_apex(uniform_matroid_complex(7, 4))
    (sigma, alpha), *rest = assign.pairs
    return s, AlphaAssignment(((sigma, sigma - {max(alpha)}), *rest))


def _chromatic_by_the_direct_route(rep, s, reason):
    """The chromatic scans read chi_c of s, summed directly because of
    ``reason``."""
    subs = rep.details["sub_results"]
    assert rep.details["chromatic_route"] == f"direct ({reason})"
    assert subs["chromatic"]["details"]["sequence"] == list(
        chromatic_polynomial(s).coeffs)
    assert subs["chromatic_translate"]["verdict"] != "NOT_APPLICABLE"


def test_a_refused_assignment_falls_back_to_the_direct_route(monkeypatch):
    s, changed = _refused_u74_assignment()
    rep = log_concavity_report(s, changed)
    _chromatic_by_the_direct_route(rep, s, "assignment fails the target invariant")
    # the failing I is {0, 3}; the walker visits {0} and refuses {0, 1}
    monkeypatch.setattr(auxiliary, "SEARCH_NODE_LIMIT", 1)
    refused = log_concavity_report(s, changed)
    _chromatic_by_the_direct_route(
        refused, s, "2 subsets walked by the target invariant exceed the 1 limit")
    # the same verdicts as without an assignment
    plain = log_concavity_report(s)
    assert plain.details["chromatic_route"] == "direct"
    assert (rep.details["sub_results"] == refused.details["sub_results"]
            == plain.details["sub_results"])


def test_an_assignment_failing_the_invariant_falls_back_to_the_direct_route():
    # three isolated points: the three edges each keep one vertex, so their
    # alphas cover three vertices where the invariant allows two
    s = SC.from_minimal_nonfaces("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assign = AlphaAssignment(((frozenset("ab"), frozenset("a")),
                              (frozenset("bc"), frozenset("b")),
                              (frozenset("ac"), frozenset("c"))))
    rep = log_concavity_report(s, assign)
    _chromatic_by_the_direct_route(rep, s, "assignment fails the target invariant")
    assert rep.details["sub_results"]["chromatic"]["details"]["sequence"] == [
        0, 2, -3, 1]


def test_both_routes_refused_is_not_applicable(monkeypatch):
    s, changed = _refused_u74_assignment()
    monkeypatch.setattr(report, "STATE_LIMIT", 1)
    rep = log_concavity_report(s, changed)
    _chromatic_not_applicable(rep, "2 live states exceed the 1 limit; "
                                   "use the auxiliary-complex identity instead")


def test_log_concavity_through_the_identity_route():
    u = uniform_matroid_complex(9, 6)
    s, assign = lift_with_apex(u)
    rep = log_concavity_report(s, assign)
    assert rep.details["chromatic_route"] == "identity"
    # the chromatic coefficients are the reversed h-vector of the matroid
    # complex padded with zeros: log concave
    assert rep.details["sub_results"]["chromatic"]["verdict"] == "PASS"


def test_translate_consistency_on_small_lifts():
    import random
    from simpchrom.sampling import random_complex
    rng = random.Random(71)
    for _ in range(10):
        t = random_complex(rng, n_max=5, r_max=3)
        s, assign = lift_with_apex(t)
        if s.n > 6:
            continue
        chi = chromatic_polynomial(s)
        translated = substitute_shift(chi)
        # term-by-term translate of the alpha-union expansion
        expanded = P(())
        from itertools import combinations
        alphas = assign.alphas
        shift = P((-1, 1))
        for k in range(len(alphas) + 1):
            for idx in combinations(range(len(alphas)), k):
                union = frozenset().union(*(alphas[i] for i in idx)) if idx \
                    else frozenset()
                expanded = expanded + (-1) ** k * shift ** (s.n - len(union))
        assert translated == expanded


def test_dehn_sommerville():
    assert dehn_sommerville_check(octahedron_boundary()).passed
    assert dehn_sommerville_check(points_complex("ab")).passed
    rep = dehn_sommerville_check(points_complex("abc"))
    assert not rep.passed and rep.witness["pair"] == [1, 2]


def test_reciprocity_octahedron_lifts():
    octa = octahedron_boundary()
    s_dis, a_dis = lift_disjoint(octa)
    rep = reciprocity_report(s_dis, a_dis)
    assert rep.passed
    assert rep.details["sign"] == -1
    assert rep.details["chromatic"] == [0, 0, 0, -1, 0, 3, 0, -3, 0, 1]
    assert rep.details["literal_t5_t3_claim"] == {"t5": 3, "t3": -1,
                                                  "equal": False}
    s_apex, a_apex = lift_with_apex(octa)
    rep2 = reciprocity_report(s_apex, a_apex)
    assert rep2.passed and rep2.details["sign"] == -1
    assert rep2.details["chromatic"] == [0, -1, 0, 3, 0, -3, 0, 1]


def test_reciprocity_fails_for_non_palindromic_auxiliary():
    three = points_complex("123")
    s, assign = lift_with_apex(three)
    rep = reciprocity_report(s, assign)
    assert not rep.passed


def test_reciprocity_square_polygon_auxiliary():
    # 4-cycle boundary: h = (1, 2, 1), a polytope boundary; its apex lift
    # passes with sign (-1)^(4 - 2)
    square = SC.from_minimal_nonfaces("abcd", [("a", "c"), ("b", "d")])
    assert h_vector(square).entries == (1, 2, 1)
    assert dehn_sommerville_check(square).passed
    s, assign = lift_with_apex(square)
    rep = reciprocity_report(s, assign)
    assert rep.passed and rep.details["sign"] == 1


@pytest.fixture
def antichain_checks(monkeypatch):
    """The generators of every NonfaceFamily that runs the input check."""
    checks = []
    check = NonfaceFamily.__post_init__

    def counted(self):
        checks.append(self.generators)
        check(self)

    monkeypatch.setattr(NonfaceFamily, "__post_init__", counted)
    return checks


@pytest.mark.parametrize("build", [octahedron_boundary,
                                   lambda: uniform_matroid_complex(9, 4)],
                         ids=["octahedron", "U(9,4)"])
def test_a_lift_and_its_report_check_only_the_alphas(build, antichain_checks):
    # both lifts are apex-shaped: the target invariant passes them in O(r)
    T = build()
    antichain_checks.clear()
    S, assign = lift_with_apex(T)
    rep = log_concavity_report(S, assign)
    assert rep.details["chromatic_route"] == "identity"
    # the lift hands its auxiliary complex over: the alphas are not input
    assert antichain_checks == []
    # the same pairs given as input are checked once, where they enter
    report = log_concavity_report(S, AlphaAssignment(assign.pairs))
    assert report == rep
    assert len(antichain_checks) == 1
    assert {frozenset(a) for a in antichain_checks[0]} == set(assign.alphas)


def _counted(monkeypatch, name):
    """The first argument of every call of complexes.<name>."""
    calls = []
    work = getattr(complexes, name)

    def counted(first, *rest):
        calls.append(first)
        return work(first, *rest)

    monkeypatch.setattr(complexes, name, counted)
    return calls


@pytest.fixture
def dualizations(monkeypatch):
    """The vertex count of every dualization of nonfaces to facets."""
    return _counted(monkeypatch, "_maximal_generator_free")


@pytest.fixture
def closures(monkeypatch):
    """The facets of every face closure."""
    return _counted(monkeypatch, "_downward_closure")


@pytest.mark.parametrize("lift", [lift_disjoint, lift_with_apex])
def test_a_lift_builds_s_without_dualizing(lift, dualizations):
    T = octahedron_boundary()
    T.facet_masks  # the lift reads them; T given by its nonfaces dualizes here
    dualizations.clear()
    lift(T)
    assert dualizations == []


@pytest.mark.parametrize("lift", [lift_disjoint, lift_with_apex])
def test_a_reciprocity_report_builds_its_auxiliary_complex_once(
        lift, antichain_checks, dualizations):
    # both lifts of the octahedron have the antipodal pairs as alphas, so
    # their auxiliary complex is the octahedron and the literal claim is kept
    S, assign = lift(octahedron_boundary())
    antichain_checks.clear()
    dualizations.clear()
    rep = reciprocity_report(S, assign)
    assert rep.passed and "literal_t5_t3_claim" in rep.details
    # the lift built the complex already
    assert antichain_checks == [] and dualizations == []
    assert reciprocity_report(S, AlphaAssignment(assign.pairs)) == rep
    assert len(antichain_checks) == 1
    assert dualizations == [6]


def test_nonface_commands_neither_dualize_nor_close_faces(
        dualizations, closures, tmp_path, monkeypatch, capsys):
    # the two nonfaces meet, so verify-cc also checks its identity
    (tmp_path / "s.json").write_text(json.dumps(
        {"vertices": list("abcde"), "minimal_nonfaces": [["a", "b", "c"],
                                                         ["c", "d"]]}))
    monkeypatch.chdir(tmp_path)
    for argv in (["chromatic", "s.json"], ["oracle-count", "s.json", "--q", "3"],
                 ["verify-ac", "s.json", "--nonface", "a,b,c"],
                 ["verify-ac", "s.json", "--nonface", "c,d",
                  "--convention", "remove"],
                 ["verify-cc", "s.json", "--a", "1"]):
        assert main(argv) == 0, argv
    assert '"identity_checked": true' in capsys.readouterr().out
    # 26 random 9-element nonfaces on 25 vertices: the face closure of this
    # input holds millions of faces
    rng = random.Random(1)
    labels = [f"v{i:02d}" for i in range(25)]
    gens = set()
    while len(gens) < 26:
        gens.add(tuple(sorted(rng.sample(labels, 9))))
    wide = SC.from_minimal_nonfaces(labels, gens)
    assert verify_addition_contraction(wide, min(gens)).verdict == "FAIL"
    assert dualizations == [] and closures == []


def suite_rows(monkeypatch, prefix, count):
    """The rows of run_sweep(42) with only the named suite, drawing count
    instances."""
    _, _, check_name, suite = next(s for s in sweep.SUITES if s[0] == prefix)
    monkeypatch.setattr(sweep, "SUITES", ((prefix, count, check_name, suite),))
    return sweep.run_sweep(42)


def test_the_sweep_round_trip_checks_no_family(antichain_checks, monkeypatch):
    rows = suite_rows(monkeypatch, "roundtrip", 20)
    assert all(row["verdict"] == "PASS" for row in rows)
    # one check per sampled complex, whose nonfaces arrive as label lists;
    # the round trip through the facets adds none
    assert len(antichain_checks) == 20


def test_a_broken_nonface_recovery_fails_the_sweep_round_trip(monkeypatch):
    recover = SC.minimal_nonface_masks.func
    broken = cached_property(lambda s: recover(s)[1:])
    broken.__set_name__(SC, "minimal_nonface_masks")
    monkeypatch.setattr(SC, "minimal_nonface_masks", broken)
    rows = suite_rows(monkeypatch, "roundtrip", 20)
    # only a complex with no nonface has none to drop
    assert [row["verdict"] for row in rows] == [
        "FAIL" if row["r"] else "PASS" for row in rows]
    assert "FAIL" in [row["verdict"] for row in rows]


def test_a_broken_graph_oracle_fails_the_sweep_graph_rows(monkeypatch):
    monkeypatch.setattr(sweep, "graph_chromatic", lambda g: P((7,)))
    rows = suite_rows(monkeypatch, "graph", 5)
    assert [row["verdict"] for row in rows] == ["FAIL"] * 5
    assert all(json.loads(row["witness"])["deletion_contraction"] == [7]
               for row in rows)


def _failed_main_theorem(S, assign):
    rep = verify_main_theorem(S, assign)
    return CheckReport(rep.name, "FAIL", rep.witness, rep.details)


@pytest.mark.parametrize("prefix, name, broken, keys", [
    ("oracle", "finite_model_count", lambda S, q: -1, {"q", "poly", "count"}),
    ("hilbert", "numerator_from_h", lambda S: P((7,)),
     {"inclusion_exclusion", "from_h"}),
    ("hilbert", "standard_monomial_count", lambda S, m: -1,
     {"m", "series", "monomials"}),
    ("theorem", "verify_main_theorem", _failed_main_theorem,
     {"check_a_numerator_form", "check_b_h_form", "chromatic", "numerator_T",
      "h_T", "n_S", "n_T", "d_T", "h_equals_numerator_regime"}),
], ids=["oracle", "hilbert-numerator", "hilbert-series", "theorem"])
def test_a_broken_route_fails_its_sweep_rows(prefix, name, broken, keys,
                                              monkeypatch):
    monkeypatch.setattr(sweep, name, broken)
    rows = suite_rows(monkeypatch, prefix, 5)
    assert [row["verdict"] for row in rows] == ["FAIL"] * 5
    assert all(set(json.loads(row["witness"])) == keys for row in rows)


def test_reciprocity_is_refused_when_the_main_theorem_fails():
    # on the triangle's edges, alphas a, b, c give K_T = (1 - t)^3, not the
    # reversed chi_c = t(t - 1)(t - 2)
    triangle = SC.from_minimal_nonfaces("abc", [("a", "b"), ("b", "c"),
                                                ("a", "c")])
    assign = AlphaAssignment(((frozenset("ab"), frozenset("a")),
                              (frozenset("bc"), frozenset("b")),
                              (frozenset("ac"), frozenset("c"))))
    assert not verify_main_theorem(triangle, assign).passed
    with pytest.raises(ValueError, match="reciprocity is undefined"):
        reciprocity_report(triangle, assign)


def test_a_repeated_sigma_is_rejected():
    # as a set the sigmas are the square's minimal nonfaces; ac is given twice
    square = SC.from_minimal_nonfaces("abcd", [("a", "c"), ("b", "d")])
    assign = AlphaAssignment(((frozenset("ac"), frozenset("a")),
                              (frozenset("ac"), frozenset("c")),
                              (frozenset("bd"), frozenset("b"))))
    for check in (verify_main_theorem, log_concavity_report, reciprocity_report):
        with pytest.raises(ValueError, match="differ from the minimal nonfaces"):
            check(square, assign)
