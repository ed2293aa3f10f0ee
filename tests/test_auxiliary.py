"""Companion-set checks, alpha search, lifts, and the reversed-numerator identity."""

import random
import sys
from itertools import combinations, product

import pytest

from simpchrom import auxiliary, complexes
from simpchrom.analysis import log_concavity_report, uniform_matroid_complex
from simpchrom.auxiliary import (AlphaAssignment, LITERAL, STRICT,
                                 auxiliary_complex, check_intersection_property,
                                 check_target_invariant, hilbert_polynomial_window,
                                 is_apex_assignment, lift_disjoint, lift_with_apex,
                                 search_alpha, verify_constant_component,
                                 verify_main_theorem)
from simpchrom.chromatic import chromatic_polynomial
from simpchrom.complexes import NonfaceFamily, SimplicialComplex
from simpchrom.hilbert import numerator_by_inclusion_exclusion
from simpchrom.polynomials import IntPolynomial, reciprocal
from simpchrom.report import GuardError
from simpchrom.sampling import random_complex, random_intersecting_complex

from oracles import component_count, points_complex

P = IntPolynomial
SC = SimplicialComplex


def fs(*labels):
    return frozenset(labels)


def triangle_boundary():
    return SC.from_minimal_nonfaces("123", [("1", "2", "3")])


def square_complex():
    return SC.from_minimal_nonfaces("abcd", [("a", "c"), ("b", "d")])


def octahedron():
    return SC.from_minimal_nonfaces("abcdef", [("a", "c"), ("b", "d"), ("e", "f")])


def paper_beta_assignment():
    """The five-nonface assignment on two joined vertex groups, in its
    original listing order: sigmas ab, cd, ce, de, ae with singleton alphas."""
    sigmas = [("a", "b"), ("c", "d"), ("c", "e"), ("d", "e"), ("a", "e")]
    alphas = [("b",), ("c",), ("d",), ("e",), ("a",)]
    return AlphaAssignment(tuple(
        (frozenset(s), frozenset(a)) for s, a in zip(sigmas, alphas)))


def test_alpha_assignment_validation():
    with pytest.raises(ValueError, match="sigma"):
        AlphaAssignment(((fs("a", "b"), fs("a", "b")),))
    a = AlphaAssignment(((fs("a", "b"), fs("x")),))
    assert a.sigmas == (fs("a", "b"),)


def test_intersection_property_disjoint_pairs():
    assign = AlphaAssignment(((fs("a", "c"), fs("a")), (fs("b", "d"), fs("b"))))
    assert check_intersection_property(assign, LITERAL).passed
    assert check_intersection_property(assign, STRICT).passed
    assert check_target_invariant(assign).passed
    with pytest.raises(ValueError, match="^unknown mode 'loose'$"):
        check_intersection_property(assign, "loose")


def test_intersection_property_common_point_family():
    sigmas = [fs("a", "b", "c"), fs("a", "d", "e"), fs("a", "f", "g")]
    assign = AlphaAssignment(tuple((s, s - {"a"}) for s in sigmas))
    assert check_intersection_property(assign, LITERAL).passed
    assert check_intersection_property(assign, STRICT).passed
    assert check_target_invariant(assign).passed
    # adjoining a set disjoint from all three keeps the invariant
    extended = AlphaAssignment(assign.pairs + ((fs("u", "v"), fs("u")),))
    assert check_intersection_property(extended, STRICT).passed
    assert check_target_invariant(extended).passed


def test_pairwise_single_overlap_family_has_no_assignment():
    # three 3-sets meeting pairwise in one point each, empty triple meet:
    # dropping one designated overlap point per set does NOT satisfy the
    # conditions, because the union of two sigmas meets the third in BOTH
    # remaining overlap points while the companions stay disjoint
    s1, s2, s3 = fs("a", "b", "x"), fs("a", "c", "y"), fs("b", "c", "z")
    assign = AlphaAssignment((
        (s1, s1 - {"a"}), (s2, s2 - {"c"}), (s3, s3 - {"b"})))
    rep = check_intersection_property(assign, STRICT)
    assert not rep.passed
    assert rep.witness["sigma_intersection"] == 2
    assert rep.witness["alpha_intersection"] == 0
    ti = check_target_invariant(assign)
    assert not ti.passed
    assert ti.witness["sigma_union_size"] == 6
    assert ti.witness["alpha_union_size"] == 6  # needs 6 - c = 5: impossible
    # no companion family exists at all: the pairwise cases force disjoint
    # 2-sets (union 6) while the triple case demands union 5
    family = NonfaceFamily((("a", "b", "x"), ("a", "c", "y"), ("b", "c", "z")))
    assert search_alpha(family) is None


def test_paper_order_assignment_fails_target_invariant():
    # first failing subset in (size, listing-order) scan: the three
    # pairwise-meeting nonfaces cd, ce, de against their singleton alphas
    rep = check_target_invariant(paper_beta_assignment())
    assert not rep.passed
    assert rep.witness["I"] == [["c", "d"], ["c", "e"], ["d", "e"]]
    assert rep.witness["sigma_union_size"] == 3
    assert rep.witness["components"] == 1
    assert rep.witness["alpha_union_size"] == 3


def test_paper_order_assignment_fails_strict_mode():
    assign = paper_beta_assignment()
    rep = check_intersection_property(assign, STRICT)
    assert not rep.passed
    # first witness in scan order; |I| = 2 so LITERAL sees it too
    assert rep.witness == {
        "I": [["a", "b"], ["c", "e"]], "p": ["a", "e"], "clause": "cardinality",
        "alpha_intersection": 0, "sigma_intersection": 2}
    assert not check_intersection_property(assign, LITERAL).passed
    # the pair named in the module notes is also a genuine violation
    sig_i = fs("c", "d") | fs("c", "e")
    alf_i = fs("c") | fs("d")
    assert len(sig_i & fs("d", "e")) - 1 == 1
    assert len(alf_i & fs("e")) == 0


def test_pairwise_clauses_hold_for_paper_assignment():
    # every size-1 subset satisfies the strict clause; failures need |I| >= 2
    assign = paper_beta_assignment()
    sigmas, alphas = assign.sigmas, assign.alphas
    for i in range(5):
        for p in range(5):
            if i == p:
                continue
            if sigmas[i] & sigmas[p]:
                assert len(alphas[i] & alphas[p]) == len(sigmas[i] & sigmas[p]) - 1
            else:
                assert not (alphas[i] & alphas[p])


def test_search_alpha_fixtures():
    found = search_alpha(square_complex().minimal_nonfaces())
    assert [sorted(a) for a in found.alphas] == [["a"], ["b"]]
    found = search_alpha(triangle_boundary().minimal_nonfaces())
    assert [sorted(a) for a in found.alphas] == [["1", "2"]]


def test_search_alpha_not_found_for_paper_family():
    family = NonfaceFamily((("a", "b"), ("a", "e"), ("c", "d"),
                            ("c", "e"), ("d", "e")))
    assert search_alpha(family) is None


def test_auxiliary_complex_fixtures():
    sq_assign = search_alpha(square_complex().minimal_nonfaces())
    t = auxiliary_complex(sq_assign)
    # both vertices are formal nonfaces, which only a relaxed build admits
    assert t.n == 2 and t.facet_masks == (0,)
    assert t.minimal_nonfaces().generators == (("a",), ("b",))
    tri_assign = search_alpha(triangle_boundary().minimal_nonfaces())
    assert auxiliary_complex(tri_assign) == points_complex("12")
    octa_assign = AlphaAssignment(tuple(
        (fs(*s) | {"q"}, fs(*s))
        for s in [("a", "c"), ("b", "d"), ("e", "f")]))
    assert auxiliary_complex(octa_assign) == octahedron()


def test_auxiliary_complex_rejects_comparable_alphas():
    assign = AlphaAssignment(((fs("a", "b"), fs("x")),
                              (fs("c", "d", "e"), fs("x", "y"))))
    with pytest.raises(ValueError, match="antichain"):
        auxiliary_complex(assign)


def test_lift_with_apex_fixtures():
    s, assign = lift_with_apex(points_complex("12"))
    assert s == triangle_boundary().__class__.from_minimal_nonfaces(
        ["1", "2", "q"], [("1", "2", "q")])
    assert check_target_invariant(assign).passed
    full = SC.from_minimal_nonfaces("ab", [])
    lifted, _ = lift_with_apex(full)
    assert lifted.facets == (("a", "b", "q"),)
    octa_s, octa_assign = lift_with_apex(octahedron())
    assert octa_s.n == 7
    assert is_apex_assignment(octa_assign)
    assert is_apex_assignment(AlphaAssignment(()))


def test_an_apex_lift_past_the_vertex_limit_enumerates_nothing(monkeypatch):
    # S is built from T's masks: T's one dualization runs, and no closure
    calls = []
    for name in ("_maximal_generator_free", "_downward_closure"):
        def run(*args, name=name, work=getattr(complexes, name)):
            calls.append(name)
            return work(*args)
        monkeypatch.setattr(complexes, name, run)
    T = SC.from_minimal_nonfaces([f"v{i:02d}" for i in range(25)],
                                 [["v00", "v01"]])
    S, assign = lift_with_apex(T)
    assert S.n == 26 and len(S.facet_masks) == 3 and len(assign) == 1
    assert calls == ["_maximal_generator_free"]
    # S's own face side keeps its guard
    with pytest.raises(GuardError) as exc:
        log_concavity_report(S, assign)
    assert exc.value.limit == "vertex_count"
    assert calls == ["_maximal_generator_free"]


def test_lift_disjoint_fixtures():
    s, assign = lift_disjoint(octahedron())
    assert s.n == 9
    assert [sorted(x) for x in assign.sigmas] == [
        ["a", "c", "q1"], ["b", "d", "q2"], ["e", "f", "q3"]]
    assert check_target_invariant(assign).passed
    s2, _ = lift_disjoint(points_complex("12"))
    assert s2.n == 3
    with pytest.raises(ValueError, match="not disjoint"):
        lift_disjoint(SC.from_minimal_nonfaces("123", [("1", "2"), ("2", "3")]))


def test_both_lifts_name_the_new_vertex_past_taken_labels():
    # q and q0 are taken, so the apex lift's fresh label is q1; the disjoint
    # lift's first label is q1 already
    T = SC.from_minimal_nonfaces(["q", "q0", "a"], [["a", "q"]])
    for lift in (lift_with_apex, lift_disjoint):
        S, assign = lift(T)
        assert S.vertices == ("a", "q", "q0", "q1")
        assert [sorted(s) for s in assign.sigmas] == [["a", "q", "q1"]]
        assert [sorted(a) for a in assign.alphas] == [["a", "q"]]


def disjoint_nonface_complex(rng):
    """Strict complex whose minimal nonfaces are pairwise disjoint blocks."""
    labels = list("abcdefghij"[:rng.randint(2, 10)])
    rest = rng.sample(labels, len(labels))
    blocks = []
    while len(rest) >= 2 and rng.random() < 0.85:
        size = rng.randint(2, min(4, len(rest)))
        blocks.append(rest[:size])
        rest = rest[size:]
    return SC.from_minimal_nonfaces(labels, blocks)


def test_lifts_equal_the_checked_construction():
    # the apex lift builds S and both lifts build T's auxiliary complex from
    # masks, with no input check; the checked construction from the sigmas
    # and the alphas as label lists must give the same complexes
    rng = random.Random(61)
    complexes = [random_complex(rng, n_max=8) for _ in range(40)]
    disjoint = [disjoint_nonface_complex(rng) for _ in range(40)]
    cases = {
        # c lies in no nonface
        "cone vertex": SC.from_minimal_nonfaces(
            "abcdef", [("a", "b", "f"), ("d", "e")]),
        "no nonface": SC.from_minimal_nonfaces("ab", []),
        "relaxed singleton": SC.from_minimal_nonfaces(
            "abcd", [("a",), ("b", "c")], relaxed=True),
        "no vertex": SC.from_facets([], []),
        # the apex q0 sorts between q and z
        "apex mid-order": SC.from_minimal_nonfaces(["a", "q", "z"], [("a", "z")]),
        # q and q1 are taken: the apex is q0 and the disjoint vertices q10, q2
        "fresh labels collide": SC.from_minimal_nonfaces(
            ["a", "b", "q", "q1"], [("a", "q"), ("b", "q1")]),
    }
    lifts = [lift_with_apex(t) for t in complexes + disjoint]
    lifts += [lift_disjoint(t) for t in disjoint]
    for t in cases.values():
        lifts += [lift_with_apex(t), lift_disjoint(t)]
    assert max(len(assign) for _, assign in lifts) >= 5
    assert lift_with_apex(cases["apex mid-order"])[0].vertices == ("a", "q", "q0", "z")
    collide = cases["fresh labels collide"]
    assert lift_with_apex(collide)[0].vertices == ("a", "b", "q", "q0", "q1")
    assert lift_disjoint(collide)[0].vertices == ("a", "b", "q", "q1", "q10", "q2")
    for s, assign in lifts:
        sigmas = [sorted(x) for x in assign.sigmas]
        checked = SC.from_minimal_nonfaces(s.vertices, sigmas)
        # the strict construction above refuses a singleton sigma
        assert s == checked
        assert all(m.bit_count() > 1 for m in s.minimal_nonface_masks)
        assert s.minimal_nonface_masks == checked.minimal_nonface_masks == \
            SC(s.vertices, s.facet_masks).minimal_nonface_masks
        assert s.minimal_nonfaces() == NonfaceFamily(tuple(map(tuple, sigmas)))
        # the handed-over complex is the one the alphas give as input
        given = AlphaAssignment(assign.pairs)
        handed, rebuilt = auxiliary_complex(assign), auxiliary_complex(given)
        assert handed is not rebuilt
        for name in ("vertices", "facet_masks", "minimal_nonface_masks"):
            assert getattr(handed, name) == getattr(rebuilt, name)
        # and takes no part in the assignment's value
        assert given == assign and hash(given) == hash(assign)
        assert repr(given) == repr(assign)


def test_verify_main_theorem_three_fixtures():
    tri = triangle_boundary()
    rep = verify_main_theorem(tri, search_alpha(tri.minimal_nonfaces()))
    assert rep.passed and not rep.details["check_b_h_form"]
    assert rep.details["chromatic"] == [0, -1, 0, 1]

    sq = square_complex()
    rep = verify_main_theorem(sq, search_alpha(sq.minimal_nonfaces()))
    assert rep.passed and not rep.details["check_b_h_form"]
    assert rep.details["chromatic"] == [0, 0, 1, -2, 1]

    s_apex, a_apex = lift_with_apex(octahedron())
    rep = verify_main_theorem(s_apex, a_apex)
    assert rep.passed
    assert rep.details["chromatic"] == [0, -1, 0, 3, 0, -3, 0, 1]
    s_dis, a_dis = lift_disjoint(octahedron())
    rep = verify_main_theorem(s_dis, a_dis)
    assert rep.passed
    assert rep.details["chromatic"] == [0, 0, 0, -1, 0, 3, 0, -3, 0, 1]


def test_main_theorem_on_random_apex_lifts():
    rng = random.Random(303)
    for _ in range(30):
        t = random_complex(rng, n_max=7, r_max=4)
        s, assign = lift_with_apex(t)
        rep = verify_main_theorem(s, assign)
        assert rep.passed
        # printed h-form agrees exactly when the lift's auxiliary complex is
        # a simplex
        assert rep.details["check_b_h_form"] == (
            rep.details["n_T"] == rep.details["d_T"])


def test_strict_property_implies_target_invariant_on_sample():
    rng = random.Random(304)
    tested = 0
    for _ in range(200):
        t = random_complex(rng, n_max=6, r_max=3)
        s, assign = lift_with_apex(t)
        if check_intersection_property(assign, STRICT).passed:
            assert check_target_invariant(assign).passed
            tested += 1
    assert tested >= 30


def test_disjoint_and_apex_lifts_share_the_numerator_factor():
    rng = random.Random(305)
    seen = 0
    while seen < 10:
        t = random_complex(rng, n_min=2, n_max=6, r_max=3)
        gens = [set(g) for g in t.minimal_nonfaces().generators]
        if not gens or any(g & h for g in gens for h in gens if g is not h):
            continue
        seen += 1
        s_apex, a_apex = lift_with_apex(t)
        s_dis, a_dis = lift_disjoint(t)
        chi_apex = chromatic_polynomial(s_apex)
        chi_dis = chromatic_polynomial(s_dis)
        r = len(gens)
        assert chi_dis == chi_apex * P((0, 1)) ** (r - 1)
        k = numerator_by_inclusion_exclusion(t.minimal_nonfaces())
        assert chi_apex == reciprocal(k, s_apex.n)
        assert chi_dis == reciprocal(k, s_dis.n)


def test_equal_numerators_and_vertex_counts_give_equal_chromatics():
    # determination property: chi_c is a function of (n, K_T) alone
    rng = random.Random(306)
    pool = {}
    for _ in range(120):
        t = random_complex(rng, n_max=5, r_max=3)
        s, assign = lift_with_apex(t)
        k = tuple(numerator_by_inclusion_exclusion(t.minimal_nonfaces()).coeffs)
        chi = chromatic_polynomial(s)
        key = (s.n, k)
        if key in pool:
            assert pool[key] == chi
        else:
            pool[key] = chi


def test_verify_constant_component():
    path = SC.from_minimal_nonfaces("123", [("1", "2"), ("2", "3")])
    assert verify_constant_component(path, 1).passed
    rep = verify_constant_component(square_complex(), 1)
    assert not rep.passed and rep.witness["components"] == 2
    rng = random.Random(307)
    for _ in range(20):
        s = random_intersecting_complex(rng, n_max=7, r_max=4)
        assert verify_constant_component(s, 1).passed


def test_hilbert_polynomial_window_fixtures():
    path = SC.from_minimal_nonfaces("123", [("1", "2"), ("2", "3")])
    window, rep = hilbert_polynomial_window(path, 1)
    assert window == P((0, -2, 1))
    assert rep.verdict == "FAIL"
    assert rep.witness["reason"] == "negative coefficient"
    full = SC.from_minimal_nonfaces("abc", [])
    window, rep = hilbert_polynomial_window(full, 1)
    assert window.is_zero() and rep.verdict == "NOT_APPLICABLE"
    with pytest.raises(ValueError, match="constant-component"):
        hilbert_polynomial_window(square_complex(), 1)


def test_a_negative_component_count_is_a_usage_error():
    # the simplex's K = 1 has no coefficient below degree 0 for a < 0 to
    # read, and no complex has a negative component count to check
    full = SC.from_minimal_nonfaces("abc", [])
    for a in (-1, -5):
        for s in (full, square_complex()):
            with pytest.raises(ValueError, match=f"^a = {a} below 0"):
                verify_constant_component(s, a)
            with pytest.raises(ValueError, match=f"^a = {a} below 0"):
                hilbert_polynomial_window(s, a)
    _, rep = hilbert_polynomial_window(full, 0)
    assert rep.details["window"] == [1]


def test_a_failed_identity_fails_the_window(monkeypatch):
    # the window reads the numerator only once chi_c has confirmed it; with
    # a wrong chi_c the path's window would otherwise FAIL on its criterion,
    # with its own witness, and the simplex's empty one be NOT_APPLICABLE
    monkeypatch.setattr(auxiliary, "chromatic_polynomial",
                        lambda s: P.monomial(s.n) + 1)
    for s in (SC.from_minimal_nonfaces("123", [("1", "2"), ("2", "3")]),
              SC.from_minimal_nonfaces("abc", [])):
        identity = verify_constant_component(s, 1)
        assert identity.details["identity_checked"] and not identity.passed
        _, rep = hilbert_polynomial_window(s, 1)
        assert rep.verdict == "FAIL" and rep.witness == identity.witness


def test_window_low_coefficient_is_never_large():
    # the degree-(a+1) window slot counts -(number of two-element nonfaces)
    # when a = 1, so the positivity hypotheses cannot fire on these samples;
    # the harness records NOT_FOUND rather than inventing a passing fixture
    rng = random.Random(308)
    found = []
    for _ in range(200):
        s = random_intersecting_complex(rng, n_max=8, r_max=5)
        window, rep = hilbert_polynomial_window(s, 1)
        if rep.verdict == "PASS":
            found.append(s)
        k = numerator_by_inclusion_exclusion(s.minimal_nonfaces())
        two_element = sum(1 for g in s.minimal_nonfaces().generators
                          if len(g) == 2)
        assert k[2] == -two_element
    assert found == []


def disjoint_pairs(r):
    return tuple((fs(f"a{i}", f"b{i}"), fs(f"a{i}")) for i in range(r))


def test_the_state_pass_proves_21_disjoint_pairs(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the state pass left 21 disjoint pairs to the walker")

    monkeypatch.setattr(auxiliary, "_walk", no_walk)
    assert check_target_invariant(AlphaAssignment(disjoint_pairs(21))).passed


# Three pairs take 7 subsets, or 3 * 2 + 3 * 1 pair tests outside I, so at
# that limit three pairs pass and four are refused at the next unit.
WALK_BOUNDS = {"check_intersection_property": (9, "pair tests by the intersection scan"),
               "check_target_invariant": (7, "subsets walked by the target invariant")}


@pytest.mark.parametrize("check", [check_intersection_property,
                                   check_target_invariant])
def test_each_walk_refuses_the_unit_past_its_bound(check, monkeypatch):
    limit, what = WALK_BOUNDS[check.__name__]
    monkeypatch.setattr(auxiliary, "SEARCH_NODE_LIMIT", limit)
    # the state pass proves disjoint pairs; without it the walker decides
    monkeypatch.setattr(auxiliary, "_invariant_by_state", lambda *masks: False)
    pairs = disjoint_pairs(4)
    with pytest.raises(GuardError) as exc:
        check(AlphaAssignment(pairs))
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "search_nodes", limit + 1, limit,
        f"{limit + 1} {what} exceed the {limit} limit")
    assert check(AlphaAssignment(pairs[:3])).passed
    # alpha_2 = alpha_0 with sigma_2 disjoint from sigma_0: the walker names
    # the failing I within the bound
    assign = AlphaAssignment(pairs[:2] + ((fs("a2", "b2"), fs("a0")),))
    rep = check(assign)
    brute = (brute_target_invariant(assign) if check is check_target_invariant
             else brute_intersection_property(assign, LITERAL))
    assert not rep.passed and rep.witness == brute


def ladder_antichain(r, n=12):
    """The lattice ladder's T with r nonfaces, as ``antichain`` in
    perfbench/workloads.py draws it."""
    rng = random.Random(f"lattice-ladder:{r}")
    labels = list("abcdefghijklmnopqrstuvwxyz"[:n])
    kept = []
    while len(kept) < r:
        g = frozenset(rng.sample(labels, rng.randint(2, 4)))
        if not any(g <= h or h <= g for h in kept):
            kept.append(g)
    return labels, sorted(tuple(sorted(g)) for g in kept)


def state_pass(assign, monkeypatch):
    """(proved, states summed) of the target invariant's state pass.

    Each step copies its live states with set() once, after adding them to
    the sum, so a counting set() in the module sees every state summed."""
    masks = auxiliary._bitmasks(assign.sigmas, assign.alphas)
    summed = 0

    def counting_set(states):
        nonlocal summed
        summed += len(states)
        return set(states)

    with monkeypatch.context() as m:
        m.setattr(auxiliary, "set", counting_set, raising=False)
        proved = auxiliary._invariant_by_state(*masks)
    return proved, summed


def walked_target_invariant(assign, monkeypatch):
    """check_target_invariant with the state pass proving nothing, so the
    walker scans every subset it needs."""
    with monkeypatch.context() as m:
        m.setattr(auxiliary, "_invariant_by_state", lambda *masks: False)
        return check_target_invariant(assign)


def test_states_and_walk_agree_on_the_target_invariant(monkeypatch):
    # remove-one alphas, and alphas drawn from all of V(S), which can carry
    # labels outside their sigma
    rng, outside_rng = random.Random(3), random.Random(4)
    counts = {"remove_one": [0, 0], "outside": [0, 0]}
    for _ in range(3000):
        S = random_complex(rng, n_max=7, r_max=6)
        if not S.minimal_nonface_masks:
            continue
        for kind, assign in (("remove_one", random_remove_one(rng, S)),
                             ("outside", random_companions(outside_rng, S))):
            rep = check_target_invariant(assign)
            walked = walked_target_invariant(assign, monkeypatch)
            assert (rep.verdict, rep.witness) == (walked.verdict, walked.witness)
            # up to six pairs the bound never fires: the pass proves every PASS
            assert auxiliary._invariant_by_state(*auxiliary._bitmasks(
                assign.sigmas, assign.alphas)) == rep.passed
            if kind == "remove_one" or any(not a <= g for g, a in assign.pairs):
                counts[kind][0] += 1
                counts[kind][1] += not rep.passed
    assert counts == {"remove_one": [2564, 1213], "outside": [1565, 1197]}


def test_the_state_pass_gives_up_within_its_bound(monkeypatch):
    # 19 disjoint pairs keep every subset of their x's apart until the last
    # sigma, which joins all x's; its alpha drops x00, so every I holding
    # it and a pair other than 0 fails, and only at the last pair
    xs = [f"x{i:02d}" for i in range(19)]
    pairs = tuple((fs(x, f"z{x[1:]}"), fs(x)) for x in xs) + (
        (frozenset(xs), frozenset(xs[1:])),)
    assign = AlphaAssignment(pairs)
    r = len(assign)
    proved, summed = state_pass(assign, monkeypatch)
    assert not proved and summed <= r << (r + 1) // 2
    rep = check_target_invariant(assign)
    assert rep.witness == brute_target_invariant(assign)
    assert rep.witness["I"] == [["x01", "z01"], xs]


def test_the_state_pass_alone_decides_the_lattice_ladder(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the state pass left a ladder lift to the walker")

    # r = 12..75 is every step the lattice ladder takes before its cap; the
    # largest sum is at r = 71
    with monkeypatch.context() as m:
        m.setattr(auxiliary, "_walk", no_walk)
        for r in range(12, 76):
            S, assign = lift_with_apex(SC.from_minimal_nonfaces(*ladder_antichain(r)))
            proved, summed = state_pass(assign, monkeypatch)
            assert len(assign) == r and proved and summed <= 47_672
            assert check_target_invariant(assign).passed
    # the adversarial family at 30 pairs: 29 disjoint pairs double the live
    # states at each step, and only the last pair, joining all x's, fails
    xs = [f"x{i:02d}" for i in range(29)]
    assign = AlphaAssignment(tuple((fs(x, f"z{x[1:]}"), fs(x)) for x in xs) + (
        (frozenset(xs), frozenset(xs[1:])),))
    monkeypatch.setattr(auxiliary, "STATE_LIMIT", 2 ** 12)
    proved, summed = state_pass(assign, monkeypatch)
    # 2^k - 1 states summed after k pairs, and the next step passes the cap
    assert not proved and summed == 2 ** 12 - 1
    rep = check_target_invariant(assign)
    assert rep.witness == brute_target_invariant(assign, max_size=2)
    assert rep.witness["I"] == [["x01", "z01"], xs]


def test_an_apex_lift_passes_without_the_state_pass_or_the_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an apex lift reached the state pass or the walk")

    S, assign = lift_with_apex(uniform_matroid_complex(12, 6))
    assert len(assign) == 792
    monkeypatch.setattr(auxiliary, "_invariant_by_state", refuse)
    monkeypatch.setattr(auxiliary, "_walk", refuse)
    assert check_target_invariant(assign).passed


def test_an_apex_shape_broken_at_one_alpha_is_walked(monkeypatch):
    calls = []

    def counted(name):
        work = getattr(auxiliary, name)

        def run(*args, **kwargs):
            calls.append(name)
            return work(*args, **kwargs)
        monkeypatch.setattr(auxiliary, name, run)

    counted("_invariant_by_state")
    counted("_walk")
    S, assign = lift_with_apex(uniform_matroid_complex(5, 2))
    # alpha_i = sigma_i - x keeps the apex q, so the shape no longer holds
    for i, (sigma, alpha) in enumerate(assign.pairs):
        for x in sorted(alpha):
            pairs = list(assign.pairs)
            pairs[i] = (sigma, sigma - {x})
            broken = AlphaAssignment(tuple(pairs))
            assert not is_apex_assignment(broken)
            calls.clear()
            rep = check_target_invariant(broken)
            assert calls == ["_invariant_by_state", "_walk"]
            assert not rep.passed
            assert rep.witness == brute_target_invariant(broken)


def test_a_walk_past_the_recursion_limit_ends_on_search_nodes(monkeypatch):
    # U(13,6)'s apex lift and one disjoint pair: not apex-shaped, so the
    # target invariant walks it, and the walk goes down one pair per subset
    S, lift = lift_with_apex(uniform_matroid_complex(13, 6))
    assign = AlphaAssignment(lift.pairs + ((fs("y", "z"), fs("y")),))
    assert len(assign) == 1717 > sys.getrecursionlimit()
    monkeypatch.setattr(auxiliary, "SEARCH_NODE_LIMIT", 5000)
    for check, measured, what in (
            (check_target_invariant, 5001, "subsets walked by the target invariant"),
            # 1716 + 1715 + 1714 pair tests outside I = {0}, {0, 1}, {0, 1, 2}
            (check_intersection_property, 5145, "pair tests by the intersection scan")):
        with pytest.raises(GuardError) as exc:
            check(assign)
        err = exc.value
        assert (err.limit, err.measured, str(err)) == (
            "search_nodes", measured, f"{measured} {what} exceed the 5000 limit")


def test_the_intersection_scan_tests_the_pairs_it_counts(monkeypatch):
    # each visit of I tests the r - |I| pairs outside I, one unit each, and
    # no pair inside I: r 2^(r-1) - r tests on a passing walk of r pairs
    tested = []
    bits = auxiliary._bits

    def counted(mask):
        for p in bits(mask):
            tested.append(p)
            yield p

    monkeypatch.setattr(auxiliary, "_bits", counted)
    for r in range(1, 8):
        tested.clear()
        assert check_intersection_property(AlphaAssignment(disjoint_pairs(r))).passed
        assert len(tested) == r * 2 ** (r - 1) - r
    monkeypatch.setattr(auxiliary, "SEARCH_NODE_LIMIT", 7 * 2 ** 6 - 7)
    assert check_intersection_property(AlphaAssignment(disjoint_pairs(7))).passed


def test_search_alpha_node_guard_counts_walked_subsets(monkeypatch):
    # 4^11 candidate combinations, but the first candidate passes at every
    # level, so the search walks only 2^11 - 1 subsets
    family = NonfaceFamily(tuple(
        tuple(f"{c}{i:02d}" for c in "wxyz") for i in range(11)))
    found = search_alpha(family)
    assert [sorted(a) for a in found.alphas] == [
        [f"w{i:02d}", f"x{i:02d}", f"y{i:02d}"] for i in range(11)]
    monkeypatch.setattr(auxiliary, "SEARCH_NODE_LIMIT", 100)
    with pytest.raises(GuardError) as exc:
        search_alpha(family)
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "search_nodes", 101, 100,
        "101 subsets walked by the alpha search exceed the 100 limit")


# -- brute-force references: every subset, by size then lexicographically --

def first_failure(r, fails, max_size=None):
    for k in range(1, (max_size or r) + 1):
        for idx in combinations(range(r), k):
            witness = fails(idx)
            if witness is not None:
                return witness
    return None


def union(sets):
    return frozenset().union(*sets)


def brute_target_invariant(assign, max_size=None):
    sigmas, alphas = assign.sigmas, assign.alphas

    def fails(idx):
        chosen = [sigmas[i] for i in idx]
        sig, alf, c = union(chosen), union(alphas[i] for i in idx), component_count(chosen)
        if len(sig) - c != len(alf):
            return {"I": [sorted(s) for s in chosen], "sigma_union_size": len(sig),
                    "components": c, "alpha_union_size": len(alf)}

    return first_failure(len(assign), fails, max_size)


def brute_intersection_property(assign, mode):
    sigmas, alphas = assign.sigmas, assign.alphas

    def fails(idx):
        sig, alf = union(sigmas[i] for i in idx), union(alphas[i] for i in idx)
        head = {"I": [sorted(sigmas[i]) for i in idx]}
        for p in range(len(assign)):
            if p in idx:
                continue
            inter_s, inter_a = sig & sigmas[p], alf & alphas[p]
            if not inter_s:
                if inter_a:
                    return {**head, "p": sorted(sigmas[p]), "clause": "disjointness",
                            "alpha_overlap": sorted(inter_a)}
            elif (mode == STRICT or len(idx) >= 2) and len(inter_a) != len(inter_s) - 1:
                return {**head, "p": sorted(sigmas[p]), "clause": "cardinality",
                        "alpha_intersection": len(inter_a),
                        "sigma_intersection": len(inter_s)}

    return first_failure(len(assign), fails)


def brute_constant_component(S, a):
    sets = [frozenset(g) for g in S.minimal_nonfaces().generators]

    def fails(idx):
        c = component_count([sets[i] for i in idx])
        if c != a:
            return {"I": [sorted(sets[i]) for i in idx], "components": c, "expected": a}

    return first_failure(len(sets), fails)


def brute_search_alpha(family):
    gens = [frozenset(g) for g in family.generators]
    candidates = [sorted(tuple(sorted(g - {x})) for x in g) for g in gens]
    for choice in product(*candidates):
        assign = AlphaAssignment(tuple(
            (g, frozenset(a)) for g, a in zip(gens, choice)))
        if brute_target_invariant(assign) is None:
            return assign
    return None


def random_remove_one(rng, S):
    return AlphaAssignment(tuple(
        (g, frozenset(g) - {rng.choice(g)}) for g in S.minimal_nonfaces().generators))


def random_companions(rng, S):
    # alpha_i need not lie inside sigma_i, so the disjointness clause can fail
    return AlphaAssignment(tuple(
        (g, frozenset(rng.sample(S.vertices, len(g) - 1)))
        for g in S.minimal_nonfaces().generators))


def test_scans_report_the_smallest_lexicographically_first_witness():
    # remove-one assignments on 300 intersecting and 100 unconstrained
    # families; the unconstrained ones also get random companion sets, which
    # reach the disjointness clause
    rng = random.Random(309)
    failing, kinds = 0, set()
    for k in range(400):
        sample = random_intersecting_complex if k % 4 else random_complex
        S = sample(rng, n_max=8, r_max=6)
        assigns = [random_remove_one(rng, S)]
        if sample is random_complex:
            assigns.append(random_companions(rng, S))
        for assign in assigns:
            expected = brute_target_invariant(assign)
            rep = check_target_invariant(assign)
            assert (rep.passed, rep.witness) == (expected is None, expected)
            failing += expected is not None
            for mode in (LITERAL, STRICT):
                expected = brute_intersection_property(assign, mode)
                rep = check_intersection_property(assign, mode)
                assert (rep.passed, rep.witness) == (expected is None, expected)
                kinds.add(expected and expected["clause"])
        expected = brute_constant_component(S, 1)
        rep = verify_constant_component(S, 1)
        if expected is None:
            assert rep.details["identity_checked"] and rep.passed
        else:
            assert rep.witness == expected and not rep.details["identity_checked"]
            kinds.add("constant_component")
    assert failing >= 100
    assert kinds == {None, "disjointness", "cardinality", "constant_component"}


def test_pairs_decide_constant_components():
    # the definition scans every nonempty I; the check looks at pairs only
    rng = random.Random(311)
    sizes, failing = set(), set()
    for _ in range(300):
        S = random_complex(rng, n_max=8, r_max=8)
        sizes.add(len(S.minimal_nonface_masks))
        for a in (0, 1, 2):
            expected = brute_constant_component(S, a)
            rep = verify_constant_component(S, a)
            assert rep.details["identity_checked"] == (expected is None)
            if expected is not None:
                assert not rep.passed and rep.witness == expected
                failing.add(len(expected["I"]))
    assert sizes == set(range(9))
    assert failing == {1, 2}


def test_search_alpha_returns_the_first_assignment_in_product_order():
    rng = random.Random(310)
    outcomes = set()
    for k in range(60):
        sample = random_intersecting_complex if k % 4 else random_complex
        family = sample(rng, n_max=7, r_max=6).minimal_nonfaces()
        found = search_alpha(family)
        assert found == brute_search_alpha(family)
        outcomes.add(found is None)
    assert outcomes == {True, False}
