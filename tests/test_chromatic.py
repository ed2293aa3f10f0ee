"""Chromatic polynomial engine, its two oracles, and the contraction experiment."""

import random
from itertools import product, zip_longest

import pytest

from simpchrom import chromatic, report
from simpchrom.analysis import uniform_matroid_complex
from simpchrom.chromatic import (Graph, MERGE_VERTEX, REMOVE_ONLY,
                                 chromatic_polynomial,
                                 complete_graph, complex_of_graph,
                                 finite_model_count,
                                 graph_chromatic, tidied_contraction,
                                 verify_addition_contraction)
from simpchrom.complexes import NonfaceFamily, SimplicialComplex
from simpchrom.hilbert import numerator_by_inclusion_exclusion
from simpchrom.polynomials import IntPolynomial
from simpchrom.report import GuardError
from simpchrom.sampling import random_complex, random_graph

from oracles import component_count, contraction, with_face

P = IntPolynomial
SC = SimplicialComplex


def triangle_boundary():
    return SC.from_minimal_nonfaces("123", [("1", "2", "3")])


def square_complex():
    return SC.from_minimal_nonfaces("abcd", [("a", "c"), ("b", "d")])


def path_complex():
    return SC.from_minimal_nonfaces("123", [("1", "2"), ("2", "3")])


def falling_factorial(n):
    out = P((1,))
    for k in range(n):
        out = out * P((-k, 1))
    return out


def test_component_count():
    assert component_count([{"a", "c"}, {"b", "d"}]) == 2
    assert component_count([{1, 2}, {2, 3}]) == 1
    assert component_count([{1, 2}, {2, 3}, {4, 5}]) == 2
    with pytest.raises(ValueError):
        component_count([set()])


def test_chromatic_fixtures():
    full = SC.from_minimal_nonfaces("abc", [])
    assert chromatic_polynomial(full) == P((0, 0, 0, 1))
    assert chromatic_polynomial(triangle_boundary()) == P((0, -1, 0, 1))
    assert chromatic_polynomial(square_complex()) == P((0, 0, 1, -2, 1))
    assert chromatic_polynomial(path_complex()) == P((0, 1, -2, 1))


def test_past_25_nonfaces_against_independent_routes():
    # K_8 has 28 edges, U(9,6) 36 minimal nonfaces
    k8 = complex_of_graph(complete_graph(8))
    assert len(k8.minimal_nonface_masks) == 28
    assert chromatic_polynomial(k8) == falling_factorial(8)
    u96 = uniform_matroid_complex(9, 6)
    chi = chromatic_polynomial(u96)
    assert all(chi.evaluate(q) == finite_model_count(u96, q) for q in range(8))


def test_complete_graph_specialization():
    for n in (3, 4, 5):
        g = complete_graph(n)
        assert chromatic_polynomial(complex_of_graph(g)) == falling_factorial(n)


def literal_model_count(s, q):
    """Independent re-derivation: walk every tuple and test each nonface."""
    nonfaces = [set(g) for g in s.minimal_nonfaces().generators]
    brute = 0
    for tup in product(range(q), repeat=s.n):
        colors = dict(zip(s.vertices, tup))
        if all(len({colors[v] for v in nf}) > 1 for nf in nonfaces):
            brute += 1
    return brute


def test_finite_model_count_by_literal_enumeration():
    rng = random.Random(12)
    for _ in range(15):
        s = random_complex(rng, n_min=2, n_max=4, r_max=3)
        for q in range(4):
            brute = literal_model_count(s, q)
            assert finite_model_count(s, q) == brute


def test_finite_model_count_on_relaxed_and_free_vertices():
    # singleton nonfaces leave a vertex no colour; vertices in no nonface
    # sit before, between and after the constrained ones; q runs from 0
    # past n
    complexes = [
        SC.from_minimal_nonfaces("a", [("a",)], relaxed=True),
        SC.from_minimal_nonfaces("abcd", [("c",), ("a", "b")], relaxed=True),
        SC.from_minimal_nonfaces("abcd", [("a", "d")]),
        SC.from_minimal_nonfaces("abcde", [("a", "b", "c"), ("c", "d")]),
        SC.from_minimal_nonfaces("abcde", [("b", "c")]),
        SC.from_minimal_nonfaces("abc", []),
    ]
    rng = random.Random(5)
    while len(complexes) < 40:
        labels = "abcd"[:rng.randint(1, 4)]
        family = []
        for _ in range(rng.randint(1, 4)):
            g = set(rng.sample(labels, rng.randint(1, min(3, len(labels)))))
            if not any(g <= h or h <= g for h in family):
                family.append(g)
        complexes.append(SC.from_minimal_nonfaces(labels, family, relaxed=True))
    assert sum(any(len(g) == 1 for g in s.minimal_nonfaces().generators)
               for s in complexes) >= 10
    for s in complexes:
        for q in range(s.n + 3):
            assert finite_model_count(s, q) == literal_model_count(s, q)


def test_finite_model_count_under_a_relabeling():
    # reversing the labels makes each nonface's highest vertex its lowest
    rng = random.Random(23)
    for _ in range(25):
        s = random_complex(rng, n_min=3, n_max=6, r_max=4)
        rename = dict(zip(s.vertices, reversed(s.vertices)))
        t = SC.from_minimal_nonfaces(
            s.vertices, [[rename[v] for v in g]
                         for g in s.minimal_nonfaces().generators])
        for q in range(s.n + 2):
            count = finite_model_count(s, q)
            assert finite_model_count(t, q) == count
            if s.n <= 4:
                assert literal_model_count(t, q) == count


def test_finite_model_count_at_large_q_within_the_guard():
    # q^n just under the 10^8 guard; chi_c is q^2 (q-1)^2 and q (q-1)
    assert finite_model_count(square_complex(), 100) == 98_010_000
    edge = SC.from_minimal_nonfaces("ab", [("a", "b")])
    assert finite_model_count(edge, 10 ** 4) == 99_990_000


def test_model_counts_in_any_q_order_across_evictions():
    # the class-count table is kept for one complex at a time: ascending,
    # descending and shuffled q, with two complexes taking turns, rebuild
    # and extend it from every point
    rng = random.Random(61)
    samples = [random_complex(rng, n_max=5, r_max=4) for _ in range(16)]
    samples += [
        SC.from_minimal_nonfaces("", []),
        SC.from_minimal_nonfaces("abcd", [("c",), ("a", "b")], relaxed=True),
        SC.from_minimal_nonfaces("abcde", [("b",), ("c", "d")], relaxed=True),
        SC.from_minimal_nonfaces("abcde", [("b", "c")]),
        SC.from_minimal_nonfaces("abcd", [("a", "d")]),
    ]
    literal = [[literal_model_count(s, q) for q in range(s.n + 3)]
               for s in samples]
    for i, s in enumerate(samples):
        j = (i + 1) % len(samples)
        t = samples[j]
        ups = list(range(s.n + 3))
        downs = list(reversed(range(t.n + 3)))
        mixed = ups[:]
        rng.shuffle(mixed)
        for order in (ups, mixed):
            for q, p in zip_longest(order, downs):
                if q is not None:
                    assert finite_model_count(s, q) == literal[i][q]
                if p is not None:
                    assert finite_model_count(t, p) == literal[j][p]
    assert finite_model_count(SC.from_minimal_nonfaces("", []), 0) == 1


def test_each_stratum_is_built_once(monkeypatch):
    built = []
    build = chromatic._ClassCounts._build

    def counted(table):
        built.append(len(table.counts))
        build(table)

    monkeypatch.setattr(chromatic._ClassCounts, "_build", counted)
    chromatic._class_counts.cache_clear()
    rng = random.Random(67)
    for _ in range(20):
        s = random_complex(rng, n_max=7, r_max=5)
        last = max((m.bit_length() for m in s.minimal_nonface_masks), default=0)
        built.clear()
        for _ in range(2):
            for q in range(s.n + 2):
                finite_model_count(s, q)
        assert built == list(range(1, last + 1))


@pytest.mark.parametrize("limit, name, what", [
    ("STATE_LIMIT", "live_states", "live states"),
    ("STATE_WORK_LIMIT", "state_work", "states summed")])
def test_the_class_count_guards_fire_within_a_stratum(limit, name, what,
                                                      monkeypatch):
    # the 16-cycle at q = 3 builds strata 1-3 over 16 vertex steps, 42
    # states in all; with a state bound at 30 its guard fires halfway
    # through stratum 3, and the table keeps strata 1-2
    labels = [f"c{i:02d}" for i in range(16)]
    c16 = SC.from_minimal_nonfaces(
        labels, [(labels[i], labels[(i + 1) % 16]) for i in range(16)])
    assert finite_model_count(c16, 3) == 2 ** 16 + 2
    chromatic._class_counts.cache_clear()
    steps = []
    check = chromatic.check_live_states

    def counted(live, summed, route):
        steps.append((live, summed))
        check(live, summed, route)

    monkeypatch.setattr(chromatic, "check_live_states", counted)
    monkeypatch.setattr(report, limit, 30)
    with pytest.raises(GuardError) as err:
        finite_model_count(c16, 3)
    live, summed = steps[-1]
    measured = live if limit == "STATE_LIMIT" else summed
    assert err.value.limit == name and err.value.measured == measured > 30
    assert str(err.value) == (f"{measured} {what} exceed the 30 limit; "
                              "chi_c evaluated at q is the same count")
    assert 2 * 16 < len(steps) < 3 * 16 - 1  # before stratum 3's last step
    assert chromatic._class_counts(c16.minimal_nonface_masks).counts == [0, 0, 1]


def test_finite_model_fixtures():
    assert finite_model_count(triangle_boundary(), 3) == 24  # 27 - 3
    assert finite_model_count(square_complex(), 2) == 4
    full2 = SC.from_minimal_nonfaces("ab", [])
    assert finite_model_count(full2, 5) == 25


def test_oracle_agreement_on_random_sample():
    rng = random.Random(99)
    for _ in range(50):
        s = random_complex(rng, n_max=6, r_max=4)
        p = chromatic_polynomial(s)
        for q in range(s.n + 2):
            assert p.evaluate(q) == finite_model_count(s, q)


def test_chi_at_one_detects_full_simplex():
    rng = random.Random(4)
    for _ in range(30):
        s = random_complex(rng, n_max=6, r_max=4)
        expected = 1 if not s.minimal_nonface_masks else 0
        assert chromatic_polynomial(s).evaluate(1) == expected
        assert s.f_vector()  # complex remains enumerable


def test_leading_coefficient_is_one():
    rng = random.Random(42)
    for _ in range(30):
        s = random_complex(rng, n_max=7)
        p = chromatic_polynomial(s)
        assert p.degree == s.n and p.coeffs[-1] == 1


def test_pairwise_intersecting_nonfaces_have_unit_components():
    from simpchrom.sampling import random_intersecting_complex
    from itertools import combinations
    rng = random.Random(17)
    for _ in range(20):
        s = random_intersecting_complex(rng, n_max=7, r_max=4)
        gens = [set(g) for g in s.minimal_nonfaces().generators]
        for k in range(1, len(gens) + 1):
            for idx in combinations(range(len(gens)), k):
                assert component_count([gens[i] for i in idx]) == 1


def test_graph_chromatic_fixtures():
    k3 = complete_graph(3)
    assert graph_chromatic(k3) == falling_factorial(3)
    path = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert graph_chromatic(path) == P((0, 1, -2, 1))  # t(t-1)^2
    edgeless = Graph(("a", "b", "c", "d"), ())
    assert graph_chromatic(edgeless) == P((0, 0, 0, 0, 1))
    # at the vertex limit: each minor is computed once, so this takes well
    # under a second where recomputing them took hours
    assert graph_chromatic(complete_graph(12)) == falling_factorial(12)


def test_graph_agreement_on_random_sample():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng)
        assert chromatic_polynomial(complex_of_graph(g)) == graph_chromatic(g)


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        Graph(("a",), (("a", "a"),))
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError, match="unknown"):
        Graph(("a", "b"), (("a", "c"),))


def test_tidied_contraction_two_vertex():
    two = SC.from_minimal_nonfaces("12", [("1", "2")])
    merged = tidied_contraction(two, ("1", "2"), MERGE_VERTEX)
    assert merged.n == 1 and merged.facets == (("w",),)
    removed = tidied_contraction(two, ("1", "2"), REMOVE_ONLY)
    assert removed.n == 0 and removed.facet_masks == (0,)
    assert chromatic_polynomial(removed) == P((1,))


def test_tidied_contraction_path():
    c = tidied_contraction(path_complex(), ("1", "2"), MERGE_VERTEX)
    assert set(c.vertices) == {"3", "w"}
    assert [set(g) for g in c.minimal_nonfaces().generators] == [{"3", "w"}]


def test_tidied_contraction_matches_the_label_reference():
    # the mask-built contractions and S + sigma against the face-built label
    # references, on every minimal nonface of 3,000 seeded complexes; half
    # the samples are rebuilt from their facets with a renamed to w and b to
    # z, so the merge vertex is w0 and sorts between w and z.  Equality
    # alone would miss a nonface list that is not an antichain, since its
    # dualization has the same facets.
    rng = random.Random(5)
    samples = [SC.from_minimal_nonfaces("avwxz", [("a", "x"), ("v", "z")])]
    for k in range(3000):
        s = random_complex(rng, n_max=6, r_max=4)
        if k % 2:
            name = {"a": "w", "b": "z"}
            s = SC.from_facets([name.get(v, v) for v in s.vertices],
                               [[name.get(v, v) for v in f] for f in s.facets])
        samples.append(s)
    checked = 0
    for s in samples:
        w = "w0" if "w" in s.vertices else "w"
        for sig in s.minimal_nonface_masks:
            sigma = s.labels_of(sig)
            for built, reference in (
                    (tidied_contraction(s, sigma, REMOVE_ONLY), contraction(s, sigma)),
                    (tidied_contraction(s, sigma, MERGE_VERTEX),
                     contraction(s, sigma, w)),
                    (chromatic._with_face(s, sig), with_face(s, sigma))):
                assert built.minimal_nonface_masks == reference.minimal_nonface_masks
                assert built == reference
            checked += 1
    assert checked == 4703
    merged = tidied_contraction(samples[0], ("a", "x"))
    assert merged.vertices == ("v", "w", "w0", "z")


def test_tidied_contraction_requires_minimal_nonface():
    with pytest.raises(ValueError, match="not a minimal nonface"):
        tidied_contraction(square_complex(), ("a", "b"))


@pytest.mark.parametrize("check", [tidied_contraction, verify_addition_contraction])
def test_an_unknown_contraction_convention_is_rejected(check):
    with pytest.raises(ValueError, match="^unknown contraction convention 'glue'$"):
        check(square_complex(), ("a", "c"), "glue")


def test_addition_contraction_rejects_sigma_before_any_sum(monkeypatch):
    calls = []
    monkeypatch.setattr(chromatic, "chromatic_polynomial", calls.append)
    with pytest.raises(ValueError, match=r"\['a', 'b'\] is not a minimal nonface"):
        verify_addition_contraction(square_complex(), ("a", "b"))
    with pytest.raises(ValueError, match=r"nonface \['a', 'z'\] references "
                                         "unknown label 'z'"):
        verify_addition_contraction(square_complex(), ("a", "z"))
    assert calls == []


def test_addition_contraction_two_vertex():
    two = SC.from_minimal_nonfaces("12", [("1", "2")])
    rep = verify_addition_contraction(two, ("1", "2"), MERGE_VERTEX)
    assert rep.passed
    assert rep.details["residual_merge"] == []
    assert rep.details["residual_remove"] == [1, -1]
    rep2 = verify_addition_contraction(two, ("1", "2"), REMOVE_ONLY)
    assert not rep2.passed


def test_addition_contraction_path():
    rep = verify_addition_contraction(path_complex(), ("1", "2"), MERGE_VERTEX)
    assert rep.passed
    assert not rep.details["remove_pass"]
    # pieces: (t^3 - 2t^2 + t) - (t^3 - t^2) + (t^2 - t) = 0
    added = chromatic_polynomial(with_face(path_complex(), ("1", "2")))
    assert added == P((0, 0, -1, 1))


def test_addition_contraction_residuals_are_recorded_not_assumed():
    # the merge reconstruction is validated on the fixtures only; on one
    # edge-nonface with a spectator vertex both conventions leave a residual
    s = SC.from_minimal_nonfaces("abc", [("a", "b")])
    rep = verify_addition_contraction(s, ("a", "b"), MERGE_VERTEX)
    assert not rep.passed
    assert rep.details["residual_merge"] == [0, 1]        # t
    assert rep.details["residual_remove"] == [0, 2, -1]   # 2t - t^2


def test_guards():
    labels = [chr(ord("a") + i) for i in range(13)]
    with pytest.raises(GuardError) as err:
        graph_chromatic(Graph(tuple(labels), ()))
    assert err.value.limit == "graph_vertices"
    with pytest.raises(GuardError) as err:
        finite_model_count(SC.from_minimal_nonfaces("abcdefghij", []), 10 ** 8)
    assert err.value.limit == "model_size"


def wide_nonfaces(seed):
    """25 triples on 25 vertices that keep many components live at once:
    each of vertices 0-9 lies in two random triples with two of vertices
    10-24, and five more triples partition 10-24."""
    rng = random.Random(seed)
    outer = list(range(10, 25))
    gens = set()
    for v in range(10):
        pair = set()
        while len(pair) < 2:
            pair.add(frozenset([v, *rng.sample(outer, 2)]))
        gens |= pair
    rng.shuffle(outer)
    gens |= {frozenset(outer[i:i + 3]) for i in range(0, 15, 3)}
    return sorted(tuple(sorted(g)) for g in gens)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_state_guard(seed, monkeypatch):
    # under the default limit chi_c peaks at 93,248-143,628 live states
    # here, K(t) at 11,885-17,470
    gens = wide_nonfaces(seed)
    assert len(gens) == 25
    family = NonfaceFamily(tuple(tuple(f"v{v:02d}" for v in g) for g in gens))
    assert numerator_by_inclusion_exclusion(family).evaluate(1) == 0
    monkeypatch.setattr(report, "STATE_LIMIT", 2000)
    with pytest.raises(GuardError) as err:
        chromatic_polynomial(SC(
            [f"v{v:02d}" for v in range(25)],
            nonface_masks=[sum(1 << v for v in g) for g in gens]))
    assert err.value.limit == "live_states"
    count = int(str(err.value).split()[0])
    assert count > 2000
    assert "2000 limit" in str(err.value)
    assert "auxiliary-complex identity" in str(err.value)
    with pytest.raises(GuardError) as err:
        numerator_by_inclusion_exclusion(family)
    assert err.value.limit == "live_states"
    assert "h-vector" in str(err.value)


def test_state_work_guard(monkeypatch):
    # U(12,6) sums 657,820 states in either sum; both pass 10,000 at 10,207
    u126 = uniform_matroid_complex(12, 6)
    monkeypatch.setattr(report, "STATE_WORK_LIMIT", 10_000)
    with pytest.raises(GuardError) as err:
        chromatic_polynomial(u126)
    assert err.value.limit == "state_work"
    assert str(err.value) == ("10207 states summed exceed the 10000 limit; "
                              "use the auxiliary-complex identity instead")
    with pytest.raises(GuardError) as err:
        numerator_by_inclusion_exclusion(u126.minimal_nonfaces())
    assert err.value.limit == "state_work"
    assert str(err.value) == ("10207 states summed exceed the 10000 limit; "
                              "take K from the h-vector instead")
