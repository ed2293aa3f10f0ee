"""Cyclotomic oracle, residue subcomplex builders, and the two experiments."""

import random
from itertools import product

import pytest

from simpchrom import cyclotomic
from simpchrom.complexes import SimplicialComplex
from simpchrom.cyclotomic import (CyclotomicSpec, ONE_BASED, ZERO_BASED,
                                  build_residue_subcomplex,
                                  check_constant_term_detection,
                                  check_cyclotomic_homology,
                                  cyclotomic_polynomial, euler_phi,
                                  facet_of_residue, included_residues)
from simpchrom.hilbert import h_vector
from simpchrom.homology import (boundary_matrix, reduced_homology,
                                smith_normal_form)
from simpchrom.polynomials import IntPolynomial
from simpchrom.report import GuardError

from oracles import euler_characteristics

P = IntPolynomial


def test_cyclotomic_small_values():
    assert cyclotomic_polynomial(1) == P((-1, 1))
    assert cyclotomic_polynomial(2) == P((1, 1))
    assert cyclotomic_polynomial(3) == P((1, 1, 1))
    assert cyclotomic_polynomial(6) == P((1, -1, 1))
    assert cyclotomic_polynomial(15) == P((1, -1, 0, 1, -1, 1, 0, -1, 1))


def test_cyclotomic_degree_is_totient():
    # 360 = 2^3 3^2 5 is not squarefree; 1155 = 3 5 7 11 has four primes
    for n in (1, 2, 6, 12, 30, 105, 210, 360, 1155):
        assert cyclotomic_polynomial(n).degree == euler_phi(n)


def test_cyclotomic_105_has_coefficient_minus_two():
    assert cyclotomic_polynomial(105)[7] == -2


def test_cyclotomic_product_identity():
    for n in [*range(1, 81), 360, 1155]:
        prod = P((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == P((-1,) + (0,) * (n - 1) + (1,))


def test_cyclotomic_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(GuardError):
        cyclotomic_polynomial(10 ** 6 + 1)


# The identities below hold for Phi_n however it is computed, and none of them
# is a step of the power-series route: each checks the route from outside.
def test_cyclotomic_of_twice_an_odd_n_is_a_sign_flip():
    # Phi_2n(x) = Phi_n(-x) for odd n
    odd = cyclotomic_polynomial(15015)
    assert cyclotomic_polynomial(30030).coeffs == tuple(
        (-1) ** i * c for i, c in enumerate(odd.coeffs))


def test_cyclotomic_of_a_prime_is_the_geometric_sum():
    p = 999983
    assert cyclotomic_polynomial(p).coeffs == (1,) * p


def test_cyclotomic_of_a_prime_power_and_of_a_power_of_ten():
    # Phi_(p^k)(x) = Phi_p(x^(p^(k-1))), and Phi_(10 m)(x) = Phi_10(x^m) for
    # m a power of 10, since 10 m has the same primes as 10
    for n, base, step in ((5 ** 8, (1, 1, 1, 1, 1), 5 ** 7),
                          (10 ** 6, (1, -1, 1, -1, 1), 10 ** 5)):
        expected = [0] * (step * (len(base) - 1) + 1)
        expected[::step] = base
        assert cyclotomic_polynomial(n).coeffs == tuple(expected)


def test_cyclotomic_heights():
    for n, height in ((1155, 3), (15015, 23), (255255, 532)):
        assert max(map(abs, cyclotomic_polynomial(n).coeffs)) == height


def test_spec_validation():
    with pytest.raises(ValueError, match="not prime"):
        CyclotomicSpec((4, 5))
    with pytest.raises(ValueError, match="distinct"):
        CyclotomicSpec((3, 3))
    with pytest.raises(ValueError, match="^at least one prime required$"):
        CyclotomicSpec(())
    with pytest.raises(ValueError, match="^unknown labeling 'two'$"):
        CyclotomicSpec((3, 5), "two")
    with pytest.raises(ValueError, match="^at least two prime groups required$"):
        build_residue_subcomplex(CyclotomicSpec((5,)), {1})
    for j in (-1, 9):  # phi(3 * 5) = 8
        with pytest.raises(ValueError, match=f"^j = {j} outside 0..8$"):
            check_cyclotomic_homology(CyclotomicSpec((3, 5)), j)
    spec = CyclotomicSpec((3, 2))
    assert spec.primes == (2, 3) and spec.n == 6 and spec.phi == 2


def test_group_labels_and_residue_facets():
    spec = CyclotomicSpec((2, 3))
    assert spec.groups == (("a", "b"), ("c", "d", "e"))
    assert facet_of_residue(spec, 0) == ("a", "c")
    assert facet_of_residue(spec, 5) == ("b", "e")
    spec3 = CyclotomicSpec((3, 5, 7))
    assert facet_of_residue(spec3, 7) == (spec3.groups[0][1], spec3.groups[1][2],
                                          spec3.groups[2][0])
    with pytest.raises(ValueError):
        facet_of_residue(spec, 6)


def test_included_residues_conventions():
    zero = CyclotomicSpec((2, 3), ZERO_BASED)
    one = CyclotomicSpec((2, 3), ONE_BASED)
    assert included_residues(zero, {1}) == (0, 1, 3, 4, 5)
    assert included_residues(one, {1}) == (1, 3, 4, 5)
    with pytest.raises(ValueError):
        included_residues(zero, {3})


def test_single_facet_subcomplex_of_two_primes():
    # one-based keeps residues 1, 3, 4, 5: acyclic, as c_1 = -1 predicts
    k1 = build_residue_subcomplex(CyclotomicSpec((2, 3)), {1})
    assert k1.n == 5 and len(k1.facet_masks) == 4
    gens = [set(g) for g in k1.minimal_nonfaces().generators]
    assert gens == [{"a", "b"}, {"a", "c"}, {"a", "e"}, {"c", "d"}, {"c", "e"},
                    {"d", "e"}]
    assert euler_characteristics(k1) == (1, 0)
    # zero-based also keeps residue 0 and closes a cycle
    k0 = build_residue_subcomplex(CyclotomicSpec((2, 3), ZERO_BASED), {1})
    assert k0.n == 5 and len(k0.facet_masks) == 5
    gens = [set(g) for g in k0.minimal_nonfaces().generators]
    assert gens == [{"a", "b"}, {"a", "e"}, {"c", "d"}, {"c", "e"}, {"d", "e"}]
    assert euler_characteristics(k0) == (0, -1)


def test_full_inclusion_is_monotone_in_A():
    spec = CyclotomicSpec((2, 3))
    small = set(build_residue_subcomplex(spec, {1}).face_masks)
    large = set(build_residue_subcomplex(spec, {0, 1, 2}).face_masks)
    assert small <= large
    full = build_residue_subcomplex(spec, range(spec.phi + 1))  # the join
    assert len(full.facet_masks) == 6


def _full_skeleton_route(spec, A):
    """The residue complex built from every (d-1)-transversal, covered or not."""
    groups = spec.groups
    facets = [facet_of_residue(spec, j) for j in included_residues(spec, A)]
    for skip in range(spec.d):
        facets.extend(product(*(g for i, g in enumerate(groups) if i != skip)))
    return SimplicialComplex.from_facets([v for g in groups for v in g], facets)


def _index_sets(spec, count):
    """The empty set, every index, then seeded singletons, pairs and triples."""
    rng = random.Random(spec.n)
    indices = range(spec.phi + 1)
    out = [set(), set(indices)]
    while len(out) < count:
        out.append(set(rng.sample(indices, len(out) % 3 + 1)))
    return out


@pytest.mark.parametrize("labeling", [ONE_BASED, ZERO_BASED])
@pytest.mark.parametrize("primes, count", [
    ((2, 3), 30), ((3, 5), 30), ((2, 3, 5), 30), ((3, 5, 7), 30),
    ((2, 3, 5, 7), 30), ((3, 5, 7, 11), 8)])
def test_residue_complex_equals_the_full_skeleton_route(primes, count, labeling):
    spec = CyclotomicSpec(primes, labeling)
    for A in _index_sets(spec, count):
        assert build_residue_subcomplex(spec, A) == _full_skeleton_route(spec, A), A


@pytest.mark.parametrize("labeling", [ONE_BASED, ZERO_BASED])
@pytest.mark.parametrize("primes", [(2, 3), (3, 5, 7), (3, 5, 7, 11, 13)])
def test_the_top_block_covers_every_codimension_one_transversal(primes, labeling):
    # the (d-1)-transversal of residue r mod n/p lies in the facet of residue
    # j exactly when j = r mod n/p; the top block holds n - phi - 1 >= n/p
    # consecutive residues, so every transversal lies in a chosen facet and
    # the facets are exactly the chosen ones
    spec = CyclotomicSpec(primes, labeling)
    for A in (set(), {1}, {0, 1, 2}):
        residues = included_residues(spec, A)
        for p in spec.primes:
            m = spec.n // p
            assert {j % m for j in residues} == set(range(m))
        chosen = {frozenset(facet_of_residue(spec, j)) for j in residues}
        facets = build_residue_subcomplex(spec, A).facets
        assert {frozenset(f) for f in facets} == chosen


def test_three_prime_counts():
    ka = build_residue_subcomplex(CyclotomicSpec((3, 5, 7), ZERO_BASED), {7})
    assert ka.f_vector == (1, 15, 71, 58)
    assert ka.dimension == 2
    one = build_residue_subcomplex(CyclotomicSpec((3, 5, 7)), {7})
    assert one.f_vector == (1, 15, 71, 57)


def test_torsion_experiment_3_5_7():
    rep = check_cyclotomic_homology(CyclotomicSpec((3, 5, 7)), 7)
    assert rep.details["coefficient"] == -2
    # the default one-based labeling reproduces the predicted torsion exactly
    assert rep.details["labeling"] == ONE_BASED
    assert rep.details["actual"]["1"] == [0, [2]]
    assert rep.details["facet_count"] == 57
    assert rep.passed
    # wraparound labeling records a mismatch instead
    zero = check_cyclotomic_homology(CyclotomicSpec((3, 5, 7), ZERO_BASED), 7)
    assert zero.details["actual"]["2"] == [1, []]
    assert not zero.passed and zero.witness == {"actual": zero.details["actual"]}


def test_torsion_experiment_two_primes_recorded():
    spec = CyclotomicSpec((2, 3))
    rep = check_cyclotomic_homology(spec, 1)
    assert rep.details["coefficient"] == -1
    assert rep.passed
    # the five-facet wraparound complex has reduced Euler characteristic -1,
    # against a predicted trivial homology: recorded as a mismatch
    zero = check_cyclotomic_homology(CyclotomicSpec((2, 3), ZERO_BASED), 1)
    assert not zero.passed
    assert zero.details["actual"]["1"] == [1, []]
    # no degree of the 6th cyclotomic polynomial has a zero coefficient, so
    # the c_j = 0 branch is not applicable for this spec
    phi = cyclotomic_polynomial(spec.n)
    assert [j for j in range(spec.phi + 1) if phi[j] == 0] == []


def test_torsion_experiment_full_sweep_3_5():
    spec = CyclotomicSpec((3, 5))
    phi = cyclotomic_polynomial(15)
    zeros = tuple(j for j in range(spec.phi + 1) if phi[j] == 0)
    assert zeros == (2, 6)
    for j in range(spec.phi + 1):
        rep = check_cyclotomic_homology(spec, j)
        assert rep.passed, j
        if phi[j] == 0:
            actual = rep.details["actual"]
            assert actual["0"] == [1, []] and actual["1"] == [1, []]


@pytest.mark.parametrize("primes", [(3, 5, 7), (2, 3, 5, 7)])
def test_every_one_based_residue_matches_the_coefficient_theorem(primes):
    spec = CyclotomicSpec(primes)
    reports = [check_cyclotomic_homology(spec, j) for j in range(spec.phi + 1)]
    assert len(reports) == 49
    assert [r.details["degree"] for r in reports if not r.passed] == []
    # the 49 residues reach Z/2 torsion and both top classes of c_j = 0
    seen = {}
    for r in reports:
        seen.setdefault(abs(r.details["coefficient"]), r.details["actual"])
    top, below = str(spec.d - 1), str(spec.d - 2)
    assert sorted(seen) == [0, 1, 2]
    assert seen[2][below] == [0, [2]] and seen[2][top] == [0, []]
    assert seen[0][below] == [1, []] and seen[0][top] == [1, []]


def test_residue_homology_has_exactly_the_expected_degrees():
    # every residue complex keeps the transversal facet of its residue, so
    # it has dimension d-1 and its homology the degrees 0..d-1 that the
    # expected table lists: the homology check compares the two as dicts
    for primes in ((3, 5), (2, 3, 5)):
        for labeling in (ZERO_BASED, ONE_BASED):
            spec = CyclotomicSpec(primes, labeling)
            for j in range(spec.phi + 1):
                t = build_residue_subcomplex(spec, {j})
                assert t.dimension == spec.d - 1
                assert sorted(reduced_homology(t)) == list(range(spec.d))


def test_euler_identity_holds_for_every_built_subcomplex():
    for primes in ((2, 3), (3, 5), (2, 5)):
        for labeling in (ZERO_BASED, ONE_BASED):
            spec = CyclotomicSpec(primes, labeling)
            for j in range(spec.phi + 1):
                t = build_residue_subcomplex(spec, {j})
                h = h_vector(t)
                chi_reduced = euler_characteristics(t)[1]
                assert h.entries[-1] == (-1) ** (h.d - 1) * chi_reduced


def test_constant_term_detection_records_dichotomy():
    rep = check_constant_term_detection(CyclotomicSpec((3, 5, 7)), 7)
    assert rep.details["coefficient"] == -2
    assert rep.details["expected_top_betti"] == 0
    assert rep.details["expected_constant"] == -1  # (-1)^3, nonzero branch
    assert rep.details["h_top"] == 0 and rep.details["top_betti"] == 0
    assert rep.passed
    # wraparound labeling leaves a stray top class: a recorded FAIL
    zero = check_constant_term_detection(CyclotomicSpec((3, 5, 7), ZERO_BASED), 7)
    assert zero.details["h_top"] == 1 and zero.details["top_betti"] == 1
    assert not zero.passed

    rep0 = check_constant_term_detection(CyclotomicSpec((2, 3)), 0)
    assert rep0.passed and rep0.details["h_top"] == 0

    # two groups, nonzero coefficient: the claimed constant is (-1)^2 = 1
    rep2 = check_constant_term_detection(CyclotomicSpec((2, 3)), 2)
    assert rep2.details["expected_constant"] == 1
    assert rep2.details["expected_top_betti"] == 0
    assert rep2.details["h_top"] == 0 and rep2.passed
    zero2 = check_constant_term_detection(CyclotomicSpec((2, 3), ZERO_BASED), 2)
    assert zero2.details["h_top"] == 1 and not zero2.passed  # recorded mismatch


def test_constant_term_detection_detail_keys():
    # the Euler identity and the literal constant term cannot fail, so the
    # detector does not publish them
    rep = check_constant_term_detection(CyclotomicSpec((3, 5, 7)), 3)
    assert set(rep.details) == {
        "coefficient", "degree", "primes", "labeling", "top_betti",
        "expected_top_betti", "h_top", "reconstructed_constant",
        "expected_constant", "h_vector", "lift_vertices"}
    assert rep.details["lift_vertices"] == 16


def test_constant_term_detection_flags_zero_coefficients_differently():
    spec = CyclotomicSpec((3, 5))
    expected = {j: (1 if cyclotomic_polynomial(15)[j] == 0 else 0)
                for j in range(9)}
    for j in range(9):
        rep = check_constant_term_detection(spec, j)
        assert rep.details["expected_top_betti"] == expected[j]
        sign = rep.details["expected_constant"] - rep.details["expected_top_betti"]
        assert sign == 1  # (-1)^2 for two prime groups


def test_constant_term_detection_fires_exactly_on_zero_coefficients():
    # h_top is 0 on every one-based residue, so only the top Betti number
    # can see c_j = 0, where Z sits in the two top degrees
    for primes in ((3, 5), (2, 3, 5)):
        spec = CyclotomicSpec(primes)
        phi = cyclotomic_polynomial(spec.n)
        for j in range(spec.phi + 1):
            rep = check_constant_term_detection(spec, j)
            assert rep.passed, (primes, j)
            assert rep.details["top_betti"] == (1 if phi[j] == 0 else 0)
        # zero-based, the detector fails on every nonzero coefficient but c_0
        zero = CyclotomicSpec(primes, ZERO_BASED)
        fails = [j for j in range(spec.phi + 1)
                 if not check_constant_term_detection(zero, j).passed]
        assert fails == [j for j in range(1, spec.phi + 1) if phi[j] != 0]


@pytest.mark.parametrize("primes", [(3, 5, 7), (2, 3, 5, 7)])
@pytest.mark.parametrize("labeling", [ZERO_BASED, ONE_BASED])
def test_detector_top_betti_equals_top_faces_less_the_top_boundary_rank(
        primes, labeling):
    # the detector reads reduced_homology; the oracle is the top Betti number
    # from the top boundary map alone: top faces less its rank
    spec = CyclotomicSpec(primes, labeling)
    for j in range(spec.phi + 1):
        t = build_residue_subcomplex(spec, {j})
        top_rank = len(smith_normal_form(boundary_matrix(t, spec.d - 1)))
        oracle = t.f_vector[-1] - top_rank
        rep = check_constant_term_detection(spec, j)
        assert rep.details["top_betti"] == oracle, (primes, labeling, j)


def test_a_spec_computes_its_cyclotomic_polynomial_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return cyclotomic_polynomial(n)

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", counted)
    spec = CyclotomicSpec((3, 5, 7))
    for j in range(spec.phi + 1):
        assert check_cyclotomic_homology(spec, j).passed
        assert check_constant_term_detection(spec, j).passed
    assert calls == [105]


def test_chromatic_identity_spot_check_on_two_primes():
    # the reversed-numerator route for the lift agrees with direct
    # enumeration when the nonface count is small enough to enumerate
    from simpchrom.auxiliary import lift_with_apex
    from simpchrom.chromatic import chromatic_polynomial
    from simpchrom.hilbert import numerator_from_h
    from simpchrom.polynomials import reciprocal
    t = build_residue_subcomplex(CyclotomicSpec((2, 3)), {1})
    s, _ = lift_with_apex(t)
    direct = chromatic_polynomial(s)
    identity = reciprocal(numerator_from_h(t), s.n)
    assert direct == identity
