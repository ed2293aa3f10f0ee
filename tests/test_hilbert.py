"""Numerator routes, f/h conversions, and the degree-by-degree series oracle."""

import random
from itertools import combinations

import pytest

from simpchrom.complexes import NonfaceFamily, SimplicialComplex
from simpchrom.hilbert import (h_from_f, h_vector,
                               numerator_by_inclusion_exclusion,
                               numerator_from_h, series_coefficients,
                               standard_monomial_count)
from simpchrom.polynomials import IntPolynomial
from simpchrom.report import GuardError
from simpchrom.sampling import random_complex

from oracles import euler_characteristics, f_from_h, points_complex

P = IntPolynomial
SC = SimplicialComplex


def test_numerator_by_inclusion_exclusion_fixtures():
    k = numerator_by_inclusion_exclusion(NonfaceFamily((("1", "2"),)))
    assert k == P((1, 0, -1))
    k = numerator_by_inclusion_exclusion(NonfaceFamily((("a", "c"), ("b", "d"))))
    assert k == P((1, 0, -2, 0, 1))
    assert numerator_by_inclusion_exclusion(NonfaceFamily(())) == P((1,))


def test_h_from_f_fixtures():
    assert h_from_f((1, 6, 12, 8), 3) == (1, 3, 3, 1)
    assert h_from_f((1, 3, 3, 1), 3) == (1, 0, 0, 0)
    assert h_from_f((1, 3), 1) == (1, 2)
    with pytest.raises(ValueError):
        h_from_f((2, 3), 1)
    with pytest.raises(ValueError):
        h_from_f((1, 3), 2)


def test_h_f_conversions_are_mutually_inverse():
    rng = random.Random(19)
    for _ in range(40):
        d = rng.randint(0, 7)
        h = (1,) + tuple(rng.randint(-4, 9) for _ in range(d))
        assert h_from_f(f_from_h(h, d), d) == h
    for _ in range(40):
        s = random_complex(rng, n_max=7)
        f = s.f_vector
        d = s.dimension + 1
        assert f_from_h(h_from_f(f, d), d) == f


def test_numerator_from_h_fixtures():
    two = points_complex("12")
    assert numerator_from_h(two) == P((1, 0, -1))
    octa = SC.from_minimal_nonfaces("abcdef",
                                    [("a", "c"), ("b", "d"), ("e", "f")])
    assert numerator_from_h(octa) == P((1, -1)) ** 3 * P((1, 3, 3, 1))
    assert numerator_from_h(octa) == P((1, 0, -3, 0, 3, 0, -1))
    full = SC.from_minimal_nonfaces("abc", [])
    assert numerator_from_h(full) == P((1,))


def test_two_routes_agree_on_random_complexes():
    rng = random.Random(55)
    for _ in range(50):
        s = random_complex(rng, n_max=8, r_max=5)
        ie = numerator_by_inclusion_exclusion(s.minimal_nonfaces())
        assert ie == numerator_from_h(s)


def test_two_routes_agree_on_relaxed_complexes():
    t = SC.from_minimal_nonfaces("ab", [("a",), ("b",)], relaxed=True)
    ie = numerator_by_inclusion_exclusion(t.minimal_nonfaces())
    assert ie == P((1, -2, 1)) == numerator_from_h(t)


def test_standard_monomial_count_fixtures():
    full2 = SC.from_minimal_nonfaces("xy", [])
    assert standard_monomial_count(full2, 2) == 3
    assert standard_monomial_count(points_complex("12"), 3) == 2
    tri = SC.from_minimal_nonfaces("123", [("1", "2", "3")])
    assert standard_monomial_count(tri, 2) == 6
    assert standard_monomial_count(tri, 0) == 1
    # the series bounds its degree; the oracle reads only the f-vector, so
    # any degree costs the same: 3 powers of a vertex, 3 * 12 edge monomials
    with pytest.raises(GuardError) as exc:
        series_coefficients(tri, 13)
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "monomial_degree", 13, 12, "13 factors per monomial exceed the 12 limit")
    assert standard_monomial_count(tri, 13) == 39
    for count in (standard_monomial_count, series_coefficients):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            count(tri, -1)


def test_series_matches_monomial_count():
    rng = random.Random(77)
    for _ in range(40):
        s = random_complex(rng, n_max=7)
        series = series_coefficients(s, 6)
        for m in range(7):
            assert series[m] == standard_monomial_count(s, m)


def test_monomial_counts_read_the_faces_once(monkeypatch):
    # the f-vector is counted once per complex, however many degrees ask
    reads = []
    closure = SC.face_masks.func

    def counted(s):
        reads.append(s)
        return closure(s)

    monkeypatch.setattr(SC, "face_masks", property(counted))
    rng = random.Random(79)
    for _ in range(10):
        s = random_complex(rng, n_max=7)
        reads.clear()
        counts = [standard_monomial_count(s, m) for m in range(1, 13)]
        assert reads == [s]
        assert counts == series_coefficients(s, 12)[1:]


def test_h_vector_invariants():
    rng = random.Random(6)
    for _ in range(30):
        s = random_complex(rng, n_max=7)
        h = h_vector(s)
        assert h.entries[0] == 1
        assert sum(h.entries) == s.f_vector[-1]


def test_top_entry_tracks_euler_characteristic():
    rng = random.Random(60)
    for _ in range(40):
        s = random_complex(rng, n_max=7)
        h = h_vector(s)
        chi, chi_reduced = euler_characteristics(s)
        assert h.entries[-1] == (-1) ** (h.d - 1) * chi_reduced


def test_past_25_generators():
    pairs = NonfaceFamily(tuple((f"a{i:02d}", f"b{i:02d}") for i in range(26)))
    assert numerator_by_inclusion_exclusion(pairs) == P((1, 0, -1)) ** 26
    u96 = SC.from_facets("abcdefghi", combinations("abcdefghi", 6))
    assert len(u96.minimal_nonface_masks) == 36
    assert numerator_by_inclusion_exclusion(u96.minimal_nonfaces()) == \
        numerator_from_h(u96)
