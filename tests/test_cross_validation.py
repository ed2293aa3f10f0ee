"""Naive reimplementations cross-checking the engineered code paths.

Each oracle here is deliberately dumb: full 2^n or 2^r scans with none of
the incremental state the library maintains.  Agreement on seeded samples
pins the clever versions down.
"""

import random
from itertools import combinations

from simpchrom.chromatic import chromatic_polynomial
from simpchrom.complexes import SimplicialComplex
from simpchrom.polynomials import IntPolynomial
from simpchrom.sampling import random_complex

from oracles import component_count, is_face, join, points_complex

P = IntPolynomial
SC = SimplicialComplex


def naive_chromatic(S):
    """Plain subset loop: no DFS, no incremental unions or components."""
    gens = [set(g) for g in S.minimal_nonfaces().generators]
    coeff = {S.n: 1}
    for k in range(1, len(gens) + 1):
        for idx in combinations(range(len(gens)), k):
            chosen = [gens[i] for i in idx]
            union = set().union(*chosen)
            expo = S.n - len(union) + component_count(chosen)
            coeff[expo] = coeff.get(expo, 0) + (-1) ** k
    out = [0] * (S.n + 1)
    for e, c in coeff.items():
        out[e] = c
    return P(out)


def naive_minimal_nonfaces(S):
    """Scan every subset; keep the non-faces all of whose shrinkings are faces."""
    verts = S.vertices
    out = []
    for k in range(1, S.n + 1):
        for sub in combinations(verts, k):
            if is_face(S, sub):
                continue
            if all(is_face(S, sub[:i] + sub[i + 1:]) for i in range(k)):
                out.append(sub)
    return tuple(out)


def naive_maximal_faces(S):
    faces = [sub for k in range(S.n + 1)
             for sub in combinations(S.vertices, k) if is_face(S, sub)]
    sets = [set(f) for f in faces]
    return {tuple(sorted(f)) for f in faces
            if not any(set(f) < g for g in sets)}


def test_chromatic_matches_naive_subset_loop():
    rng = random.Random(401)
    for _ in range(40):
        s = random_complex(rng, n_max=7, r_max=5)
        assert chromatic_polynomial(s) == naive_chromatic(s)


def test_minimal_nonfaces_match_naive_subset_scan():
    rng = random.Random(402)
    for _ in range(40):
        s = random_complex(rng, n_max=7, r_max=5)
        assert s.minimal_nonfaces().generators == \
            tuple(sorted(naive_minimal_nonfaces(s)))


def test_facets_match_naive_maximality_scan():
    rng = random.Random(403)
    for _ in range(40):
        s = random_complex(rng, n_max=7, r_max=5)
        rebuilt = SC.from_minimal_nonfaces(s.vertices, s.minimal_nonfaces())
        assert set(rebuilt.facets) == naive_maximal_faces(s)


def test_zero_vertex_and_one_vertex_edges():
    empty = SC.from_facets([], [])
    assert chromatic_polynomial(empty) == P((1,))
    assert empty.minimal_nonfaces().generators == ()
    point = points_complex("a")
    assert chromatic_polynomial(point) == P((0, 1))
    assert point.f_vector() == (1, 1)
    # join with the empty complex is the identity
    assert join(empty, point) == point


def test_full_vertex_set_generator():
    s = SC.from_minimal_nonfaces("abc", [("a", "b", "c")])
    assert s.facets == (("a", "b"), ("a", "c"), ("b", "c"))
    assert chromatic_polynomial(s) == P((0, -1, 0, 1))


def test_relaxed_complex_oracle_agreement():
    # formal nonface vertices: the tuple counter and the polynomial still agree
    from simpchrom.chromatic import finite_model_count
    t = SC.from_minimal_nonfaces("abc", [("a",), ("b", "c")], relaxed=True)
    poly = chromatic_polynomial(t)
    for q in range(5):
        assert poly.evaluate(q) == finite_model_count(t, q)


def _relabel_upper(s):
    mapping = {v: v.upper() for v in s.vertices}
    return SC.from_facets([mapping[v] for v in s.vertices],
                          [[mapping[v] for v in f] for f in s.facets],
                          relaxed=s.relaxed)


def test_join_multiplies_chromatic_and_numerator():
    # nonfaces of a join live entirely inside one factor, so both the
    # chromatic polynomial and the numerator are multiplicative
    from simpchrom.hilbert import numerator_by_inclusion_exclusion
    rng = random.Random(404)
    for _ in range(20):
        s1 = random_complex(rng, n_max=5, r_max=3)
        s2 = _relabel_upper(random_complex(rng, n_max=5, r_max=3))
        j = join(s1, s2)
        assert chromatic_polynomial(j) == \
            chromatic_polynomial(s1) * chromatic_polynomial(s2)
        k1 = numerator_by_inclusion_exclusion(s1.minimal_nonfaces())
        k2 = numerator_by_inclusion_exclusion(s2.minimal_nonfaces())
        kj = numerator_by_inclusion_exclusion(j.minimal_nonfaces())
        assert kj == k1 * k2
