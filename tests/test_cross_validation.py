"""Naive reimplementations cross-checking the engineered code paths.

Each oracle here is deliberately dumb: full 2^n or 2^r scans with none of
the incremental state the library maintains.  Agreement on seeded samples
pins the clever versions down.
"""

import random
from itertools import combinations

from simpchrom.chromatic import chromatic_polynomial
from simpchrom.complexes import NonfaceFamily, SimplicialComplex
from simpchrom.hilbert import numerator_by_inclusion_exclusion
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


def naive_numerator(family):
    """Plain subset loop for K(t): no state, no incremental union."""
    gens = [set(g) for g in family.generators]
    coeff = {0: 1}
    for k in range(1, len(gens) + 1):
        for idx in combinations(range(len(gens)), k):
            size = len(set().union(*(gens[i] for i in idx)))
            coeff[size] = coeff.get(size, 0) + (-1) ** k
    out = [0] * (max(coeff) + 1)
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
    """Scan every subset; a face holds no minimal nonface.  Keep the maximal
    faces."""
    gens = [set(g) for g in S.minimal_nonfaces().generators]
    faces = [set(sub) for k in range(S.n + 1)
             for sub in combinations(S.vertices, k)
             if not any(g <= set(sub) for g in gens)]
    return {tuple(sorted(f)) for f in faces if not any(f < g for g in faces)}


def test_chromatic_matches_naive_subset_loop():
    rng = random.Random(401)
    for _ in range(40):
        s = random_complex(rng, n_max=7, r_max=5)
        assert chromatic_polynomial(s) == naive_chromatic(s)


def test_chromatic_matches_naive_subset_loop_on_relaxed_complexes():
    # r <= n * bit length of n, so each coefficient gets r + 2 bits;
    # singleton nonfaces, which make chi_c zero, included
    rng = random.Random(29)
    for _ in range(200):
        labels = _labels(rng.randint(1, 7))
        kept = []
        for _ in range(rng.randint(0, 6)):
            g = frozenset(rng.sample(labels, rng.randint(1, min(4, len(labels)))))
            if not any(g <= h or h <= g for h in kept):
                kept.append(g)
        s = SC.from_minimal_nonfaces(labels, [sorted(g) for g in kept], relaxed=True)
        assert len(kept) <= s.n * s.n.bit_length()
        assert chromatic_polynomial(s) == naive_chromatic(s)


def _labels(n):
    return [f"v{i:02d}" for i in range(n)]


def _random_antichain(rng, n, r):
    labels = _labels(n)
    kept = []
    while len(kept) < r:
        g = frozenset(rng.sample(labels, rng.randint(2, 4)))
        if not any(g <= h or h <= g for h in kept):
            kept.append(g)
    return labels, [sorted(g) for g in kept]


def _path(m):
    labels = _labels(m + 1)
    return labels, [(labels[i], labels[i + 1]) for i in range(m)]


def _star(m):
    labels = _labels(m + 1)
    return labels, [(labels[0], leaf) for leaf in labels[1:]]


def _matching(m):
    labels = _labels(2 * m)
    return labels, [(labels[2 * i], labels[2 * i + 1]) for i in range(m)]


def _disjoint_groups(rng, n):
    labels = _labels(n)
    rest = rng.sample(labels, n)
    groups = []
    while len(rest) >= 2:
        size = rng.randint(2, min(4, len(rest)))
        groups.append(sorted(rest[:size]))
        rest = rest[size:]
    return labels, groups


def _forest_plus_cover(rng, n):
    """Random forest edges, plus one independent set that holds early and
    late vertices, so the early ones stay live to the end."""
    labels = _labels(n)
    edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8}
    cover = []
    for v in [0, n - 1] + rng.sample(range(1, n - 1), n - 2):
        if len(cover) < 4 and all((min(u, v), max(u, v)) not in edges
                                  for u in cover):
            cover.append(v)
    gens = [(labels[u], labels[v]) for u, v in sorted(edges)]
    if len(cover) >= 3:
        gens.append(tuple(labels[v] for v in sorted(cover)))
    return labels, gens


def _assert_sums_match_naive(labels, gens):
    s = SC.from_minimal_nonfaces(labels, gens)
    family = s.minimal_nonfaces()
    assert chromatic_polynomial(s) == naive_chromatic(s)
    assert numerator_by_inclusion_exclusion(family) == naive_numerator(family)


def test_state_sums_match_naive_subset_loops_on_antichains():
    rng = random.Random(405)
    for r in list(range(1, 13)) * 2:
        _assert_sums_match_naive(*_random_antichain(rng, rng.randint(8, 14), r))


def test_state_sums_match_naive_subset_loops_on_shapes():
    rng = random.Random(406)
    cases = [_path(m) for m in (1, 2, 5, 12)]
    cases += [_star(m) for m in (1, 3, 12)]
    cases += [_matching(m) for m in (1, 4, 6)]
    cases += [_disjoint_groups(rng, n) for n in (5, 9, 12, 12)]
    cases += [_forest_plus_cover(rng, n) for n in (6, 9, 12, 12, 13)]
    assert max(len(g) for _, g in cases) == 12
    for labels, gens in cases:
        _assert_sums_match_naive(labels, gens)


def test_state_sums_closed_forms_at_25_nonfaces():
    # 26 vertices are past the face-enumeration guard, so chi_c is summed
    # from the nonface masks directly
    t = P((0, 1))
    tree = t * P((-1, 1)) ** 25
    path = [0b11 << i for i in range(25)]
    star = [1 | 1 << i for i in range(1, 26)]
    labels = [f"v{i:02d}" for i in range(26)]
    assert chromatic_polynomial(SC(labels, nonface_masks=path)) == tree
    assert chromatic_polynomial(SC(labels, nonface_masks=star)) == tree
    matching = [0b11 << 2 * i for i in range(12)]
    assert chromatic_polynomial(SC(labels[:24], nonface_masks=matching)) == \
        P((0, -1, 1)) ** 12
    one_minus_t2 = P((1, 0, -1))
    assert numerator_by_inclusion_exclusion(
        NonfaceFamily(tuple(_matching(12)[1]))) == one_minus_t2 ** 12
    # K of the star: the union of k >= 1 edges has k + 1 vertices
    assert numerator_by_inclusion_exclusion(NonfaceFamily(tuple(_star(25)[1]))) == \
        P((1, -1)) + t * (P((1, -1)) ** 25)


def test_minimal_nonfaces_match_naive_subset_scan():
    rng = random.Random(402)
    for _ in range(40):
        s = random_complex(rng, n_max=7, r_max=5)
        naive = tuple(sorted(naive_minimal_nonfaces(s)))
        # the seeded nonfaces, and the ones recovered from the facets
        assert s.minimal_nonfaces().generators == naive
        assert SC.from_facets(s.vertices, s.facets).minimal_nonfaces().generators \
            == naive


def test_facets_match_naive_maximality_scan():
    rng = random.Random(403)
    for _ in range(40):
        s = random_complex(rng, n_max=7, r_max=5)
        assert set(s.facets) == naive_maximal_faces(s)


def test_zero_vertex_and_one_vertex_edges():
    empty = SC.from_facets([], [])
    assert chromatic_polynomial(empty) == P((1,))
    assert empty.minimal_nonfaces().generators == ()
    point = points_complex("a")
    assert chromatic_polynomial(point) == P((0, 1))
    assert point.f_vector == (1, 1)
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
                          [[mapping[v] for v in f] for f in s.facets])


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
