"""Canonical complex representation and the facet/nonface correspondence."""

import random
from itertools import combinations

import pytest

from simpchrom import CyclotomicSpec, build_residue_subcomplex, complexes
from simpchrom.analysis import uniform_matroid_complex
from simpchrom.auxiliary import (auxiliary_complex, lift_disjoint,
                                 lift_with_apex, search_alpha)
from simpchrom.chromatic import MERGE_VERTEX, tidied_contraction
from simpchrom.complexes import NonfaceFamily, SimplicialComplex
from simpchrom.report import GuardError
from simpchrom.sampling import random_complex

from oracles import (antichain_error, antichain_max_labels, euler_characteristics,
                     face_groups, full_scan_leaves, is_face, join,
                     minimal_nonface_labels, points_complex)

SC = SimplicialComplex


def triangle_boundary():
    return SC.from_minimal_nonfaces("123", [("1", "2", "3")])


def square_complex():
    return SC.from_minimal_nonfaces("abcd", [("a", "c"), ("b", "d")])


def test_from_facets_reduces_to_antichain():
    s = SC.from_facets("abc", [("a", "b"), ("a",), ("b", "c"), ("a", "b")])
    assert s.facets == (("a", "b"), ("b", "c"))


def test_from_facets_drops_repeated_facets():
    s = SC.from_facets("abc", [("a", "b"), ("a", "b"), ("b", "a"), ("a",),
                               ("b", "c")])
    assert s.facets == (("a", "b"), ("b", "c"))
    assert s.facet_masks == (0b011, 0b110)


def test_from_facets_fixtures():
    tri = SC.from_facets("123", [("1", "2"), ("1", "3"), ("2", "3")])
    assert tri.dimension == 1
    full = SC.from_facets("123", [("1", "2", "3")])
    assert full.dimension == 2
    square = SC.from_facets("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert square == square_complex()


def test_from_facets_errors():
    with pytest.raises(ValueError, match="duplicate"):
        SC.from_facets(["a", "a"], [("a",)])
    with pytest.raises(ValueError, match="^labels must be strings, got 1$"):
        SC.from_facets(["a", 1], [("a",)])
    with pytest.raises(ValueError, match="unknown label"):
        SC.from_facets("ab", [("a", "c")])
    with pytest.raises(ValueError, match="in no face"):
        SC.from_facets("abc", [("a", "b")])
    # a repeated label is rejected, not merged into one bit
    with pytest.raises(ValueError, match=r"repeated vertex in facet \('a', 'a', 'b'\)"):
        SC.from_facets("ab", [("a", "a", "b")])


def test_from_minimal_nonfaces_fixtures():
    sq = square_complex()
    assert sq.facets == (("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"))
    tri = triangle_boundary()
    assert tri.facets == (("1", "2"), ("1", "3"), ("2", "3"))
    full = SC.from_minimal_nonfaces("12", [])
    assert full.facets == (("1", "2"),)


def test_from_minimal_nonfaces_errors():
    with pytest.raises(ValueError, match="antichain"):
        NonfaceFamily((("a",), ("a", "b")))
    with pytest.raises(ValueError, match="empty generator"):
        NonfaceFamily(((),))
    with pytest.raises(ValueError, match="singleton"):
        SC.from_minimal_nonfaces("ab", [("a",)])
    # relaxed mode carries formal nonface vertices
    t = SC.from_minimal_nonfaces("ab", [("a",), ("b",)], relaxed=True)
    assert t.facet_masks == (0,) and t.n == 2


def test_minimal_nonfaces_of_fixtures():
    assert square_complex().minimal_nonfaces().generators == (("a", "c"), ("b", "d"))
    assert triangle_boundary().minimal_nonfaces().generators == (("1", "2", "3"),)
    full = SC.from_minimal_nonfaces("abc", [])
    assert full.minimal_nonfaces().generators == ()


def test_round_trip_on_random_complexes():
    rng = random.Random(101)
    for _ in range(100):
        s = random_complex(rng, n_max=8)
        # s dualizes its seeded nonfaces; back recovers them from the faces
        back = SC.from_facets(s.vertices, s.facets)
        assert back == s and hash(back) == hash(s)
        assert back.minimal_nonface_masks == s.minimal_nonface_masks
        assert back.minimal_nonfaces() == s.minimal_nonfaces()


def test_minimal_nonfaces_form_antichain():
    rng = random.Random(7)
    for _ in range(50):
        s = random_complex(rng, n_max=7)
        gens = [set(g) for g in s.minimal_nonfaces().generators]
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                assert i == j or not g <= h


def test_derived_nonface_family_equals_the_checked_one():
    # minimal_nonfaces() wraps its masks without the input check
    rng = random.Random(59)
    complexes = [random_complex(rng, n_max=8) for _ in range(60)]
    for _ in range(60):
        # two-element sigmas give single-element alphas: formal nonface
        # vertices of a relaxed auxiliary complex
        assign = search_alpha(random_complex(rng, n_max=7,
                                             size_max=2).minimal_nonfaces())
        if assign is not None:
            complexes.append(auxiliary_complex(assign))
    assert any(len(g) == 1 for s in complexes
               for g in s.minimal_nonfaces().generators)
    for s in complexes:
        family = s.minimal_nonfaces()
        assert family == NonfaceFamily(family.generators)


def _derived_families(rng):
    """Complexes whose nonface masks were derived or moved onto new labels:
    random ones, their facet round trips, lifts and merge contractions."""
    # twelve disjoint pairs: the fresh labels q10..q12 sort between q1 and q2
    pairs = [(chr(97 + i), chr(98 + i)) for i in range(0, 24, 2)]
    yield lift_disjoint(SC.from_minimal_nonfaces(
        [v for p in pairs for v in p], pairs))[0]
    for _ in range(40):
        s = random_complex(rng, n_max=8)
        yield s
        yield SC.from_facets(s.vertices, s.facets)
        yield lift_with_apex(s)[0]
        try:
            yield lift_disjoint(s)[0]
        except ValueError:  # nonfaces that meet have no disjoint lift
            pass
        for m in s.minimal_nonface_masks:
            yield tidied_contraction(s, s.labels_of(m), MERGE_VERTEX)


def test_derived_nonface_family_is_sorted_in_mask_order():
    # minimal_nonfaces() sorts nothing: the mask order is the label order
    seen = 0
    for s in _derived_families(random.Random(83)):
        gens = s.minimal_nonfaces().generators
        assert gens == tuple(sorted(gens))
        assert gens == tuple(s.labels_of(m) for m in s.minimal_nonface_masks)
        seen += len(gens) > 1
    assert seen > 50


def test_f_vector_fixtures():
    full3 = SC.from_minimal_nonfaces("abc", [])
    assert full3.f_vector == (1, 3, 3, 1)
    assert euler_characteristics(full3) == (1, 0)
    two = points_complex("ab")
    assert two.f_vector == (1, 2)
    assert euler_characteristics(two) == (2, 1)
    assert square_complex().f_vector == (1, 4, 4)


def test_face_count_matches_is_face_scan():
    rng = random.Random(23)
    for _ in range(20):
        s = random_complex(rng, n_min=2, n_max=6)
        total = 0
        for k in range(1, s.n + 1):
            for sub in combinations(s.vertices, k):
                if is_face(s, sub):
                    total += 1
        assert total == sum(s.f_vector[1:])


def _given_by_facets(seed):
    """Complexes whose nonfaces are derived: seeded random ones, the same
    with labels in no facet (singleton nonfaces, "bb" a middle bit), the
    0-vertex complex, a simplex, points, and formal vertices alone."""
    rng = random.Random(seed)
    out = [SC.from_facets([], []), SC.from_facets("abcd", ["abcd"]),
           points_complex("abc"), SC.from_facets("abc", [], relaxed=True)]
    for _ in range(40):
        s = random_complex(rng, n_max=8)
        out.append(SC.from_facets(s.vertices, s.facets))
        out.append(SC.from_facets(s.vertices + ("bb", "zz"), s.facets,
                                  relaxed=True))
    return out


def test_face_table_partitions_the_faces_by_size():
    for s in _given_by_facets(29):
        table = s.faces_by_size
        assert len(table) == s.dimension + 2
        assert sum(map(len, table)) == len(s.face_masks)
        assert set().union(*table) == s.face_masks
        for size, group in enumerate(table):
            assert all(m.bit_count() == size for m in group)
        # each group in lexicographic vertex order: the label sets grouped
        # by size and sorted
        assert [[s.labels_of(m) for m in g] for g in table] == face_groups(s)
    assert SC.from_facets([], []).faces_by_size == ((0,),)


@pytest.fixture
def face_maps(monkeypatch):
    """The vertex count of every closure that took the 2^n-bit map."""
    calls = []
    work = complexes._face_map

    def counted(facet_masks, n):
        calls.append(n)
        return work(facet_masks, n)

    monkeypatch.setattr(complexes, "_face_map", counted)
    return calls


def test_both_closure_routes_equal_the_subset_scan(face_maps):
    # the density rule counts repeated facets, so 2^n copies of the facets
    # force the map; at n = 64 no map fits, so the same facets walk
    for s in _given_by_facets(31):
        scan = {sum(1 << s.vertices.index(v) for v in sub)
                for k in range(s.n + 1) for sub in combinations(s.vertices, k)
                if is_face(s, sub)}
        face_maps.clear()
        assert complexes._downward_closure(s.facet_masks * (1 << s.n), s.n) == scan
        assert complexes._downward_closure(s.facet_masks, 64) == scan
        assert face_maps == [s.n]
        assert s.face_masks == scan
        assert complexes._face_map(s.facet_masks, s.n).bit_count() == len(scan)


def _direct_family(seed):
    """17 incomparable random nonfaces of 2-4 of 14 vertices, the shape of
    the lattice benchmark's direct chi_c inputs."""
    rng = random.Random(seed)
    labels, kept = [chr(ord("a") + i) for i in range(14)], []
    while len(kept) < 17:
        g = frozenset(rng.sample(labels, rng.randint(2, 4)))
        if not any(g <= h or h <= g for h in kept):
            kept.append(g)
    return SC.from_minimal_nonfaces(labels, kept)


def _pure_20(seed):
    rng = random.Random(seed)
    labels = [f"v{i:02d}" for i in range(20)]
    return SC.from_facets(labels, [rng.sample(labels, 8) for _ in range(40)])


@pytest.mark.parametrize("make, dense", [
    (lambda: uniform_matroid_complex(14, 7), True),    # 2^n / sum 2^|f|: 0.04
    (lambda: _direct_family(3), True),                 # 1.7
    (lambda: SC.from_facets("abc", [], relaxed=True), True),   # 8, the bound
    (lambda: SC.from_facets("abcd", [], relaxed=True), False),  # 16
    (lambda: build_residue_subcomplex(CyclotomicSpec((3, 5, 7)), {7}), False),  # 72
    (lambda: _pure_20(5), False),                      # 102
], ids=["U(14,7)", "lattice-direct", "empty-3", "empty-4", "residue-3-5-7",
        "pure-20"])
def test_the_closure_route_follows_the_density_rule(face_maps, make, dense):
    s = make()
    s.facet_masks  # a complex given by its nonfaces dualizes here
    assert face_maps == []
    faces = s.face_masks
    assert face_maps == ([s.n] if dense else [])
    assert faces == complexes._downward_closure(s.facet_masks, 64)  # the walk


def test_derived_minimal_nonfaces_equal_a_subset_scan():
    samples = _given_by_facets(47)
    assert any(len(g) == 1 for s in samples for g in minimal_nonface_labels(s))
    for s in samples:
        assert list(s.minimal_nonfaces().generators) == minimal_nonface_labels(s)


def _maximal_generator_free_scan(s):
    """Facet masks of s by a scan of all 2^n vertex subsets: the sets that
    hold no minimal nonface while each one-vertex extension holds one."""
    bit = {v: 1 << i for i, v in enumerate(s.vertices)}
    gens = [sum(bit[v] for v in g) for g in s.minimal_nonfaces().generators]

    def free(m):
        return not any(g & m == g for g in gens)

    return {m for m in range(1 << s.n) if free(m)
            and not any(free(m | bit[v]) for v in s.vertices if not m & bit[v])}


def _mixed_family(rng, n, sizes):
    """A random antichain of label sets with sizes drawn from ``sizes``."""
    labels = [f"v{i:02d}" for i in range(n)]
    kept = []
    for _ in range(rng.randint(0, 14)):
        g = frozenset(rng.sample(labels, min(n, rng.choice(sizes))))
        if not any(g <= h or h <= g for h in kept):
            kept.append(g)
    return labels, [sorted(g) for g in kept]


def _given_by_nonfaces(seed):
    """Complexes whose facets are derived: seeded mixed-size families on up
    to 12 vertices, relaxed ones with singleton generators, the empty family,
    one generator on the whole vertex set, and U(n, k) for n <= 10."""
    rng = random.Random(seed)
    out = [SC.from_minimal_nonfaces([], []), SC.from_minimal_nonfaces("abcd", []),
           SC.from_minimal_nonfaces("abcd", ["abcd"]),
           SC.from_minimal_nonfaces("a", ["a"], relaxed=True)]
    for _ in range(60):
        out.append(SC.from_minimal_nonfaces(
            *_mixed_family(rng, rng.randint(2, 12), (2, 3, 4, 5))))
        out.append(SC.from_minimal_nonfaces(
            *_mixed_family(rng, rng.randint(1, 12), (1, 1, 2, 3, 4)), relaxed=True))
    for n in range(1, 11):
        labels = [f"{i:02d}" for i in range(n)]
        for k in range(n):
            out.append(SC.from_minimal_nonfaces(
                labels, list(combinations(labels, k + 1)), relaxed=k == 0))
    return out


def test_dualized_facets_equal_a_subset_scan():
    samples = _given_by_nonfaces(53)
    assert any(len(g) == 1 for s in samples for g in s.minimal_nonfaces().generators)
    assert any(len({len(g) for g in s.minimal_nonfaces().generators}) >= 4
               for s in samples)
    for s in samples:
        assert "facet_masks" not in s.__dict__
        assert len(set(s.facet_masks)) == len(s.facet_masks)
        assert set(s.facet_masks) == _maximal_generator_free_scan(s), s.vertices


@pytest.fixture
def leaves(monkeypatch):
    """The masks handed to complexes._antichain_max, one list per call."""
    calls = []
    work = complexes._antichain_max

    def counted(masks):
        calls.append(list(masks))
        return work(masks)

    monkeypatch.setattr(complexes, "_antichain_max", counted)
    return calls


def test_dualizing_u10_5_meets_each_facet_once_and_nothing_else(leaves):
    labels = [f"{i:02d}" for i in range(10)]
    T = SC.from_minimal_nonfaces(labels, combinations(labels, 6))
    leaves.clear()
    facets = T.facet_masks
    assert len(leaves) == 1
    assert len(leaves[0]) == len(set(leaves[0])) == 252
    assert set(leaves[0]) == set(facets)


def test_dualizing_a_mixed_family_branches_on_the_smallest_generator(leaves):
    # 11 generators of sizes 2-5 on 12 vertices; a walk that branches on
    # the first generator in label order and skips revisited sets hands
    # over 340 leaves here
    T = random_complex(random.Random(5), n_min=12, n_max=12, r_max=12, size_max=5)
    assert sorted(map(len, T.minimal_nonfaces().generators)) == \
        [2, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5]
    leaves.clear()
    assert len(T.facet_masks) == 59
    assert len(leaves) == 1
    assert len(leaves[0]) == len(set(leaves[0])) == 124


def test_the_walk_hands_over_the_leaves_of_a_full_scan_walk(leaves):
    # each set's scan starts past its parent's generator; a scan from the
    # first generator takes the same generator, so the same sets are met
    for s in _given_by_nonfaces(61):
        leaves.clear()
        s.facet_masks
        assert leaves == [full_scan_leaves(s.n, s.minimal_nonface_masks)]


class CountedMask(int):
    """A generator mask that counts the ``&`` taken with it on the left."""

    tests = 0

    def __and__(self, other):
        CountedMask.tests += 1
        return int(self) & other


def test_resuming_each_scan_cuts_the_generator_tests_on_u10_5():
    # one & per generator tested and one per set branched on; scanning each
    # set from the first generator takes 75,285
    labels = [f"{i:02d}" for i in range(10)]
    T = SC.from_minimal_nonfaces(labels, combinations(labels, 6))
    gens = [CountedMask(m) for m in T.minimal_nonface_masks]
    CountedMask.tests = 0
    assert set(complexes._maximal_generator_free(10, gens)) == set(T.facet_masks)
    resumed = CountedMask.tests
    CountedMask.tests = 0
    full_scan_leaves(10, gens)
    assert resumed == 21459 < CountedMask.tests


@pytest.mark.parametrize("n", [25, 64])
def test_dualizing_one_edge_in_64_bit_words(n):
    # the walk holds its leaves as 64-bit words: the vertex guard's 25 fits,
    # and so does the top bit; the edge {0, n-1} leaves the two sets missing
    # one end
    full = (1 << n) - 1
    assert sorted(complexes._maximal_generator_free(n, [1 | 1 << n - 1])) == \
        [full ^ 1 << n - 1, full ^ 1]


def test_reducing_a_pure_complex_plus_faces_one_vertex_short():
    # the kept facets one size up are found by their one-short subsets, the
    # classes two or more sizes up are scanned
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(5, 12)
        k = rng.randint(3, min(6, n - 1))
        labels = [f"v{i:02d}" for i in range(n)]
        facets = [rng.sample(labels, k) for _ in range(rng.randint(1, 30))]
        given = facets + [rng.sample(f, k - 1) for f in rng.choices(facets, k=20)]
        given += [rng.sample(labels, k - rng.choice((1, 1, 2))) for _ in range(20)]
        rng.shuffle(given)
        s = SC.from_facets(labels, given, relaxed=True)
        assert {frozenset(f) for f in s.facets} == antichain_max_labels(given)
        assert len(s.facets) == len(set(s.facets))


def test_the_antichain_check_reports_what_a_pairwise_scan_reports():
    rng = random.Random(83)
    reported = []
    for _ in range(300):
        labels, family = _mixed_family(rng, rng.randint(3, 12), (1, 2, 3, 4, 5))
        for _ in range(rng.randint(0, 2) if family else 0):
            g = rng.choice(family)
            plant = rng.choice(("repeat", "subset", "superset", "vertex"))
            if plant == "repeat":
                g = rng.sample(g, len(g))
            elif plant == "subset":
                g = rng.sample(g, rng.randint(1, len(g)))
            elif plant == "superset":
                others = [v for v in labels if v not in g]
                g = g + rng.sample(others, min(1, len(others)))
            else:
                g = g + [rng.choice(g)]
            family.insert(rng.randint(0, len(family)), g)
        expected = antichain_error(family)
        if expected is None:
            assert NonfaceFamily(family).generators == tuple(sorted(map(tuple, family)))
            continue
        with pytest.raises(ValueError) as err:
            NonfaceFamily(family)
        assert str(err.value) == expected
        reported.append(expected.split(":")[0].split(" in ")[0])
    assert set(reported) == {"generators are not an antichain", "repeated vertex"}
    assert len(reported) >= 100


def test_is_face():
    sq = square_complex()
    assert is_face(sq, ("a", "b"))
    assert not is_face(sq, ("a", "c"))
    assert is_face(sq, ())


def test_join_builds_complete_bipartite():
    k23 = join(points_complex("ab"), points_complex("cde"))
    assert len(k23.facets) == 6
    assert k23.dimension == 1
    assert set(k23.facets) == {("a", "c"), ("a", "d"), ("a", "e"),
                               ("b", "c"), ("b", "d"), ("b", "e")}


def test_join_rejects_label_collision():
    with pytest.raises(ValueError, match="collision"):
        join(points_complex("ab"), points_complex("bc"))


def test_join_f_vector_convolution():
    rng = random.Random(3)
    import string
    for _ in range(15):
        s1 = random_complex(rng, n_min=2, n_max=4)
        n1 = s1.n
        labels2 = list(string.ascii_uppercase[:rng.randint(2, 4)])
        s2 = SC.from_facets(labels2, [labels2])
        f1, f2 = s1.f_vector, s2.f_vector
        fj = join(s1, s2).f_vector
        for k in range(len(fj)):
            conv = sum(f1[i] * f2[k - i]
                       for i in range(len(f1)) if 0 <= k - i < len(f2))
            assert fj[k] == conv


def test_empty_complex_on_no_vertices():
    empty = SC.from_facets([], [])
    assert empty.n == 0
    assert empty.dimension == -1
    assert empty.f_vector == (1,)


def test_vertex_guard():
    labels = [f"v{i:02d}" for i in range(26)]
    s = SC.from_facets(labels, [labels])
    with pytest.raises(GuardError) as err:
        s.f_vector
    assert err.value.limit == "vertex_count"


def test_canonical_order_is_sorted():
    s = SC.from_facets(["b", "a"], [("b", "a")])
    assert s.vertices == ("a", "b")
    assert s.facets == (("a", "b"),)
