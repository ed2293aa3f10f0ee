"""Boundary matrices, Smith normal form, and reduced homology."""

import random
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import chain, combinations
from math import comb, gcd

import pytest

from simpchrom import complexes, homology
from simpchrom.analysis import uniform_matroid_complex
from simpchrom.complexes import NonfaceFamily, SimplicialComplex
from simpchrom.cyclotomic import CyclotomicSpec, check_constant_term_detection
from simpchrom.hilbert import numerator_by_inclusion_exclusion
from simpchrom.homology import (IntegerMatrix, boundary_matrix, reduced_homology,
                                smith_normal_form)
from simpchrom.report import GuardError
from simpchrom.sampling import random_complex

from oracles import (dense_matrix, euler_characteristics, face_groups,
                     points_complex)

SC = SimplicialComplex


def triangle_boundary():
    return SC.from_minimal_nonfaces("123", [("1", "2", "3")])


def octahedron():
    return SC.from_minimal_nonfaces("abcdef", [("a", "c"), ("b", "d"), ("e", "f")])


def test_integer_matrix_validation():
    m = IntegerMatrix((((0, 1), (1, 2)), (), ((1, -3),)), 2)
    assert (m.nrows, m.ncols) == (3, 2)
    assert m.entries == ((1, 2), (0, 0), (0, -3))  # an empty row is all zeros
    assert all(type(x) is int for row in m.entries for x in row)
    assert m.entries is m.entries  # built once, on first read
    assert IntegerMatrix((), 0).entries == ()
    assert dense_matrix(m.entries) == m
    with pytest.raises(AssertionError):
        dense_matrix(((1, 2), (3,)))  # ragged rows
    with pytest.raises(AssertionError):
        dense_matrix(((1, 2.7), (3, 4)))  # int() would truncate it to 2
    with pytest.raises(AssertionError):
        dense_matrix(((1, "2"),))


def test_integer_matrix_is_frozen_and_one_value_across_constructors():
    B = boundary_matrix(octahedron(), 1)  # built by the library
    D = dense_matrix(B.entries)  # the same matrix, from its dense rows
    assert B == D and hash(B) == hash(D) and B.sparse_rows == D.sparse_rows
    assert (D.nrows, D.ncols) == (6, 12)
    assert {B: 1}[D] == 1
    for field in ("sparse_rows", "ncols", "nrows"):
        with pytest.raises(FrozenInstanceError):
            setattr(B, field, ())
    assert B != dense_matrix(((0,) * 12,) * 6)  # same shape, no entries
    assert B != IntegerMatrix(B.sparse_rows, 13)  # same rows, one column wider


def test_boundary_matrix_shapes_and_signs():
    tri = triangle_boundary()
    d1 = boundary_matrix(tri, 1)
    assert (d1.nrows, d1.ncols) == (3, 3)
    for col in range(3):
        entries = [d1.entries[row][col] for row in range(3)]
        assert sorted(entries) == [-1, 0, 1]
    d0 = boundary_matrix(points_complex("12"), 0)
    assert d0.entries == ((1, 1),)
    d2 = boundary_matrix(octahedron(), 2)
    assert (d2.nrows, d2.ncols) == (12, 8)
    for k in (-1, 2):
        with pytest.raises(ValueError, match=f"degree {k} outside 0..1"):
            boundary_matrix(tri, k)


def _labelled_boundary(s, k):
    """d_k built from the face labels alone: column c has (-1)^i at the row
    of c without its i-th vertex."""
    groups = face_groups(s)
    rows, cols = groups[k], groups[k + 1]
    index = {f: i for i, f in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for i in range(len(c)):
            out[index[c[:i] + c[i + 1:]]][j] = (-1) ** i
    return dense_matrix(out)


def test_boundary_matrix_matches_the_labelled_oracle():
    rng = random.Random(23)
    samples = [octahedron(), triangle_boundary(), points_complex("ab"),
               SC.from_facets("123456", PROJECTIVE_PLANE_FACETS),
               SC.from_minimal_nonfaces("abcd", [("c",), ("a", "b")], relaxed=True)]
    for _ in range(30):
        s = random_complex(rng, n_max=7)
        samples.append(s)
        samples.append(SC.from_facets(s.vertices + ("bb", "zz"), s.facets,
                                      relaxed=True))
    for s in samples:
        for k in range(s.dimension + 1):
            oracle = _labelled_boundary(s, k)
            built = boundary_matrix(s, k)
            assert built == oracle and hash(built) == hash(oracle)
            assert built.entries == oracle.entries


def test_boundary_squared_is_zero():
    rng = random.Random(9)
    complexes = [octahedron(), triangle_boundary()]
    complexes += [random_complex(rng, n_max=6) for _ in range(10)]
    for s in complexes:
        for k in range(s.dimension):
            a = boundary_matrix(s, k).entries
            b = boundary_matrix(s, k + 1).entries
            assert all(sum(x * y for x, y in zip(row, col)) == 0
                       for row in a for col in zip(*b))


def test_boundary_matrices_sort_the_faces_once(monkeypatch):
    # the table of faces by size is built once per complex, every face in it
    # once, and it comes out in order without a sort key
    rng = random.Random(31)
    samples = [octahedron()] + [random_complex(rng, n_max=7) for _ in range(10)]
    keyed, built = [], []
    mask_key = complexes._mask_key
    build_table = SC.faces_by_size.func

    def counted_key(m):
        keyed.append(m)
        return mask_key(m)

    def counted_table(s):
        built.append(s)
        return build_table(s)

    table = cached_property(counted_table)
    table.__set_name__(SC, "faces_by_size")
    monkeypatch.setattr(complexes, "_mask_key", counted_key)
    monkeypatch.setattr(SC, "faces_by_size", table)
    for s in samples:
        s.facet_masks  # a complex given by its nonfaces sorts its facets here
        keyed.clear()
        built.clear()
        for _ in range(3):
            for k in range(s.dimension + 1):
                boundary_matrix(s, k)
            reduced_homology(s)
        assert len(built) == 1 and built[0] is s and keyed == []
        assert sorted(chain.from_iterable(s.faces_by_size)) \
            == sorted(s.face_masks)  # each face in the table once


def test_smith_normal_form_fixtures():
    assert smith_normal_form(dense_matrix(((1, 0), (0, 1)))) == (1, 1)
    assert smith_normal_form(dense_matrix(((2, 4), (0, 6)))) == (2, 6)
    assert smith_normal_form(dense_matrix(((0, 0), (0, 0)))) == ()
    # standard torsion example: 2x2 with determinant 4 and content 2
    assert smith_normal_form(dense_matrix(((2, 0), (0, 2)))) == (2, 2)
    assert smith_normal_form(dense_matrix(((1, 2), (3, 4)))) == (1, 2)
    # diagonal entries that do not divide each other must be repaired
    assert smith_normal_form(dense_matrix(((2, 0), (0, 3)))) == (1, 6)
    assert smith_normal_form(dense_matrix(((6, 0, 0), (0, 10, 0),
                                           (0, 0, 15)))) == (1, 30, 30)


def test_smith_normal_form_random_properties():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = dense_matrix(
            [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows))
        inv = smith_normal_form(m)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        assert all(d > 0 for d in inv)


def test_smith_normal_form_of_the_transpose():
    # the elimination runs over the shorter side, so a matrix and its
    # transpose take different routes to the same invariants
    rng = random.Random(19)
    projective = SC.from_facets("123456", PROJECTIVE_PLANE_FACETS)
    cases = [((0, 0, 0), (0, 0, 0)), ((2, 0, 0, 0), (0, 4, 0, 6)),
             boundary_matrix(projective, 2).entries]  # 15 x 10, Z/2 torsion
    for trial in range(120):
        rows, cols = rng.choice([(1, 6), (2, 7), (3, 9), (5, 5), (4, 8)])
        if trial % 2:
            rows, cols = cols, rows
        zeros = rng.random()
        scale = rng.choice((1, 1, 2, 3, 6))  # every invariant a multiple
        cases.append(tuple(
            tuple(0 if rng.random() < zeros else scale * rng.randint(-5, 5)
                  for _ in range(cols)) for _ in range(rows)))
    torsion = 0
    for rows in cases:
        inv = smith_normal_form(dense_matrix(rows))
        assert smith_normal_form(dense_matrix(tuple(zip(*rows)))) == inv, rows
        torsion += any(d > 1 for d in inv)
    assert smith_normal_form(dense_matrix(cases[2])) == (1,) * 9 + (2,)
    assert torsion > 30


def _det(rows):
    # cofactor expansion: slow, simple, exact
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_invariant_product_equals_determinant_magnitude():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        inv = smith_normal_form(dense_matrix(rows))
        prod = 1
        for d in inv:
            prod *= d
        det = _det([list(r) for r in rows])
        if det != 0:
            assert len(inv) == n and prod == abs(det)


def test_invariants_are_quotients_of_determinantal_divisors():
    # d_1 * ... * d_k is the gcd of all k x k minors, an exact route that
    # shares nothing with the elimination; past the rank every minor vanishes
    rng = random.Random(17)
    for trial in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        zeros = rng.random()  # density varies, so many matrices are singular
        a = [[0 if rng.random() < zeros else rng.randint(-6, 6)
              for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 0 and rows > 1:  # a dependent row
            a[-1] = [x - 2 * y for x, y in zip(a[0], a[-2])]
        inv = smith_normal_form(dense_matrix(a))
        product = 1
        for k in range(1, min(rows, cols) + 1):
            minors = [_det([[a[i][j] for j in cs] for i in rs])
                      for rs in combinations(range(rows), k)
                      for cs in combinations(range(cols), k)]
            if k <= len(inv):
                product *= inv[k - 1]
                assert gcd(*minors) == product, (a, inv, k)
            else:
                assert not any(minors), (a, inv, k)
                break


def test_reduced_homology_fixtures():
    assert reduced_homology(triangle_boundary()) == {0: (0, ()), 1: (1, ())}
    assert reduced_homology(points_complex("12")) == {0: (1, ())}
    assert reduced_homology(octahedron()) == {0: (0, ()), 1: (0, ()), 2: (1, ())}
    full = SC.from_minimal_nonfaces("abc", [])
    assert reduced_homology(full) == {0: (0, ()), 1: (0, ()), 2: (0, ())}
    empty = SC.from_facets([], [])
    assert reduced_homology(empty) == {-1: (1, ())}


def test_euler_consistency():
    rng = random.Random(15)
    for _ in range(25):
        s = random_complex(rng, n_max=6)
        hom = reduced_homology(s)
        chi_reduced = euler_characteristics(s)[1]
        assert sum((-1) ** k * rank for k, (rank, _) in hom.items()) == chi_reduced


# closed-surface fixtures: facet lists pinned by combinatorial search (every
# edge in exactly two triangles, all edges used), so the homology below is
# dictated by the classification of surfaces, independent of this code

PROJECTIVE_PLANE_FACETS = (
    ("1", "2", "3"), ("1", "2", "4"), ("1", "3", "5"), ("1", "4", "6"),
    ("1", "5", "6"), ("2", "3", "6"), ("2", "4", "5"), ("2", "5", "6"),
    ("3", "4", "5"), ("3", "4", "6"))


def test_projective_plane_two_torsion():
    s = SC.from_facets("123456", PROJECTIVE_PLANE_FACETS)
    edge_use = {}
    for t in PROJECTIVE_PLANE_FACETS:
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edge_use[e] = edge_use.get(e, 0) + 1
    assert len(edge_use) == 15 and set(edge_use.values()) == {2}
    assert euler_characteristics(s) == (1, 0)
    assert reduced_homology(s) == {0: (0, ()), 1: (0, (2,)), 2: (0, ())}


def test_seven_vertex_torus():
    labs = [str(i) for i in range(7)]
    tris = []
    for i in range(7):
        tris.append((labs[i], labs[(i + 1) % 7], labs[(i + 3) % 7]))
        tris.append((labs[i], labs[(i + 2) % 7], labs[(i + 3) % 7]))
    s = SC.from_facets(labs, tris)
    assert s.f_vector == (1, 7, 21, 14)
    assert euler_characteristics(s)[0] == 0
    assert reduced_homology(s) == {0: (0, ()), 1: (2, ()), 2: (1, ())}


def _rational_rank(rows):
    # independent rank oracle: exact Gaussian elimination over fractions
    from fractions import Fraction
    a = [[Fraction(x) for x in row] for row in rows]
    if not a or not a[0]:
        return 0
    rank = 0
    row = 0
    for col in range(len(a[0])):
        piv = next((r for r in range(row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(row + 1, len(a)):
            if a[r][col]:
                f = a[r][col] / a[row][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        rank += 1
        row += 1
        if row == len(a):
            break
    return rank


def test_invariant_count_matches_rational_rank():
    rng = random.Random(16)
    for _ in range(50):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(cols))
                  for _ in range(rows))
        assert len(smith_normal_form(dense_matrix(m))) == _rational_rank(m)


def test_matrix_size_guard_fires_before_the_matrix_is_built(monkeypatch):
    u = uniform_matroid_complex(16, 4)
    assert boundary_matrix(u, 2).nrows == 120  # 120 x 560: short side 120

    class Unbuilt(IntegerMatrix):
        # the dataclass constructor makes its matrix through __new__
        def __new__(cls, *args):
            raise AssertionError("boundary matrix allocated past the SNF limit")

    monkeypatch.setattr(homology, "IntegerMatrix", Unbuilt)
    with pytest.raises(AssertionError, match="allocated"):
        boundary_matrix(u, 2)  # the stand-in catches a build under the limit
    with pytest.raises(GuardError) as exc:
        boundary_matrix(u, 3)  # 560 x 1820
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "matrix_size", 560, 500,
        "560 lines on the short side of an SNF matrix exceed the 500 limit")


def test_the_homology_path_never_builds_dense_rows(monkeypatch):
    def dense(M):
        raise AssertionError("dense rows built")

    monkeypatch.setattr(IntegerMatrix, "entries", property(dense))
    with pytest.raises(AssertionError, match="dense rows built"):
        boundary_matrix(octahedron(), 1).entries
    assert reduced_homology(octahedron())[2] == (1, ())
    assert reduced_homology(SC.from_facets("123456", PROJECTIVE_PLANE_FACETS))[1] \
        == (0, (2,))
    assert reduced_homology(uniform_matroid_complex(9, 4))[3] == (70, ())
    assert check_constant_term_detection(CyclotomicSpec((3, 5, 7)), 7).passed


def test_reduced_homology_guards_fire_before_any_snf(monkeypatch):
    calls = []

    def counted(M):
        calls.append((M.nrows, M.ncols))
        return smith_normal_form(M)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    with pytest.raises(GuardError) as exc:
        reduced_homology(uniform_matroid_complex(16, 4))  # d_3 is 560 x 1820
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "matrix_size", 560, 500,
        "560 lines on the short side of an SNF matrix exceed the 500 limit")
    assert calls == []


def test_reduced_homology_checks_each_matrix_once(monkeypatch):
    calls = []
    check = homology._check_snf_size

    def counted(nrows, ncols):
        calls.append((nrows, ncols))
        check(nrows, ncols)

    monkeypatch.setattr(homology, "_check_snf_size", counted)
    assert reduced_homology(octahedron())[1] == (0, ())
    # each matrix once in the f-vector pass, before any is built; then
    # boundary_matrix and smith_normal_form each check what they are given
    assert calls == [(1, 6), (6, 12), (12, 8),
                     (1, 6), (1, 6), (6, 12), (6, 12), (12, 8), (12, 8)]


def cross_polytope(d):
    """The boundary of the d-dimensional cross-polytope: d antipodal pairs."""
    labels = [f"v{i:02d}" for i in range(2 * d)]
    return SC.from_minimal_nonfaces(labels, [labels[i:i + 2]
                                             for i in range(0, 2 * d, 2)])


def wide_nonfaces(n):
    """26 random 9-element minimal nonfaces on n vertices, as the CI's wide
    inputs draw them."""
    rng = random.Random(1)
    labels = [f"v{i:02d}" for i in range(n)]
    gens = set()
    while len(gens) < 26:
        gens.add(tuple(sorted(rng.sample(labels, 9))))
    return labels, sorted(gens)


def f_from_numerator(K, n):
    """f_i, the faces of size i, from K(t) = sum_i f_i t^i (1 - t)^(n - i),
    solved degree by degree: no face is enumerated."""
    f = []
    for j in range(n + 1):
        f.append(K[j] - sum(x * comb(n - i, j - i) * (-1) ** (j - i)
                            for i, x in enumerate(f)))
    while not f[-1]:
        f.pop()
    return tuple(f)


FACE_COUNT_LIMIT = 5000  # the long-side bound that homology.py dropped


def first_refused(f, long_side):
    """The k of the first d_k, f_k x f_(k+1), whose short side exceeds
    matrix_size, or with long_side whose long side exceeds 5,000; or None."""
    for k in range(len(f) - 1):
        short, long = sorted(f[k:k + 2])
        if short > homology.SNF_DIMENSION_LIMIT or (
                long_side and long > FACE_COUNT_LIMIT):
            return k
    return None


def test_the_long_side_bound_refuses_no_other_matrix():
    # any caller that builds d_0, d_1, ... in order meets the first refusal
    # of both bounds at the same matrix as that of matrix_size alone
    samples = [tuple(comb(n, i) for i in range(k + 1))  # U(n, k)
               for n in range(1, 26) for k in range(1, n + 1)]
    samples += [tuple(2 ** i * comb(d, i) for i in range(d + 1))
                for d in range(1, 13)]  # cross-polytope boundaries
    wide = {}
    for n in (18, 20, 22):
        _, gens = wide_nonfaces(n)
        wide[n] = f_from_numerator(
            numerator_by_inclusion_exclusion(NonfaceFamily(gens)), n)
    assert wide[18] == SC.from_minimal_nonfaces(*wide_nonfaces(18)).f_vector
    assert sum(wide[22]) == 4032137
    samples += wide.values()
    rng = random.Random(5)
    samples += [random_complex(rng, n_min=10, n_max=16, r_max=8,
                               size_max=8).f_vector for _ in range(40)]
    renamed = 0
    for f in samples:
        n = f[1]  # every vertex is a face in these samples
        assert all(f[k + 1] * (k + 1) <= f[k] * (n - k)
                   for k in range(len(f) - 1)), f
        k = first_refused(f, long_side=False)
        assert first_refused(f, long_side=True) == k, f
        if k is not None and max(f[k:k + 2]) > FACE_COUNT_LIMIT:
            renamed += 1  # a refusal the long side named first
    assert renamed > 10
    for n, short in ((18, 816), (20, 1140), (22, 1540)):
        k = first_refused(wide[n], long_side=False)
        assert min(wide[n][k:k + 2]) == short
    assert sum(first_refused(f, False) is None for f in samples[-40:]) > 5
    assert sum(first_refused(f, False) is not None for f in samples[-40:]) > 5


@pytest.mark.parametrize("d, short", [(8, 1120), (10, 960), (11, 1320),
                                      (12, 1760)])
def test_reduced_homology_refuses_before_the_face_table(d, short, monkeypatch):
    def unbuilt(s):
        raise AssertionError("face table grown past the SNF limit")

    table = cached_property(unbuilt)
    table.__set_name__(SC, "faces_by_size")
    monkeypatch.setattr(SC, "faces_by_size", table)
    with pytest.raises(GuardError) as exc:
        reduced_homology(cross_polytope(d))
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "matrix_size", short, 500,
        f"{short} lines on the short side of an SNF matrix exceed the 500 limit")


def test_a_tall_boundary_matrix_out_of_order_is_built():
    # every 4-subset of 21 vertices and one 5-set: d_4 is 5,985 x 1, built
    # when asked for alone, while reduced_homology stops at d_3, 1,330 x 5,985
    labels = [f"v{i:02d}" for i in range(21)]
    s = SC.from_facets(labels, [labels[:5]] + [list(c) for c in combinations(
        labels, 4) if not set(c) <= set(labels[:5])])
    assert s.f_vector[3:] == (1330, 5985, 1)
    top = boundary_matrix(s, 4)
    assert (top.nrows, top.ncols) == (5985, 1)
    assert sorted(x for line in top.sparse_rows for _, x in line) == [-1, -1, 1, 1, 1]
    with pytest.raises(GuardError) as exc:
        reduced_homology(s)
    assert (exc.value.limit, exc.value.measured) == ("matrix_size", 1330)


def test_matrix_size_guard_in_smith_normal_form(monkeypatch):
    monkeypatch.setattr(homology, "SNF_DIMENSION_LIMIT", 2)
    assert smith_normal_form(dense_matrix(((1, 0, 0), (0, 2, 0)))) == (1, 2)
    with pytest.raises(GuardError) as exc:
        smith_normal_form(dense_matrix(((1, 0, 0), (0, 2, 0), (0, 0, 3))))
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "matrix_size", 3, 2,
        "3 lines on the short side of an SNF matrix exceed the 2 limit")
    with pytest.raises(GuardError) as exc:
        reduced_homology(triangle_boundary())  # d1 is 3 x 3
    err = exc.value
    assert (err.limit, err.measured, err.bound, str(err)) == (
        "matrix_size", 3, 2,
        "3 lines on the short side of an SNF matrix exceed the 2 limit")
