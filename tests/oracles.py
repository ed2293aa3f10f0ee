"""Independent oracles the tests check the library against.

No library code calls them.  Each restates a definition on labels and plain
sets, away from the bitmask code it checks.
"""

from itertools import combinations
from math import comb

from simpchrom.complexes import SimplicialComplex


def points_complex(labels) -> SimplicialComplex:
    """The 0-dimensional complex on the given vertices."""
    return SimplicialComplex.from_facets(labels, [[lab] for lab in labels])


def _covered(S: SimplicialComplex) -> bool:
    """Does every vertex of S lie in some facet, as a strict complex needs?"""
    return set(S.vertices) <= {v for f in S.facets for v in f}


def join(s1: SimplicialComplex, s2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint label sets: faces are unions F1 | F2."""
    overlap = set(s1.vertices) & set(s2.vertices)
    if overlap:
        raise ValueError(f"label collision in join: {sorted(overlap)}")
    labels = s1.vertices + s2.vertices
    facets = [tuple(f1) + tuple(f2) for f1 in s1.facets for f2 in s2.facets]
    return SimplicialComplex.from_facets(
        labels, facets, relaxed=not (_covered(s1) and _covered(s2)))


def is_face(S: SimplicialComplex, labels) -> bool:
    """Is the label set contained in some facet of S?"""
    unknown = set(labels) - set(S.vertices)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    return any(set(labels) <= set(f) for f in S.facets)


def contraction(S: SimplicialComplex, sigma, w=None) -> SimplicialComplex:
    """Contraction of the nonface sigma, on labels.

    The faces of S disjoint from sigma; with a merge label w (a label not in
    S) also tau + w wherever tau + x is a face of S for every x in sigma.
    """
    sigma = set(sigma)
    faces = {frozenset(c) for f in S.facets
             for k in range(len(f) + 1) for c in combinations(f, k)}
    kept = [tau for tau in faces if not tau & sigma]
    labels = [v for v in S.vertices if v not in sigma]
    if w is not None:
        labels.append(w)
        kept += [tau | {w} for tau in kept
                 if all(tau | {x} in faces for x in sigma)]
    return SimplicialComplex.from_facets(labels, kept, relaxed=True)


def face_groups(S: SimplicialComplex) -> list[list[tuple]]:
    """The faces of S as label tuples, entry i holding the sorted i-sets."""
    groups = [set() for _ in range(max(map(len, S.facets)) + 1)]
    for f in S.facets:
        for k in range(len(f) + 1):
            groups[k].update(combinations(f, k))
    return [sorted(g) for g in groups]


def minimal_nonface_labels(S: SimplicialComplex) -> list[tuple]:
    """The minimal label sets that lie in no facet of S, sorted, by trying
    every subset of the vertices."""
    facets = [set(f) for f in S.facets]

    def face(labels):
        return any(set(labels) <= f for f in facets)

    return sorted(c for k in range(1, S.n + 1)
                  for c in combinations(S.vertices, k)
                  if not face(c) and all(face(set(c) - {v}) for v in c))


def with_face(S: SimplicialComplex, sigma) -> SimplicialComplex:
    """S with the label set sigma added as a face, with all its subsets."""
    return SimplicialComplex.from_facets(S.vertices, list(S.facets) + [sigma],
                                         relaxed=not _covered(S))


def f_from_h(h, d: int) -> tuple[int, ...]:
    """Inverse h-to-f transform: f_{j-1} = sum_i C(d-i, j-i) h_i."""
    h = tuple(h)
    if len(h) != d + 1:
        raise ValueError(f"h-vector of length {len(h)} inconsistent with d = {d}")
    return tuple(
        sum(comb(d - i, j - i) * h[i] for i in range(j + 1))
        for j in range(d + 1))


def component_count(sets) -> int:
    """Components of the intersection graph: sets adjacent iff they overlap."""
    fsets = [frozenset(s) for s in sets]
    for s in fsets:
        if not s:
            raise ValueError("empty input set")
    parent = list(range(len(fsets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(fsets)):
        for j in range(i + 1, len(fsets)):
            if fsets[i] & fsets[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    return len({find(i) for i in range(len(fsets))})
