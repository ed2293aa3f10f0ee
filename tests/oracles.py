"""Independent oracles the tests check the library against.

No library code calls them.  Each restates a definition on labels and plain
sets, away from the bitmask code it checks; the one walk over masks,
``full_scan_leaves``, restates the dualization walk without its shortcut.
``dense_matrix`` builds the matrices that the tests write out by hand.
"""

from itertools import combinations
from math import comb

from simpchrom.complexes import SimplicialComplex
from simpchrom.homology import IntegerMatrix


def dense_matrix(rows) -> IntegerMatrix:
    """The matrix of the given dense rows, all of ints and of one length."""
    rows = tuple(map(tuple, rows))
    ncols = len(rows[0]) if rows else 0
    assert all(len(r) == ncols and all(type(x) is int for x in r)
               for r in rows), rows
    return IntegerMatrix(tuple(tuple((j, x) for j, x in enumerate(r) if x)
                               for r in rows), ncols)


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


def euler_characteristics(S: SimplicialComplex) -> tuple[int, int]:
    """(chi, chi_reduced): the alternating count of the nonempty faces, and
    chi - 1."""
    chi = sum((-1) ** (k - 1) * len(group)
              for k, group in enumerate(face_groups(S)) if k)
    return chi, chi - 1


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


def antichain_error(generators) -> str | None:
    """The message a checked nonface family raises, by testing every
    ordered pair of generators; None for a valid family."""
    gens = [tuple(sorted(g)) for g in generators]
    sets = [frozenset(g) for g in gens]
    for i, g in enumerate(sets):
        if not g:
            return "empty generator"
        if len(g) != len(gens[i]):
            return f"repeated vertex in generator {gens[i]}"
        for j, h in enumerate(sets):
            if i != j and g <= h:
                return f"generators are not an antichain: {gens[i]} <= {gens[j]}"
    return None


def antichain_max_labels(sets) -> set[frozenset]:
    """The label sets not strictly inside another one, pair by pair."""
    sets = {frozenset(s) for s in sets}
    return {s for s in sets if not any(s < t for t in sets)}


def full_scan_leaves(n: int, gen_masks) -> list[int]:
    """The leaves of the branching dualization walk, in the order it finds
    them, with every set's generator scan run from the first generator."""
    gens = sorted(gen_masks, key=int.bit_count)
    found = []
    stack = [((1 << n) - 1, 0)]
    while stack:
        m, kept = stack.pop()
        g = next((g for g in gens if g & m == g), None)
        if g is None:
            found.append(m)
            continue
        branch = g & ~kept
        for v in range(n):
            if branch >> v & 1:
                stack.append((m ^ 1 << v, kept))
                kept |= 1 << v
    return found
