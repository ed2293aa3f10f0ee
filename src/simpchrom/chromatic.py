"""Simplicial chromatic polynomials by inclusion-exclusion over nonface subsets.

The polynomial is t^n plus, for every nonempty subset I of the minimal
nonfaces, a signed term t^(n - |union of I| + c(I)) where c(I) counts the
connected components of the intersection graph of I.  Two independent
oracles live alongside: the finite-model count, which counts the colourings
with no monochromatic minimal nonface by placing vertices into colour classes
(it shares only the nonface bitmasks with the walk), and the classical graph
chromatic polynomial via deletion-contraction.

Sign convention: the direct inclusion-exclusion expansion of the removed
diagonal union; it reproduces the falling factorial on complete graphs and
matches the finite-model oracle at every integer point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (SimplicialComplex, _antichain_max, _bits, _masks,
                        _reindex, fresh_label)
from .polynomials import IntPolynomial
from .report import CheckReport, GuardError, report

NONFACE_LIMIT = 25
MODEL_LIMIT = 10 ** 8
GRAPH_VERTEX_LIMIT = 12

REMOVE_ONLY = "remove"
MERGE_VERTEX = "merge"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on string-labeled vertices."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        labs = tuple(sorted(self.vertices))
        if len(set(labs)) != len(labs):
            raise ValueError("duplicate vertex labels")
        seen = set()
        edges = []
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"loop at vertex {a!r}")
            if a not in labs or b not in labs:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            edges.append(e)
        object.__setattr__(self, "vertices", labs)
        object.__setattr__(self, "edges", tuple(sorted(edges)))


def complete_graph(n: int) -> Graph:
    labs = [chr(ord("a") + i) for i in range(n)]
    return Graph(tuple(labs),
                 tuple((labs[i], labs[j]) for i in range(n) for j in range(i + 1, n)))


def chromatic_polynomial(S: SimplicialComplex) -> IntPolynomial:
    """Inclusion-exclusion over all subsets of the minimal nonfaces.

    Subsets are visited in DFS order adding one generator at a time; the
    running union is a bitset and the component list is merged incrementally,
    so each of the 2^r nodes costs one scan over the current components.
    """
    gens = S.minimal_nonface_masks
    r = len(gens)
    if r > NONFACE_LIMIT:
        raise GuardError(
            "nonface_count",
            f"{r} minimal nonfaces exceed the {NONFACE_LIMIT} enumeration limit; "
            "use the auxiliary-complex identity instead")
    n = S.n
    coeff = [0] * (n + 1)
    coeff[n] += 1

    def walk(start, union, comps, sign):
        nsign = -sign
        for j in range(start, r):
            g = gens[j]
            merged = g
            rest = []
            for cm in comps:
                if cm & g:
                    merged |= cm
                else:
                    rest.append(cm)
            rest.append(merged)
            nu = union | g
            coeff[n - nu.bit_count() + len(rest)] += nsign
            walk(j + 1, nu, rest, nsign)

    walk(0, 0, [], 1)
    return IntPolynomial(coeff)


def finite_model_count(S: SimplicialComplex, q: int) -> int:
    """Tuples in {1..q}^n whose coordinates are not all equal on any nonface.

    Independent oracle, exact: colours are interchangeable, so vertices are
    placed in order into colour classes.  A vertex joins one of the k classes
    in use or opens a new one, which any of the q - k unused colours can
    take.  Each minimal nonface is tested once, at its highest vertex: the
    rest of it must not lie in the class that vertex joins.  Past the last
    such vertex every tuple of the tail counts, q^(n - v) of them.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    n = S.n
    if q ** n > MODEL_LIMIT:
        raise GuardError("model_size", f"q^n = {q}^{n} exceeds {MODEL_LIMIT}")
    rests = [[] for _ in range(n)]  # each nonface minus its highest vertex
    last = 0  # first vertex of the free tail
    for g in S.minimal_nonface_masks:
        top = g.bit_length() - 1
        rests[top].append(g ^ (1 << top))
        last = max(last, top + 1)
    classes = []

    def count(v):
        if v == last:
            return q ** (n - v)
        bit = 1 << v
        tests = rests[v]
        total = 0
        for i, cls in enumerate(classes):
            if all(rest & ~cls for rest in tests):
                classes[i] = cls | bit
                total += count(v + 1)
                classes[i] = cls
        k = len(classes)
        # a new class holds v alone: only a singleton nonface (rest 0) lies in it
        if k < q and all(tests):
            classes.append(bit)
            total += (q - k) * count(v + 1)
            classes.pop()
        return total

    return count(0)


def complex_of_graph(G: Graph) -> SimplicialComplex:
    """Complex whose minimal nonfaces are the edges: faces = independent sets."""
    return SimplicialComplex.from_minimal_nonfaces(G.vertices, G.edges)


def graph_chromatic(G: Graph) -> IntPolynomial:
    """Classical chromatic polynomial by deletion-contraction."""
    if len(G.vertices) > GRAPH_VERTEX_LIMIT:
        raise GuardError("graph_vertices",
                         f"{len(G.vertices)} vertices exceed the "
                         f"{GRAPH_VERTEX_LIMIT} recursion limit")
    t = IntPolynomial((0, 1))

    def rec(nverts, edges):
        if not edges:
            return t ** nverts
        a, b = min(edges)
        deleted = edges - {(a, b)}
        contracted = set()
        for x, y in deleted:
            if x == b:
                x = a
            if y == b:
                y = a
            if x != y:
                contracted.add((x, y) if x < y else (y, x))
        return rec(nverts, deleted) - rec(nverts - 1, frozenset(contracted))

    index = {v: i for i, v in enumerate(G.vertices)}
    edges = frozenset((index[a], index[b]) for a, b in G.edges)
    return rec(len(G.vertices), edges)


def tidied_contraction(S: SimplicialComplex, sigma,
                       convention: str = MERGE_VERTEX) -> SimplicialComplex:
    """Contract a minimal nonface.

    REMOVE_ONLY keeps the faces disjoint from sigma, on the vertex set
    V minus sigma.  MERGE_VERTEX additionally adjoins a fresh vertex w whose
    face relations mimic graph contraction: tau | {w} is a face iff
    tau | {x} was a face for every x in sigma.
    """
    sig, = _masks(S.vertices, [sigma], "nonface")
    if sig not in S.minimal_nonface_masks:
        raise ValueError(f"{sorted(sigma)} is not a minimal nonface")
    if convention not in (REMOVE_ONLY, MERGE_VERTEX):
        raise ValueError(f"unknown contraction convention {convention!r}")
    labels = [v for i, v in enumerate(S.vertices) if not sig >> i & 1]
    if convention == MERGE_VERTEX:
        w = fresh_label(set(S.vertices), "w")
        labels = sorted(labels + [w])
    move = _reindex(S.vertices, labels)
    kept = [m for m in S.face_masks if not m & sig]
    faces = [move(m) for m in kept]
    if convention == MERGE_VERTEX:
        wbit = 1 << labels.index(w)
        faces += [move(m) | wbit for m in kept
                  if all(m | (1 << x) in S.face_masks for x in _bits(sig))]
    return SimplicialComplex(labels, _antichain_max(faces))


def verify_addition_contraction(S: SimplicialComplex, sigma,
                                convention: str = MERGE_VERTEX) -> CheckReport:
    """Residual of the addition-contraction relation, per convention.

    Computes chi_c(S) - chi_c(S with sigma adjoined) + chi_c(contraction),
    each complex contributing through its own vertex count.  The report
    carries the residual of both conventions; the verdict is anchored to the
    requested one (zero residual = PASS).
    """
    if convention not in (REMOVE_ONLY, MERGE_VERTEX):
        raise ValueError(f"unknown contraction convention {convention!r}")
    if _masks(S.vertices, [sigma], "nonface")[0] not in S.minimal_nonface_masks:
        raise ValueError(f"{sorted(sigma)} is not a minimal nonface")
    base = chromatic_polynomial(S)
    added = chromatic_polynomial(S.add_face(sigma))
    residuals = {}
    for conv in (MERGE_VERTEX, REMOVE_ONLY):
        contracted = chromatic_polynomial(tidied_contraction(S, sigma, conv))
        residuals[conv] = base - added + contracted
    ok = residuals[convention].is_zero()
    return report(
        "addition_contraction", ok,
        witness=None if ok else {
            "residual": list(residuals[convention].coeffs)},
        convention=convention,
        residual_merge=list(residuals[MERGE_VERTEX].coeffs),
        residual_remove=list(residuals[REMOVE_ONLY].coeffs),
        merge_pass=residuals[MERGE_VERTEX].is_zero(),
        remove_pass=residuals[REMOVE_ONLY].is_zero(),
    )
