"""Simplicial chromatic polynomials by inclusion-exclusion over nonface subsets.

The polynomial is t^n plus, for every nonempty subset I of the minimal
nonfaces, a signed term t^(n - |union of I| + c(I)) where c(I) counts the
connected components of the intersection graph of I.  The terms are added
up by state, not one subset at a time: subsets that agree on everything a
later nonface can still change share one signed count.  Two independent
oracles live alongside: the finite-model count, which counts the colourings
with no monochromatic minimal nonface from the ways to split the vertices
into k colour classes that hold no nonface, counted once per complex for
every k a q asks (it shares only the nonface bitmasks and the later-unions
helper with the sum), and the classical graph chromatic polynomial via
deletion-contraction.

Sign convention: the direct inclusion-exclusion expansion of the removed
diagonal union; it reproduces the falling factorial on complete graphs and
matches the finite-model oracle at every integer point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .complexes import (SimplicialComplex, _antichain_max, _bits,
                        _later_unions, _masks, _reindex, fresh_label)
from .polynomials import IntPolynomial
from .report import CheckReport, check_limit, check_live_states, report

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
    """Inclusion-exclusion over all subsets of the minimal nonfaces, summed
    by state.

    The minimal nonface masks are taken in order, and each subset I either
    holds the next one or leaves it out.  All the rest of the sum needs to
    know of I is its state: the exponent n - |union of I| + c(I) so far, and
    the components of I cut down to the live vertices, those a later
    generator holds.  A vertex retires after its last generator, which no
    later one can reach, so a component just drops it.  Subsets in one state
    add up their signed counts, and the last generator reads each state
    straight into the coefficients.  The cost is the live states, not the
    2^r subsets; check_live_states bounds them, and their sum over the walk.
    """
    n, gens = S.n, S.minimal_nonface_masks
    coeff = [0] * (n + 1)
    if not gens:
        coeff[n] = 1
        return IntPolynomial(coeff)
    states = {((), n): 1}  # (live components, exponent) -> signed count
    summed = 0
    for g, live in zip(gens, _later_unions(gens)[:-1]):
        retiring = g & ~live
        nxt = states.copy()  # the subsets that leave g out
        for state, count in states.items():
            comps, e = state
            met = 0
            rest = []
            for cm in comps:
                if cm & g:
                    met |= cm
                else:
                    rest.append(cm)
            if met & retiring:  # its copy holds vertices that retire with g
                del nxt[state]
                out = (tuple(sorted(cm & live for cm in comps if cm & live)), e)
                nxt[out] = nxt.get(out, 0) + count
            e += len(rest) - len(comps) + 1 - (g & ~met).bit_count()
            merged = (g | met) & live
            if merged:
                rest.append(merged)
                rest.sort()
            held = (tuple(rest), e)
            nxt[held] = nxt.get(held, 0) - count
        states = nxt
        summed += len(states)
        check_live_states(len(states), summed,
                          "use the auxiliary-complex identity instead")
    g = gens[-1]
    for (comps, e), count in states.items():
        met = 0
        joined = 0
        for cm in comps:
            if cm & g:
                met |= cm
                joined += 1
        coeff[e] += count
        coeff[e + 1 - joined - (g & ~met).bit_count()] -= count
    return IntPolynomial(coeff)


def finite_model_count(S: SimplicialComplex, q: int) -> int:
    """Tuples in {1..q}^n whose coordinates are not all equal on any nonface.

    Independent oracle, exact: colours are interchangeable, so it counts the
    ways to place the vertices into k colour classes with no nonface inside
    a class, and the q colours take k classes in q (q-1) ... (q-k+1) ways.
    Only the vertices up to the highest top vertex of a nonface are placed;
    past them every tuple of the tail counts, q^(n - last) of them.  The
    class counts come from a table built once per complex and extended only
    as far as k <= q, so the calls for q = 0..n+1 share one walk.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    n = S.n
    check_limit("model_size", q ** n, MODEL_LIMIT, f"tuples in {{1..{q}}}^{n}",
                "chi_c evaluated at q is the same count")
    table = _class_counts(S.minimal_nonface_masks)
    total = 0
    ways = 1  # q (q-1) ... (q-k+1)
    for k, count in enumerate(table.upto(min(q, table.last))):
        total += count * ways
        ways *= q - k
    return q ** (n - table.last) * total


class _ClassCounts:
    """Placements of the vertices 0..last-1 into colour classes, by count.

    ``last`` is one past the highest top vertex of a nonface.  Vertices are
    placed in order, and each minimal nonface is tested once, at its top
    vertex: the rest of it must not lie in the class that vertex joins.  A
    placement's state is its classes cut down to the vertices a later test
    reads; a class that holds none of them counts only by number.  Stratum k
    maps, at every vertex step, each state with exactly k classes to its
    number of placements.  It is built from stratum k, where the vertex
    joins a class, and from stratum k-1, where it opens one.  ``counts[k]``
    is the total of stratum k at ``last``.  Only the last stratum built is
    kept; check_live_states bounds the states of the two strata in memory,
    and every state built.
    """

    def __init__(self, gens):
        self.last = max((g.bit_length() for g in gens), default=0)
        self.tests = [[] for _ in range(self.last)]  # each nonface minus its top
        reads = [0] * self.last
        for g in gens:
            top = g.bit_length() - 1
            self.tests[top].append(g ^ 1 << top)
            reads[top] |= g ^ 1 << top
        self.keeps = _later_unions(reads)  # what the tests after step v read
        self.stratum = [{(): 1}] + [{}] * self.last
        self.counts = [int(self.last == 0)]
        self.summed = 0

    def upto(self, k: int) -> list[int]:
        """counts[0..k], building the strata not built yet."""
        while len(self.counts) <= k:
            self._build()
        return self.counts[:k + 1]

    def _build(self) -> None:
        """The next stratum, from itself and the last one, step by step.

        States are sorted tuples of nonzero masks.  The vertex placed is
        above every class, so a class it joins or opens sorts last."""
        k = len(self.counts)
        prev = self.stratum
        held = sum(map(len, prev))
        summed = self.summed
        cur = [{}]  # no placement of no vertex has a class
        kept = 0  # what the states at this step hold
        for v, (rests, keep) in enumerate(zip(self.tests, self.keeps)):
            bit = 1 << v & keep
            retires = kept & ~keep
            opens = all(rests)  # a new class holds v alone: only {v} lies in it
            nxt = {}
            for classes, count in cur[v].items():
                base = _cut(classes, keep) if retires else classes
                grown = base + (bit,) if bit else base
                for c in classes:
                    for rest in rests:
                        if not rest & ~c:
                            break  # the rest of a nonface lies in c
                    else:
                        c &= keep
                        if c and bit:
                            state = tuple(d for d in base if d != c) + (c | bit,)
                        else:
                            state = base if c else grown
                        nxt[state] = nxt.get(state, 0) + count
                dead = k - len(classes)
                if dead and opens:
                    nxt[grown] = nxt.get(grown, 0) + dead * count
            if opens:
                for classes, count in prev[v].items():
                    base = _cut(classes, keep) if retires else classes
                    grown = base + (bit,) if bit else base
                    nxt[grown] = nxt.get(grown, 0) + count
            kept = keep
            cur.append(nxt)
            held += len(nxt)
            summed += len(nxt)
            check_live_states(held, summed, "chi_c evaluated at q is the same count")
        self.stratum = cur
        self.summed = summed
        self.counts.append(sum(cur[-1].values()))


# the table of the last nonface family asked for, kept across q
_class_counts = lru_cache(maxsize=1)(_ClassCounts)


def _cut(classes, keep: int) -> tuple[int, ...]:
    """The classes cut down to keep, empty ones dropped, sorted again."""
    return tuple(sorted(c & keep for c in classes if c & keep))


def complex_of_graph(G: Graph) -> SimplicialComplex:
    """Complex whose minimal nonfaces are the edges: faces = independent sets."""
    return SimplicialComplex.from_minimal_nonfaces(G.vertices, G.edges)


def graph_chromatic(G: Graph) -> IntPolynomial:
    """Classical chromatic polynomial by deletion-contraction on 2-bit edge
    masks, each minor once; contraction moves the higher end onto the lower."""
    check_limit("graph_vertices", len(G.vertices), GRAPH_VERTEX_LIMIT,
                "vertices to delete and contract",
                "chi_c of complex_of_graph(G) is the same polynomial")
    t = IntPolynomial((0, 1))

    @cache
    def rec(nverts, edges):
        if not edges:
            return t ** nverts
        e = min(edges)
        low = e & -e
        high = e ^ low
        deleted = edges - {e}
        contracted = frozenset(f ^ high | low if f & high else f for f in deleted)
        return rec(nverts, deleted) - rec(nverts - 1, contracted)

    index = {v: i for i, v in enumerate(G.vertices)}
    return rec(len(G.vertices),
               frozenset(1 << index[a] | 1 << index[b] for a, b in G.edges))


def _nonface_mask(S: SimplicialComplex, sigma, convention: str) -> int:
    """The mask of sigma, once the convention and sigma are checked."""
    if convention not in (REMOVE_ONLY, MERGE_VERTEX):
        raise ValueError(f"unknown contraction convention {convention!r}")
    sig, = _masks(S.vertices, [sigma], "nonface")
    if sig not in S.minimal_nonface_masks:
        raise ValueError(f"{sorted(sigma)} is not a minimal nonface")
    return sig


def tidied_contraction(S: SimplicialComplex, sigma,
                       convention: str = MERGE_VERTEX) -> SimplicialComplex:
    """Contract a minimal nonface.

    REMOVE_ONLY keeps the faces disjoint from sigma, on the vertex set
    V minus sigma.  MERGE_VERTEX additionally adjoins a fresh vertex w whose
    face relations mimic graph contraction: tau | {w} is a face iff
    tau | {x} was a face for every x in sigma.
    """
    return _contraction(S, _nonface_mask(S, sigma, convention), convention)


def _contraction(S: SimplicialComplex, sig: int, convention: str):
    """The contraction from the minimal nonfaces of S: those that miss sig,
    and for MERGE_VERTEX the minimal images nu - x + w of those that meet
    sig in x alone, since tau + w holds a nonface iff some tau + x does."""
    labels = [v for i, v in enumerate(S.vertices) if not sig >> i & 1]
    if convention == MERGE_VERTEX:
        w = fresh_label(set(S.vertices), "w")
        labels = sorted(labels + [w])
    move = _reindex(S.vertices, labels)
    nonfaces = [move(m) for m in S.minimal_nonface_masks if not m & sig]
    if convention == MERGE_VERTEX:
        wbit = 1 << labels.index(w)
        full = (1 << len(labels)) - 1  # minimal: maximal among complements
        nonfaces += [full ^ m for m in _antichain_max(
            full ^ (move(m) | wbit) for m in S.minimal_nonface_masks
            if (m & sig).bit_count() == 1)]
    return SimplicialComplex(labels, nonface_masks=nonfaces)


def _with_face(S: SimplicialComplex, sig: int) -> SimplicialComplex:
    """S with its minimal nonface sig made a face: the other minimal
    nonfaces, and sig + v for each v outside sig with no other inside."""
    others = [m for m in S.minimal_nonface_masks if m != sig]
    grown = (sig | 1 << v for v in _bits((1 << S.n) - 1 & ~sig))
    return SimplicialComplex(S.vertices, nonface_masks=others + [
        g for g in grown if not any(m & g == m for m in others)])


def verify_addition_contraction(S: SimplicialComplex, sigma,
                                convention: str = MERGE_VERTEX) -> CheckReport:
    """Residual of the addition-contraction relation, per convention.

    Computes chi_c(S) - chi_c(S with sigma adjoined) + chi_c(contraction),
    each complex contributing through its own vertex count.  The report
    carries the residual of both conventions; the verdict is anchored to the
    requested one (zero residual = PASS).
    """
    sig = _nonface_mask(S, sigma, convention)
    contracted = {conv: _contraction(S, sig, conv)
                  for conv in (MERGE_VERTEX, REMOVE_ONLY)}
    base = chromatic_polynomial(S)
    added = chromatic_polynomial(_with_face(S, sig))
    residuals = {conv: base - added + chromatic_polynomial(C)
                 for conv, C in contracted.items()}
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
