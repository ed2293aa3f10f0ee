"""Companion-set assignments, the auxiliary complex, lifts, and identity checks.

Every minimal nonface sigma_i of a complex S gets a companion set alpha_i
with one fewer element.  When the sizing identity |union sigma_I| - c(I) =
|union alpha_I| holds for every subset I, the chromatic polynomial of S is
the reversed Hilbert numerator of the auxiliary complex T whose minimal
nonfaces are the alpha_i.  The checks below measure that identity, the
intersection condition that is supposed to imply it, and the two lift
constructions that manufacture complexes satisfying it.  The apex lift of T
is the full simplex on V(T) plus the cone over T from a fresh vertex q,
built from T's facets with no dualization.  Both lifts hand T, on the union
of the alphas, to the assignment they return; only an assignment that comes
in has its alphas checked and dualized by ``auxiliary_complex``.  All the
subset scans, and the backtracking alpha search, run on one depth-first walker
that carries the unions and components of sigma_I as bitmasks and reports
the smallest failing I, first in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (NonfaceFamily, SimplicialComplex, _antichain_family,
                        _check_vertex_count, _reindex, fresh_label)
from .chromatic import chromatic_polynomial
from .hilbert import h_vector, numerator_by_inclusion_exclusion
from .polynomials import IntPolynomial, brenti_criterion, reciprocal
from .report import CheckReport, GuardError, NOT_APPLICABLE, report

LITERAL = "literal"
STRICT = "strict"

SUBSET_SCAN_LIMIT = 20
SEARCH_NODE_LIMIT = 10 ** 7  # walker nodes, about 10 s at ~1 us per node


@dataclass(frozen=True)
class AlphaAssignment:
    """Ordered pairs (sigma_i, alpha_i); |alpha_i| = |sigma_i| - 1 throughout.

    Input order is preserved: witnesses are reported against it.  A lift
    hands over the auxiliary complex it built in ``_auxiliary``; it takes no
    part in equality, hash or repr, and an assignment built from pairs has
    none.
    """

    pairs: tuple[tuple[frozenset, frozenset], ...]
    _auxiliary: SimplicialComplex | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = []
        for sigma, alpha in self.pairs:
            s, a = frozenset(sigma), frozenset(alpha)
            if len(a) != len(s) - 1:
                raise ValueError(
                    f"|alpha| = {len(a)} != |sigma| - 1 = {len(s) - 1} "
                    f"for sigma {sorted(s)}")
            norm.append((s, a))
        object.__setattr__(self, "pairs", tuple(norm))

    def __len__(self):
        return len(self.pairs)

    @property
    def sigmas(self) -> tuple[frozenset, ...]:
        return tuple(s for s, _ in self.pairs)

    @property
    def alphas(self) -> tuple[frozenset, ...]:
        return tuple(a for _, a in self.pairs)


def _bitmasks(*families) -> list[list[int]]:
    """Label sets as bitmasks over one shared label index; no set repeats a
    label, so the sum of its bits is their union."""
    bit = {}
    return [[sum(bit.setdefault(x, 1 << len(bit)) for x in s) for s in sets]
            for sets in families]


def _walk(sigmas, alphas, visit, start=(0, 0, 0, ())):
    """Witness of the smallest, lexicographically first failing I = start + J.

    J runs over the nonempty subsets of range(len(sigmas)) in depth-first
    preorder, which lists each size in lexicographic order.  start, and the
    state passed to visit, is (index bitmask, sigma union, alpha union,
    components of sigma_I); visit returns a witness or a falsy value.
    After a witness only smaller sets are visited.
    """
    r = len(sigmas)
    cap = start[0].bit_count() + r + 1
    found = None

    def rec(lo, idx, sig, alf, comps):
        nonlocal cap, found
        size = idx.bit_count() + 1
        for j in range(lo, r):
            if size >= cap:
                return
            g = sigmas[j]
            merged = g
            rest = []
            for cm in comps:
                if cm & g:
                    merged |= cm
                else:
                    rest.append(cm)
            rest.append(merged)
            nidx, nsig, nalf = idx | 1 << j, sig | g, alf | alphas[j]
            witness = visit(nidx, nsig, nalf, rest)
            if witness:
                found, cap = witness, size
            elif size + 1 < cap:
                rec(j + 1, nidx, nsig, nalf, rest)

    rec(0, *start)
    return found


def _names(idx: int, sets) -> list:
    return [sorted(s) for i, s in enumerate(sets) if idx >> i & 1]


def check_intersection_property(assign: AlphaAssignment,
                                mode: str = LITERAL) -> CheckReport:
    """The companion-set intersection condition, in two quantifier readings.

    LITERAL applies the intersection-cardinality clause only for |I| >= 2;
    STRICT applies it for all |I| >= 1, the reading an induction on subset
    size needs for its base case.  Both modes always require alpha_I and
    alpha_p disjoint whenever sigma_I and sigma_p are.
    """
    if mode not in (LITERAL, STRICT):
        raise ValueError(f"unknown mode {mode!r}")
    sigmas, alphas = assign.sigmas, assign.alphas
    sig_masks, alf_masks = _bitmasks(sigmas, alphas)

    def visit(idx, sig, alf, comps):
        for p, (sp, ap) in enumerate(zip(sig_masks, alf_masks)):
            if idx >> p & 1:
                continue
            inter_s, inter_a = sig & sp, alf & ap
            if not inter_s and inter_a:
                overlap = set().union(*_names(idx, alphas)) & alphas[p]
                return {"I": _names(idx, sigmas), "p": sorted(sigmas[p]),
                        "clause": "disjointness", "alpha_overlap": sorted(overlap)}
            if inter_s and (mode == STRICT or idx & (idx - 1)) and (
                    inter_a.bit_count() != inter_s.bit_count() - 1):
                return {"I": _names(idx, sigmas), "p": sorted(sigmas[p]),
                        "clause": "cardinality",
                        "alpha_intersection": inter_a.bit_count(),
                        "sigma_intersection": inter_s.bit_count()}

    found = _walk(sig_masks, alf_masks, visit)
    return report("intersection_property", not found, witness=found, mode=mode)


def check_target_invariant(assign: AlphaAssignment) -> CheckReport:
    """|union sigma_I| - c(I) = |union alpha_I| for every nonempty I."""
    r = len(assign)
    if r > SUBSET_SCAN_LIMIT:
        raise GuardError("assignment_size",
                         f"{r} pairs exceed the {SUBSET_SCAN_LIMIT} scan limit")

    def visit(idx, sig, alf, comps):
        if sig.bit_count() - len(comps) != alf.bit_count():
            return {"I": _names(idx, assign.sigmas),
                    "sigma_union_size": sig.bit_count(), "components": len(comps),
                    "alpha_union_size": alf.bit_count()}

    found = _walk(*_bitmasks(assign.sigmas, assign.alphas), visit)
    return report("target_invariant", not found, witness=found)


def is_apex_assignment(assign: AlphaAssignment) -> bool:
    """Every sigma_i = alpha_i plus one shared vertex absent from all alphas.

    This pattern satisfies the target invariant at any size (every pair of
    sigmas meets at the apex, so c(I) = 1 and unions grow by exactly one),
    which matters when the assignment is too large for the exhaustive scan.
    """
    if not assign.pairs:
        return True
    common = frozenset.intersection(*assign.sigmas)
    for q in sorted(common):
        if all(q not in a and s == a | {q} for s, a in assign.pairs):
            return True
    return False


def search_alpha(family: NonfaceFamily) -> AlphaAssignment | None:
    """First remove-one-element companion assignment passing the invariant.

    Candidates for each alpha_i are the subsets of sigma_i with one element
    removed, tried in lexicographic order; returns None when no combination
    passes (NOT_FOUND is a value, not an error).  After fixing alpha_i the
    search walks the subsets whose largest index is i and backtracks at the
    first failure, so it returns the first passing assignment in product
    order.  Every subset walked counts against SEARCH_NODE_LIMIT.
    """
    gens = family.generators
    r = len(gens)
    if r > SUBSET_SCAN_LIMIT:
        raise GuardError("assignment_size",
                         f"{r} pairs exceed the {SUBSET_SCAN_LIMIT} scan limit")
    candidates = [sorted(tuple(sorted(set(g) - {x})) for x in g) for g in gens]
    sigmas, *candidate_masks = _bitmasks(gens, *candidates)
    alphas, chosen, nodes = [0] * r, [()] * r, 0

    def fails(idx, sig, alf, comps):
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_NODE_LIMIT:
            raise GuardError("search_nodes", f"alpha search visited {nodes} "
                             f"subsets, past the {SEARCH_NODE_LIMIT} node limit")
        return sig.bit_count() - len(comps) != alf.bit_count()

    def place(i):
        if i == r:
            return True
        for m, a in zip(candidate_masks[i], candidates[i]):
            alphas[i], chosen[i] = m, a
            # I = {i} holds by construction: |alpha_i| = |sigma_i| - 1
            start = (1 << i, sigmas[i], m, [sigmas[i]])
            if not _walk(sigmas[:i], alphas[:i], fails, start) and place(i + 1):
                return True
        return False

    return AlphaAssignment(tuple(zip(gens, chosen))) if place(0) else None


def auxiliary_complex(assign: AlphaAssignment) -> SimplicialComplex:
    """Complex whose minimal nonfaces are the alpha sets, on their union.

    Built relaxed: a single-element alpha makes its vertex a formal nonface
    vertex, which still contributes to the numerator's t-power bookkeeping.
    A lift's assignment carries the complex, built from the T it lifted;
    any other assignment came in, so its alphas are checked as a
    NonfaceFamily and dualized.
    """
    if assign._auxiliary is not None:
        return assign._auxiliary
    alphas = assign.alphas
    family = NonfaceFamily(tuple(tuple(sorted(a)) for a in alphas))
    ground = sorted(set().union(*alphas)) if alphas else []
    return SimplicialComplex.from_minimal_nonfaces(ground, family, relaxed=True)


def _lift_assignment(sigmas, alphas, T: SimplicialComplex) -> AlphaAssignment:
    """The lift's assignment, carrying its auxiliary complex: T on the union
    of the alphas, relaxed, with T's minimal nonfaces.

    A vertex in no minimal nonface of T is a cone point, in every facet, so
    dropping those vertices from each facet leaves an antichain.
    """
    union = 0
    for m in T.minimal_nonface_masks:
        union |= m
    ground = T.labels_of(union)
    restrict = _reindex(T.vertices, ground)
    aux = SimplicialComplex(ground, map(restrict, T.facet_masks), relaxed=True,
                            nonface_masks=map(restrict, T.minimal_nonface_masks))
    assign = AlphaAssignment(tuple(zip(sigmas, alphas)))
    object.__setattr__(assign, "_auxiliary", aux)
    return assign


def lift_with_apex(T: SimplicialComplex):
    """One fresh apex vertex q adjoined to every minimal nonface of T.

    The faces of S are every subset of V(T), and q together with each face
    of T: the full simplex on V(T) and the cone over T from q.  So S has the
    facets V(T) and F + q for each facet F of T, or only V(T) + q when T has
    no nonface, and its minimal nonfaces are the sigmas, alpha + q.  Both
    are built as masks, with no dualization.  Returns (S, assignment); the
    induced assignment always satisfies the target invariant since every
    lifted nonface shares the apex.
    """
    nonfaces = T.minimal_nonface_masks
    q = fresh_label(set(T.vertices), "q")
    labels = sorted(T.vertices + (q,))
    _check_vertex_count(len(labels))
    move = _reindex(T.vertices, labels)
    apex = 1 << labels.index(q)
    simplex = (1 << len(labels)) - 1 ^ apex
    facets = ([simplex] + [move(f) | apex for f in T.facet_masks]
              if nonfaces else [simplex | apex])
    S = SimplicialComplex(labels, facets,
                          nonface_masks=[move(m) | apex for m in nonfaces])
    alphas = [frozenset(T.labels_of(m)) for m in nonfaces]
    return S, _lift_assignment([a | {q} for a in alphas], alphas, T)


def lift_disjoint(T: SimplicialComplex):
    """One fresh vertex per minimal nonface; requires pairwise-disjoint nonfaces.

    S is built from its sigmas, each an alpha plus its own fresh vertex.  So
    sigma_i inside sigma_j puts alpha_i inside alpha_j, and the sigmas are an
    antichain like the alphas: they skip the input check.
    """
    alphas = [frozenset(T.labels_of(m)) for m in T.minimal_nonface_masks]
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            if alphas[i] & alphas[j]:
                raise ValueError(
                    f"nonfaces {sorted(alphas[i])} and {sorted(alphas[j])} "
                    "are not disjoint")
    used = set(T.vertices)
    sigmas = []
    for k, a in enumerate(alphas):
        q = fresh_label(used, f"q{k + 1}")
        used.add(q)
        sigmas.append(a | {q})
    family = _antichain_family(tuple(sorted(s)) for s in sigmas)
    S = SimplicialComplex.from_minimal_nonfaces(sorted(used), family)
    return S, _lift_assignment(sigmas, alphas, T)


def require_matching_sigmas(S: SimplicialComplex, assign: AlphaAssignment) -> None:
    """ValueError unless the assignment's sigmas are the minimal nonfaces of
    S, each given once."""
    nonfaces = {frozenset(S.labels_of(m)) for m in S.minimal_nonface_masks}
    if len(assign) != len(nonfaces) or set(assign.sigmas) != nonfaces:
        raise ValueError("assignment sigmas differ from the minimal nonfaces of S")


def verify_main_theorem(S: SimplicialComplex, assign: AlphaAssignment) -> CheckReport:
    """Is chi_c(S) the reversed numerator of the auxiliary complex?

    Check (a) compares against the K-polynomial of T: the identity the
    subset-term match actually yields.  Check (b) compares against the
    h-polynomial instead; it coincides with (a) only when T's vertex count
    equals dim T + 1, and is recorded informationally.
    """
    require_matching_sigmas(S, assign)
    lhs = chromatic_polynomial(S)
    T = auxiliary_complex(assign)
    k_t = numerator_by_inclusion_exclusion(T.minimal_nonfaces())
    h_t = h_vector(T)
    reversed_lhs = reciprocal(lhs, S.n)
    check_a = reversed_lhs == k_t
    check_b = reversed_lhs == h_t.polynomial()
    return CheckReport(
        "main_theorem", "PASS" if check_a else "FAIL",
        None if check_a else {
            "chromatic_reversed": list(reversed_lhs.coeffs),
            "numerator": list(k_t.coeffs)},
        {
            "check_a_numerator_form": check_a,
            "check_b_h_form": check_b,
            "chromatic": list(lhs.coeffs),
            "numerator_T": list(k_t.coeffs),
            "h_T": list(h_t.entries),
            "n_S": S.n,
            "n_T": T.n,
            "d_T": h_t.d,
            "h_equals_numerator_regime": T.n == h_t.d,
        })


def verify_constant_component(S: SimplicialComplex, a: int) -> CheckReport:
    """c(I) = a for every nonempty I, then the shifted-numerator identity.

    The identity chi_c(S) - t^n = t^(n+a) * (K(1/t) - 1) is checked exactly
    through a degree-(n+a) coefficient reversal, so the Laurent tail must
    cancel to machine-checkable zero.
    """
    gens = S.minimal_nonfaces()
    r = len(gens)
    if r > SUBSET_SCAN_LIMIT:
        raise GuardError("nonface_count",
                         f"{r} nonfaces exceed the {SUBSET_SCAN_LIMIT} scan limit")
    sets = gens.as_sets()

    def visit(idx, sig, alf, comps):
        if len(comps) != a:
            return {"I": _names(idx, sets), "components": len(comps), "expected": a}

    found = _walk(S.minimal_nonface_masks, [0] * r, visit)
    if found:
        return report("constant_component", False, witness=found,
                      a=a, identity_checked=False)
    lhs = chromatic_polynomial(S) - IntPolynomial.monomial(S.n)
    k = numerator_by_inclusion_exclusion(gens)
    rhs = reciprocal(k, S.n + a) - IntPolynomial.monomial(S.n + a)
    ok = lhs == rhs
    return report(
        "constant_component", ok,
        witness=None if ok else {"lhs": list(lhs.coeffs), "rhs": list(rhs.coeffs)},
        a=a, identity_checked=True,
        chromatic_tail=list(lhs.coeffs), numerator=list(k.coeffs))


def hilbert_polynomial_window(S: SimplicialComplex, a: int):
    """Window of K(t) from degree a upward, shifted to degree 0, under the
    Hilbert-polynomial criterion.

    Returns (P, report).  P = sum_r K[a+r] x^r.  An all-zero window is
    NOT_APPLICABLE rather than a verdict.
    """
    pre = verify_constant_component(S, a)
    if not pre.details.get("identity_checked", False):
        raise ValueError(f"constant-component check fails for a = {a}: {pre.witness}")
    window = IntPolynomial(pre.details["numerator"][a:])
    if window.is_zero():
        rep = CheckReport("hilbert_window", NOT_APPLICABLE, None,
                          {"a": a, "window": [], "reason": "empty window"})
        return window, rep
    criterion = brenti_criterion(window)
    hypotheses = (all(c >= 1 for c in window.coeffs)
                  and window[1] >= 3 and window[2] >= 3)
    rep = CheckReport(
        "hilbert_window", criterion.verdict, criterion.witness,
        {"a": a, "window": list(window.coeffs),
         "hypotheses_hold": hypotheses,
         "numerator": pre.details["numerator"]})
    return window, rep
