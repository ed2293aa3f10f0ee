"""Companion-set assignments, the auxiliary complex, lifts, and identity checks.

Every minimal nonface sigma_i of a complex S gets a companion set alpha_i
with one fewer element.  When the sizing identity |union sigma_I| - c(I) =
|union alpha_I| holds for every subset I, the chromatic polynomial of S is
the reversed Hilbert numerator of the auxiliary complex T whose minimal
nonfaces are the alpha_i.  The checks below measure that identity, the
intersection condition that is supposed to imply it, and the two lift
constructions that manufacture complexes satisfying it.  The apex lift of T
is the full simplex on V(T) plus the cone over T from a fresh vertex q,
built from T's facets with no dualization; the disjoint lift gives S by its
sigmas alone.  Both lifts hand T, on the union of the alphas, to the
assignment they return; only an assignment that comes in has its alphas
checked by ``auxiliary_complex``.  The
target invariant is decided over live states, as chi_c is summed: the
subsets I that share their live components and live alpha union share
every later step.  A depth-first walker, which carries the unions and
components of sigma_I as bitmasks, names its smallest, lexicographically
first failing I, and runs the intersection scan and the backtracking alpha
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .complexes import (NonfaceFamily, SimplicialComplex, _check_vertex_count,
                        _later_unions, _masks, _reindex, fresh_label)
from .chromatic import chromatic_polynomial
from .hilbert import h_vector, numerator_by_inclusion_exclusion
from .polynomials import IntPolynomial, brenti_criterion, reciprocal
from .report import CheckReport, NOT_APPLICABLE, STATE_LIMIT, check_limit, report

LITERAL = "literal"
STRICT = "strict"

SEARCH_NODE_LIMIT = 10 ** 7  # walker units, about 10 s at ~1 us per unit


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
    """Each family of label sets as masks over the sorted union of their
    labels, so the layout does not depend on set iteration order."""
    labels = sorted(set().union(*(s for sets in families for s in sets)))
    return [_masks(labels, sets, "label set") for sets in families]


def _walk(sigmas, alphas, visit, what, start=(0, 0, 0, ()), spent=0,
          pair_tests=False):
    """(witness, units spent): the witness of the smallest,
    lexicographically first failing I = start + J, or None.

    J runs over the nonempty subsets of range(len(sigmas)) in depth-first
    preorder, which lists each size in lexicographic order.  start, and the
    state passed to visit, is (index bitmask, sigma union, alpha union,
    components of sigma_I); visit returns a witness or a falsy value.
    After a witness only smaller sets are visited.  Each visit spends one
    unit, or with pair_tests one per pair outside I; spent carries the
    units of the check's earlier walks, and past SEARCH_NODE_LIMIT units
    GuardError search_nodes counts them as ``what``.
    """
    r = len(sigmas)
    cap = start[0].bit_count() + r + 1
    found = None

    def rec(lo, idx, sig, alf, comps):
        nonlocal cap, found, spent
        size = idx.bit_count() + 1
        units = r - size if pair_tests else 1
        for j in range(lo, r):
            if size >= cap:
                return
            spent += units
            if spent > SEARCH_NODE_LIMIT:
                check_limit("search_nodes", spent, SEARCH_NODE_LIMIT, what)
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
    return found, spent


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

    found, _ = _walk(sig_masks, alf_masks, visit,
                     "pair tests by the intersection scan", pair_tests=True)
    return report("intersection_property", not found, witness=found, mode=mode)


def _invariant_by_state(sigmas, alphas) -> bool:
    """Whether |union sigma_I| - c(I) = |union alpha_I| for every nonempty
    I, decided over live states.

    The pairs are taken in order, and each subset I either holds the next
    pair j or leaves it out.  Its state is the components of sigma_I cut
    down to the vertices a later sigma holds, and alpha_I cut down to those
    a later alpha holds.  Adding j to I changes the two sides by
    |sigma_j minus the components it meets| - 1 + (components it joins) and
    |alpha_j minus alpha_I|, which the state decides, so every I is checked
    when its largest pair is added, and every state kept holds for its
    subsets.  False means a failing I, or more than min(r * 2^ceil(r/2),
    STATE_LIMIT) states to sum (a failure seen only at a late pair can keep
    every subset apart); either way the walker decides.
    """
    r = len(sigmas)
    limit = min(r << (r + 1) // 2, STATE_LIMIT)
    states = {((), 0)}  # (live components of sigma_I, live alpha_I)
    summed = 0
    for g, a, live, live_a in zip(sigmas, alphas, _later_unions(sigmas),
                                  _later_unions(alphas)):
        if summed + len(states) > limit:
            return False
        summed += len(states)
        retiring, retiring_a = g & ~live, a & ~live_a
        nxt = set(states)  # the subsets that leave pair j out
        for state in states:
            comps, alf = state
            met = 0
            rest = []
            for cm in comps:
                if cm & g:
                    met |= cm
                else:
                    rest.append(cm)
            if ((g & ~met).bit_count() + len(comps) - len(rest) - 1
                    != (a & ~alf).bit_count()):
                return False
            if met & retiring or alf & retiring_a:
                nxt.discard(state)
                nxt.add((tuple(sorted(cm & live for cm in comps if cm & live)),
                         alf & live_a))
            merged = (g | met) & live
            if merged:
                rest.append(merged)
                rest.sort()
            nxt.add((tuple(rest), (alf | a) & live_a))
        states = nxt
    return True


def check_target_invariant(assign: AlphaAssignment) -> CheckReport:
    """|union sigma_I| - c(I) = |union alpha_I| for every nonempty I.

    Decided over live states; only an assignment they do not prove is
    walked, to name its smallest, lexicographically first failing I.
    """
    masks = _bitmasks(assign.sigmas, assign.alphas)
    if _invariant_by_state(*masks):
        return report("target_invariant", True)

    def visit(idx, sig, alf, comps):
        if sig.bit_count() - len(comps) != alf.bit_count():
            return {"I": _names(idx, assign.sigmas),
                    "sigma_union_size": sig.bit_count(), "components": len(comps),
                    "alpha_union_size": alf.bit_count()}

    found, _ = _walk(*masks, visit, "subsets walked by the target invariant")
    return report("target_invariant", not found, witness=found)


def is_apex_assignment(assign: AlphaAssignment) -> bool:
    """Every sigma_i = alpha_i plus one shared vertex absent from all alphas.

    This pattern satisfies the target invariant at any size (every pair of
    sigmas meets at the apex, so c(I) = 1 and unions grow by exactly one).
    It is a speed shortcut: on the 792-pair apex lift of U(12,6) it takes
    under a millisecond, where the state pass gives up after 0.3 s and the
    walk is refused on search_nodes after about 11 s.
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
    order.  Its walks share one count of subsets against SEARCH_NODE_LIMIT.
    """
    gens = family.generators
    r = len(gens)
    candidates = [sorted(tuple(sorted(set(g) - {x})) for x in g) for g in gens]
    sigmas, *candidate_masks = _bitmasks(gens, *candidates)
    alphas, chosen, spent = [0] * r, [()] * r, 0

    def fails(idx, sig, alf, comps):
        return sig.bit_count() - len(comps) != alf.bit_count()

    def place(i):
        nonlocal spent
        if i == r:
            return True
        for m, a in zip(candidate_masks[i], candidates[i]):
            alphas[i], chosen[i] = m, a
            # I = {i} holds by construction: |alpha_i| = |sigma_i| - 1
            start = (1 << i, sigmas[i], m, [sigmas[i]])
            failed, spent = _walk(sigmas[:i], alphas[:i], fails,
                                  "subsets walked by the alpha search", start, spent)
            if not failed and place(i + 1):
                return True
        return False

    return AlphaAssignment(tuple(zip(gens, chosen))) if place(0) else None


def auxiliary_complex(assign: AlphaAssignment) -> SimplicialComplex:
    """Complex whose minimal nonfaces are the alpha sets, on their union.

    Built relaxed: a single-element alpha makes its vertex a formal nonface
    vertex, which still contributes to the numerator's t-power bookkeeping.
    A lift's assignment carries the complex, built from the T it lifted;
    any other assignment came in, so its alphas are checked as a
    NonfaceFamily, and the complex dualizes them if its facets are read.
    """
    if assign._auxiliary is not None:
        return assign._auxiliary
    alphas = assign.alphas
    family = NonfaceFamily(tuple(tuple(sorted(a)) for a in alphas))
    ground = sorted(set().union(*alphas)) if alphas else []
    return SimplicialComplex.from_minimal_nonfaces(ground, family, relaxed=True)


def _lift_assignment(sigmas, alphas, T: SimplicialComplex) -> AlphaAssignment:
    """The lift's assignment, carrying its auxiliary complex: T on the union
    of the alphas, with T's minimal nonfaces.

    A vertex in no minimal nonface of T is a cone point, in every facet, so
    dropping those vertices from each facet leaves an antichain.
    """
    union = 0
    for m in T.minimal_nonface_masks:
        union |= m
    ground = T.labels_of(union)
    restrict = _reindex(T.vertices, ground)
    aux = SimplicialComplex(ground, map(restrict, T.facet_masks),
                            map(restrict, T.minimal_nonface_masks))
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

    Each sigma is an alpha plus its own fresh vertex, so the sigmas are
    pairwise disjoint too, and they are the minimal nonfaces of S.  S is
    built from them alone; its facets, which drop exactly one vertex of
    each sigma, come from the one dualization on first use, which is where
    the vertex guard sits.
    """
    nonfaces = T.minimal_nonface_masks
    for i, a in enumerate(nonfaces):
        for b in nonfaces[i + 1:]:
            if a & b:
                raise ValueError(
                    f"nonfaces {list(T.labels_of(a))} and {list(T.labels_of(b))} "
                    "are not disjoint")
    used = set(T.vertices)
    fresh = []
    for k in range(len(nonfaces)):
        q = fresh_label(used, f"q{k + 1}")
        used.add(q)
        fresh.append(q)
    labels = sorted(used)
    move = _reindex(T.vertices, labels)
    sigmas = [move(m) | 1 << labels.index(q) for m, q in zip(nonfaces, fresh)]
    S = SimplicialComplex(labels, nonface_masks=sigmas)
    alphas = [frozenset(T.labels_of(m)) for m in nonfaces]
    return S, _lift_assignment([a | {q} for a, q in zip(alphas, fresh)], alphas, T)


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
    return report(
        "main_theorem", check_a,
        witness={"chromatic_reversed": list(reversed_lhs.coeffs),
                 "numerator": list(k_t.coeffs)},
        check_a_numerator_form=check_a,
        check_b_h_form=reversed_lhs == h_t.polynomial(),
        chromatic=list(lhs.coeffs),
        numerator_T=list(k_t.coeffs),
        h_T=list(h_t.entries),
        n_S=S.n,
        n_T=T.n,
        d_T=h_t.d,
        h_equals_numerator_regime=T.n == h_t.d,
    )


def verify_constant_component(S: SimplicialComplex, a: int) -> CheckReport:
    """c(I) = a >= 0 for every nonempty I, then the shifted-numerator identity.

    c({i}) = 1, so for a != 1 the first nonface fails alone, and for a = 1
    the smallest, lexicographically first failing I is a disjoint pair.
    The identity chi_c(S) - t^n = t^(n+a) * (K(1/t) - 1) is checked exactly
    through a degree-(n+a) coefficient reversal, so the Laurent tail must
    cancel to machine-checkable zero.
    """
    if a < 0:
        raise ValueError(f"a = {a} below 0: a component count is nonnegative")
    masks = S.minimal_nonface_masks
    if a != 1:
        failing = [0] if masks else []
    else:
        failing = next((p for p in combinations(range(len(masks)), 2)
                        if not masks[p[0]] & masks[p[1]]), [])
    if failing:  # one nonface is one component, a disjoint pair two
        return report("constant_component", False, witness={
            "I": [list(S.labels_of(masks[i])) for i in failing],
            "components": len(failing), "expected": a}, a=a, identity_checked=False)
    lhs = chromatic_polynomial(S) - IntPolynomial.monomial(S.n)
    k = numerator_by_inclusion_exclusion(S.minimal_nonfaces())
    rhs = reciprocal(k, S.n + a) - IntPolynomial.monomial(S.n + a)
    ok = lhs == rhs
    return report(
        "constant_component", ok,
        witness=None if ok else {"lhs": list(lhs.coeffs), "rhs": list(rhs.coeffs)},
        a=a, identity_checked=True,
        chromatic_tail=list(lhs.coeffs), numerator=list(k.coeffs))


def hilbert_polynomial_window(S: SimplicialComplex, a: int):
    """Window of K(t) from degree a >= 0 upward, shifted to degree 0, under
    the Hilbert-polynomial criterion.

    Returns (P, report).  P = sum_r K[a+r] x^r.  A failed shifted-numerator
    identity FAILs the window with its witness; otherwise an all-zero
    window is NOT_APPLICABLE rather than a verdict.
    """
    pre = verify_constant_component(S, a)
    if not pre.details["identity_checked"]:
        raise ValueError(f"constant-component check fails for a = {a}: {pre.witness}")
    window = IntPolynomial(pre.details["numerator"][a:])
    if pre.passed and window.is_zero():
        rep = CheckReport("hilbert_window", NOT_APPLICABLE, None,
                          {"a": a, "window": [], "reason": "empty window"})
        return window, rep
    criterion = brenti_criterion(window) if pre.passed else pre
    hypotheses = (all(c >= 1 for c in window.coeffs)
                  and window[1] >= 3 and window[2] >= 3)
    rep = CheckReport(
        "hilbert_window", criterion.verdict, criterion.witness,
        {"a": a, "window": list(window.coeffs),
         "hypotheses_hold": hypotheses,
         "numerator": pre.details["numerator"]})
    return window, rep
