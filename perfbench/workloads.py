"""The four benchmark workloads: seeded plain-data inputs, ops and ladders.

Each workload turns ``--seed`` into plain data (labels, nonface lists, facet
lists, primes and residues) and wraps it in ops.  An op is a callable taking
a ``Tracer``; it makes every library call through the tracer, checks the
result by an independent route (``reference.py`` or a second library route
that shares no code path with the first) and returns a digest of what it
computed.  A disagreement raises ``CheckFailed``.

Library names used here are only the stable public ones, so that planned
internal rewrites (one subset walker, a sparse Smith normal form, a vertex
route for chi_c, removal of the numerator wrapper) need no benchmark edit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, prod
from operator import attrgetter
from typing import Callable

from simpchrom import (CyclotomicSpec, Graph, SimplicialComplex,
                       boundary_matrix, build_residue_subcomplex,
                       check_constant_term_detection, check_target_invariant,
                       chromatic_polynomial, cyclotomic_polynomial,
                       finite_model_count, graph_chromatic, h_vector,
                       lift_with_apex, log_concavity_report,
                       numerator_by_inclusion_exclusion, numerator_from_h,
                       search_alpha, series_coefficients, smith_normal_form,
                       standard_monomial_count, verify_main_theorem)
from simpchrom.report import GuardError
from simpchrom.sampling import (random_complex, random_graph,
                                random_intersecting_complex)

import reference as ref

LETTERS = "abcdefghijklmnopqrstuvwxyz"
RANK_PRIME = 2_147_483_647  # no invariant factor the benchmark meets reaches it

# Every <module>.<function> span the ops open; the traced run reports a
# time and a call count for each, zero where a workload does not call it.
SPANS = (
    "complexes.from_facets", "complexes.from_minimal_nonfaces",
    "complexes.face_masks", "complexes.minimal_nonface_masks",
    "complexes.minimal_nonfaces",
    "chromatic.chromatic_polynomial", "chromatic.finite_model_count",
    "chromatic.graph_chromatic",
    "hilbert.numerator_by_inclusion_exclusion", "hilbert.numerator_from_h",
    "hilbert.h_vector", "hilbert.series_coefficients",
    "hilbert.standard_monomial_count",
    "auxiliary.lift_with_apex", "auxiliary.check_target_invariant",
    "auxiliary.search_alpha", "auxiliary.verify_main_theorem",
    "homology.boundary_matrix", "homology.smith_normal_form",
    "cyclotomic.build_residue_subcomplex", "cyclotomic.cyclotomic_polynomial",
    "cyclotomic.check_constant_term_detection",
    "analysis.log_concavity_report",
)
MODULES = ("complexes", "chromatic", "hilbert", "auxiliary", "homology",
           "cyclotomic", "analysis")
COUNTERS = (
    "chromatic.subsets", "hilbert.subsets", "auxiliary.subsets",
    "auxiliary.search_space", "complexes.faces", "complexes.nonfaces",
    "complexes.facets", "homology.snf_entries", "homology.snf_nonzeros",
    "homology.snf_max_dim",
)


class CheckFailed(Exception):
    """The library's result disagrees with the independent route."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def coeffs_of(result) -> tuple[int, ...]:
    """Coefficients of a polynomial result, unwrapping a numerator record."""
    return ref.trimmed(getattr(result, "poly", result).coeffs)


@dataclass
class Plan:
    """One workload at one seed: rounds of ops, warm-up ops and a ladder.

    ``round(k)`` gives the k-th round as (kind, op) pairs; rounds cycle
    through the plain-data pools in ``inputs``, generated up front.
    ``probe(size)`` builds the ladder step of that size; ``budget`` is the
    seconds a step may take.  ``tail`` is the latency percentile reported as
    the tail: the highest of 75, 90, 95, 99 with at least ten ops beyond it
    in a run at the seed commit.  It is fixed, because a percentile that
    followed each run's op count would jump between cost classes whenever
    the count crossed a threshold.  Ops add experiment verdicts to
    ``verdicts``.
    """

    round: Callable[[int], list]
    warmup: list
    ladder_start: int
    probe: Callable[[int], Callable]
    budget: float
    unit: str
    tail: int
    inputs: dict
    verdicts: Counter = field(default_factory=Counter)


# -- plain-data generators -------------------------------------------------
# Set-up may call simpchrom.sampling; the ops receive only what these
# helpers turn its complexes and graphs into.

def plain(S):
    """Labels and minimal nonfaces of a sampled complex."""
    return list(S.vertices), list(S.minimal_nonfaces().generators)


def plain_graph(G):
    return list(G.vertices), list(G.edges)


def antichain(rng, n: int, r: int, size_min=2, size_max=4):
    """Exactly r random nonfaces, pairwise incomparable, on n letters."""
    labels = list(LETTERS[:n])
    kept: list[frozenset] = []
    while len(kept) < r:
        g = frozenset(rng.sample(labels, rng.randint(size_min, size_max)))
        if not any(g <= h or h <= g for h in kept):
            kept.append(g)
    return labels, sorted(tuple(sorted(g)) for g in kept)


def pure_facets(rng, n: int, d: int, m: int):
    """m distinct random d-sets on n labels; labels left uncovered are dropped."""
    labels = [f"v{i:02d}" for i in range(n)]
    facets: set[tuple] = set()
    while len(facets) < m:
        facets.add(tuple(sorted(rng.sample(labels, d))))
    covered = sorted({x for f in facets for x in f})
    return covered, sorted(facets)


def uniform_facets(n: int, k: int):
    labels = [f"{i:02d}" for i in range(1, n + 1)]
    return labels, list(combinations(labels, k))


# -- complexes-layer steps, with lazy work billed to its own span ----------

def from_nonfaces(tr, labels, nonfaces):
    S = tr.call("complexes.from_minimal_nonfaces",
                SimplicialComplex.from_minimal_nonfaces, labels, nonfaces)
    tr.count("complexes.facets", len(S.facet_masks))
    tr.count("complexes.nonfaces", len(nonfaces))
    return S


def from_facets(tr, labels, facets):
    S = tr.call("complexes.from_facets", SimplicialComplex.from_facets,
                labels, facets)
    tr.count("complexes.facets", len(S.facet_masks))
    return S


def closure(tr, S):
    """Touch the cached face set inside a complexes span."""
    faces = tr.call("complexes.face_masks", attrgetter("face_masks"), S)
    tr.count("complexes.faces", len(faces))
    return faces


def recovery(tr, S):
    """Touch the cached minimal-nonface masks inside a complexes span."""
    masks = tr.call("complexes.minimal_nonface_masks",
                    attrgetter("minimal_nonface_masks"), S)
    tr.count("complexes.nonfaces", len(masks))
    return masks


def nonface_family(tr, S):
    return tr.call("complexes.minimal_nonfaces", S.minimal_nonfaces)


def chromatic(tr, S):
    tr.count("chromatic.subsets", 1 << len(S.minimal_nonface_masks))
    return coeffs_of(tr.call("chromatic.chromatic_polynomial",
                             chromatic_polynomial, S))


def numerator_ie(tr, family):
    tr.count("hilbert.subsets", 1 << len(family))
    return coeffs_of(tr.call("hilbert.numerator_by_inclusion_exclusion",
                             numerator_by_inclusion_exclusion, family))


def numerator_h(tr, S):
    return coeffs_of(tr.call("hilbert.numerator_from_h", numerator_from_h, S))


def face_sizes(faces) -> Counter:
    return Counter(m.bit_count() for m in faces)


# -- lattice: the 2^r subset walks -----------------------------------------

def op_apex_lift(labels, nonfaces):
    """Apex lift of T: reversed chi_c(S) = K_T by inclusion-exclusion = K_T by h."""
    def op(tr):
        T = from_nonfaces(tr, labels, nonfaces)
        closure(tr, T)
        S, assign = tr.call("auxiliary.lift_with_apex", lift_with_apex, T)
        rep = tr.call("auxiliary.check_target_invariant",
                      check_target_invariant, assign)
        require(rep.passed, "apex lift fails the target invariant")
        tr.count("auxiliary.subsets", (1 << len(assign)) - 1)
        chi = chromatic(tr, S)
        k_ie = numerator_ie(tr, nonface_family(tr, T))
        k_h = numerator_h(tr, T)
        require(ref.reversed_at(chi, S.n) == k_ie, "reversed chi_c != K_T (ie)")
        require(k_ie == k_h, "K_T by inclusion-exclusion != K_T from h")
        return chi
    return op


def op_direct(labels, nonfaces):
    """chi_c against the finite-model count, and K by both routes."""
    def op(tr):
        S = from_nonfaces(tr, labels, nonfaces)
        closure(tr, S)
        chi = chromatic(tr, S)
        for q in (0, 1, 2):
            models = tr.call("chromatic.finite_model_count",
                             finite_model_count, S, q)
            require(ref.evaluate(chi, q) == models, f"chi_c({q}) != model count")
        k_ie = numerator_ie(tr, nonface_family(tr, S))
        require(k_ie == numerator_h(tr, S), "K by inclusion-exclusion != K from h")
        return chi + k_ie
    return op


def op_search(labels, nonfaces, verdicts):
    """search_alpha against a pruned backtracking search: same first answer."""
    def op(tr):
        S = from_nonfaces(tr, labels, nonfaces)
        family = nonface_family(tr, S)
        tr.count("auxiliary.search_space", prod(len(g) for g in nonfaces))
        tr.count("auxiliary.searches")
        found = tr.call("auxiliary.search_alpha", search_alpha, family)
        got = None if found is None else [
            (tuple(sorted(s)), tuple(sorted(a))) for s, a in found.pairs]
        require(got == ref.first_alpha_assignment(family.generators),
                "search_alpha disagrees with the backtracking search")
        verdicts["search_alpha:" + ("FOUND" if got else "NOT_FOUND")] += 1
        tr.count("auxiliary.found", got is not None)
        return repr(got)
    return op


# Seeds of random_intersecting_complex(random.Random(f"search:{s}"), n_max=8,
# r_max=8): (r = 7, found), (r = 7, exhausted), (r = 8, found), (r = 8, exhausted)
HEAVY_SEARCH_SEEDS = (1833, 1336, 1459, 1282)


def lattice(seed) -> Plan:
    rng = random.Random(f"lattice:{seed}")
    verdicts: Counter = Counter()
    lifts = {r: [antichain(rng, 12, r) for _ in range(12)] for r in (13, 14, 15)}
    # r = 17 keeps the direct ops level with the r = 13 lift, so the median
    # latency falls inside one cost cluster rather than between two
    direct = [antichain(rng, 14, 17) for _ in range(24)]
    search = [plain(random_intersecting_complex(rng, n_max=8, r_max=6))
              for _ in range(36)]
    # r = 7-8 searches vary from milliseconds to seconds with the family, so
    # every round runs one found and one exhausted search of a fixed family
    # (about 0.05 s and 0.55 s), alternating between two pairs
    heavy = [plain(random_intersecting_complex(random.Random(f"search:{s}"),
                                               n_max=8, r_max=8))
             for s in HEAVY_SEARCH_SEEDS]

    def round_(k):
        out = []
        for i, r in enumerate((13, 14, 15)):
            out.append(("lift", op_apex_lift(*lifts[r][k % 12])))
            out.append(("direct", op_direct(*direct[(3 * k + i) % 24])))
            out.append(("search", op_search(*search[(3 * k + i) % 36], verdicts)))
        out.append(("search_found", op_search(*heavy[2 * (k % 2)], verdicts)))
        out.append(("search_exhausted", op_search(*heavy[2 * (k % 2) + 1], verdicts)))
        return out

    def probe(r):
        # the same complex at every seed: the frontier measures the code,
        # not how hard one seed's complexes happen to be
        return op_apex_lift(*antichain(random.Random(f"lattice-ladder:{r}"), 12, r))

    warm = random.Random(f"lattice-warmup:{seed}")
    return Plan(round_, [op_apex_lift(*antichain(warm, 8, 6)),
                         op_direct(*antichain(warm, 8, 6)),
                         op_search(*plain(random_intersecting_complex(warm)),
                                   Counter())],
                ladder_start=12, probe=probe, budget=2.4, unit="nonfaces", tail=90,
                inputs={"lift": lifts, "direct": direct, "search": search,
                        "heavy_search": heavy},
                verdicts=verdicts)


# -- closure: face closure, nonface recovery and dualization ---------------

def op_closure(labels, facets, uniform_k=None, lift=False, verdicts=None):
    """Facets -> faces -> minimal nonfaces -> facets must round-trip.

    ``uniform_k`` marks U(n, k), checked by closed forms; otherwise the
    complex is pure and each recovered nonface is checked against the facets.
    ``lift`` adds the apex lift and its log-concavity report.
    """
    def op(tr):
        S = from_facets(tr, labels, facets)
        faces = closure(tr, S)
        masks = recovery(tr, S)
        family = nonface_family(tr, S)
        back = from_nonfaces(tr, labels, family)
        require(back == S, "dualization does not invert recovery")
        n, d = len(labels), len(facets[0])
        if uniform_k is not None:
            k = uniform_k
            require(len(masks) == comb(n, k + 1)
                    and all(m.bit_count() == k + 1 for m in masks),
                    "U(n,k) nonfaces are not the (k+1)-sets")
            require(face_sizes(faces) == Counter({i: comb(n, i) for i in range(k + 1)}),
                    "U(n,k) face counts")
            expected_h = ref.uniform_h_vector(n, k)
        else:
            bit = {x: 1 << i for i, x in enumerate(labels)}

            def as_masks(sets):
                return [sum(bit[x] for x in labs) for labs in sets]

            require(ref.minimal_nonfaces_of_facets(as_masks(facets),
                                                   as_masks(family.generators)),
                    "a recovered nonface is not minimal")
            expected_h = None
        h = tr.call("hilbert.h_vector", h_vector, S).entries
        if expected_h is not None:
            require(h == expected_h, "U(n,k) h-vector")
        else:
            require(h[0] == 1 and h[1] == n - d and sum(h) == len(facets),
                    "pure h-vector sums")
        k_h = numerator_h(tr, S)
        require(k_h == ref.times_one_minus_t_power(h, n - d), "K = h (1-t)^(n-d)")
        if lift:
            L, assign = tr.call("auxiliary.lift_with_apex", lift_with_apex, S)
            lifted = closure(tr, L)
            require(len(lifted) == 2 ** n + sum(comb(n, i) for i in range(uniform_k + 1)),
                    "face count of the apex lift of U(n,k)")
            rep = tr.call("analysis.log_concavity_report", log_concavity_report,
                          L, assign)
            require(rep.details["chromatic_route"] == "identity",
                    "log concavity did not take the identity route")
            verdicts["log_concavity:" + rep.verdict] += 1
        return h + k_h
    return op


def closure_workload(seed) -> Plan:
    rng = random.Random(f"closure:{seed}")
    verdicts: Counter = Counter()
    pure = [pure_facets(rng, n, 5, 30) for n in (16, 18, 20) * 24]

    def uniform(n, lift):
        labels, facets = uniform_facets(n, n // 2)
        return op_closure(labels, facets, n // 2, lift, verdicts)

    # The pure complexes (0.03-0.13 s) cost less than U(12,6) and U(13,6)
    # (0.3-0.45 s), the two fixed inputs that fill the top 2/9 of the ops,
    # so p90 falls inside that pair and p50 inside the pure complexes.
    def round_(k):
        out = [("uniform", uniform(n, n <= 12)) for n in (10, 11, 12, 13)]
        out += [("pure", op_closure(*pure[(5 * k + i) % len(pure)])) for i in range(5)]
        return out

    def probe(n):
        labels, facets = uniform_facets(n, n // 2)
        return op_closure(labels, facets, n // 2)

    # U(7,3) has 35 nonfaces, so its lift skips the 2^r scan like U(10..12)'s
    warm_labels, warm_facets = uniform_facets(7, 3)
    return Plan(round_, [op_closure(warm_labels, warm_facets, 3, True, Counter()),
                         op_closure(*pure_facets(random.Random(seed), 10, 4, 8))],
                ladder_start=10, probe=probe, budget=2.7,
                unit="vertices n of U(n, n//2)", tail=90,
                inputs={"pure": pure}, verdicts=verdicts)


# -- homology: boundary matrices and the Smith normal form ------------------

def snf_homology(tr, S, torsion_primes=()):
    """Per-degree (betti, torsion) from boundary matrices and their SNF.

    Each SNF is checked against ranks by elimination over GF(p): over a
    large prime the rank must be the number of invariants, and over each
    of ``torsion_primes`` it must be the number of invariants p does not
    divide.
    """
    faces = face_sizes(closure(tr, S))
    dim = max(faces) - 1
    invariants = {}
    for k in range(dim + 1):
        B = tr.call("homology.boundary_matrix", boundary_matrix, S, k)
        rows, cols = B.nrows, B.ncols
        tr.count("homology.snf_entries", rows * cols)
        if tr.enabled:
            tr.count("homology.snf_nonzeros",
                     sum(1 for row in B.entries for x in row if x))
        tr.peak("homology.snf_max_dim", min(rows, cols))
        inv = tr.call("homology.smith_normal_form", smith_normal_form, B)
        require(all(b % a == 0 for a, b in zip(inv, inv[1:])),
                "invariant factors do not form a divisibility chain")
        for p in (RANK_PRIME, *torsion_primes):
            require(ref.rank_mod(B.entries, p) == sum(1 for x in inv if x % p),
                    f"SNF of d_{k} disagrees with its rank over GF({p})")
        invariants[k] = inv
    out = {}
    for k in range(dim + 1):
        above = invariants.get(k + 1, ())
        betti = faces[k + 1] - len(invariants[k]) - len(above)
        out[k] = (betti, tuple(x for x in above if x > 1))
    return out, faces


def op_residue(primes, labeling, j, series, verdicts):
    """Residue subcomplex: SNF homology against ranks over GF(p).

    The torsion primes are those dividing a coefficient of Phi_n, the only
    torsion the coefficient theorem allows.
    """
    n = prod(primes)
    torsion_primes = sorted({p for c in series[n] for p in ref.prime_factors(abs(c))})

    def op(tr):
        spec = CyclotomicSpec(primes, labeling)
        T = tr.call("cyclotomic.build_residue_subcomplex",
                    build_residue_subcomplex, spec, {j})
        homology, faces = snf_homology(tr, T, torsion_primes)
        d = len(primes)
        lower = [ref.elementary_symmetric(primes, k) for k in range(d)]
        require([faces[k] for k in range(d)] == lower, "residue face counts")
        poly = coeffs_of(tr.call("cyclotomic.cyclotomic_polynomial",
                                 cyclotomic_polynomial, n))
        require(poly == series[n], "cyclotomic coefficients")
        c_j = poly[j] if j < len(poly) else 0
        match = homology == ref.expected_residue_homology(d, c_j)
        verdicts[f"cyclotomic_homology[{labeling}]:" + ("PASS" if match else "FAIL")] += 1
        return tuple(sorted(homology.items()))
    return op


def op_uniform_homology(n):
    """U(n,4): reduced homology is Z^C(n-1,4) in degree 3 and nothing else."""
    k = 4

    def op(tr):
        labels, facets = uniform_facets(n, k)
        S = from_facets(tr, labels, facets)
        homology, faces = snf_homology(tr, S)
        require(faces == Counter({i: comb(n, i) for i in range(k + 1)}),
                "U(n,4) face counts")
        expected = {i: (comb(n - 1, k) if i == k - 1 else 0, ()) for i in range(k)}
        require(homology == expected, "U(n,4) homology")
        return tuple(sorted(homology.items()))
    return op


def op_detection(primes, labeling, j, series, verdicts):
    """Constant-term detector: its h-vector against closed-form face counts."""
    def op(tr):
        spec = CyclotomicSpec(primes, labeling)
        rep = tr.call("cyclotomic.check_constant_term_detection",
                      check_constant_term_detection, spec, j)
        d = len(primes)
        h = rep.details["h_vector"]
        f = [sum(comb(d - i, m - i) * h[i] for i in range(m + 1)) for m in range(d + 1)]
        require(f[:d] == [ref.elementary_symmetric(primes, k) for k in range(d)],
                "detector h-vector does not match the join's face counts")
        require(rep.details["coefficient"] == series[prod(primes)][j],
                "detector coefficient")
        verdicts[f"constant_term_detection[{labeling}]:" + rep.verdict] += 1
        return tuple(h)
    return op


def homology_workload(seed) -> Plan:
    rng = random.Random(f"homology:{seed}")
    verdicts: Counter = Counter()
    small, large = (3, 5, 7), (2, 3, 5, 7)
    series = {prod(p): ref.cyclotomic_coefficients(prod(p)) for p in (small, large)}

    def residues(primes):
        phi = len(series[prod(primes)]) - 1
        out = [(primes, lab, j) for lab in ("zero", "one") for j in range(phi + 1)]
        rng.shuffle(out)
        return out

    tiny, medium, detect = residues(small), residues(large), residues(small)

    def round_(k):
        out = [("residue_small", op_residue(*tiny[(8 * k + i) % len(tiny)],
                                            series, verdicts)) for i in range(8)]
        out += [("detection", op_detection(*detect[(2 * k + i) % len(detect)],
                                           series, verdicts)) for i in range(2)]
        out.append(("residue_large", op_residue(*medium[k % len(medium)],
                                                series, verdicts)))
        out.append(("uniform", op_uniform_homology(10 + k % 3)))
        return out

    return Plan(round_, [op_residue(small, "one", 0, series, Counter()),
                         op_detection(small, "one", 0, series, Counter()),
                         op_uniform_homology(6)],
                ladder_start=10, probe=op_uniform_homology, budget=1.1,
                unit="vertices", tail=95,
                inputs={"small": tiny, "large": medium, "detect": detect},
                verdicts=verdicts)


# -- sweep_mix: one pass of the sweep's five suites -------------------------

SWEEP_PASSES = 96


def sweep_inputs(pass_seed):
    """The instances of `simpchrom sweep --seed pass_seed`, as plain data."""
    rng = random.Random(pass_seed)
    return {
        "oracle": [plain(random_complex(rng, n_max=6, r_max=4)) for _ in range(50)],
        "graph": [plain_graph(random_graph(rng)) for _ in range(10)],
        "hilbert": [plain(random_complex(rng, n_max=8, r_max=5)) for _ in range(50)],
        "theorem": [plain(random_complex(rng, n_max=6, r_max=4)) for _ in range(30)],
        "roundtrip": [plain(random_complex(rng, n_max=8, r_max=5)) for _ in range(20)],
    }


def op_sweep_pass(inputs, verdicts):
    def op(tr):
        digest = []
        for labels, nonfaces in inputs["oracle"]:
            S = from_nonfaces(tr, labels, nonfaces)
            chi = chromatic(tr, S)
            for q in range(len(labels) + 2):
                models = tr.call("chromatic.finite_model_count",
                                 finite_model_count, S, q)
                require(ref.evaluate(chi, q) == models, "oracle suite")
            digest.append(chi)
        for labels, edges in inputs["graph"]:
            chi = chromatic(tr, from_nonfaces(tr, labels, edges))
            classical = coeffs_of(tr.call("chromatic.graph_chromatic", graph_chromatic,
                                          Graph(tuple(labels), tuple(edges))))
            require(chi == classical, "graph suite")
            digest.append(chi)
        for labels, nonfaces in inputs["hilbert"]:
            S = from_nonfaces(tr, labels, nonfaces)
            closure(tr, S)
            k_ie = numerator_ie(tr, nonface_family(tr, S))
            require(k_ie == numerator_h(tr, S), "hilbert suite: numerators")
            tr.count("hilbert.subsets", 1 << len(nonfaces))
            series = tr.call("hilbert.series_coefficients", series_coefficients, S, 6)
            for m in range(7):
                require(series[m] == tr.call("hilbert.standard_monomial_count",
                                             standard_monomial_count, S, m),
                        "hilbert suite: series")
            digest.append(k_ie)
        for labels, nonfaces in inputs["theorem"]:
            T = from_nonfaces(tr, labels, nonfaces)
            S, assign = tr.call("auxiliary.lift_with_apex", lift_with_apex, T)
            rep = tr.call("auxiliary.verify_main_theorem", verify_main_theorem,
                          S, assign)
            d = rep.details
            require(rep.passed and d["check_b_h_form"] == (d["n_T"] == d["d_T"]),
                    "theorem suite")
            verdicts["main_theorem:" + rep.verdict] += 1
            digest.append(tuple(d["chromatic"]))
        for labels, nonfaces in inputs["roundtrip"]:
            S = from_nonfaces(tr, labels, nonfaces)
            closure(tr, S)
            F = from_facets(tr, labels, [S.labels_of(m) for m in S.facet_masks])
            recovery(tr, F)
            require(list(nonface_family(tr, F).generators) == nonfaces,
                    "roundtrip suite")
            digest.append(len(S.facet_masks))
        return tuple(digest)
    return op


def op_cycle_models(n):
    """Model count of the n-cycle at q = 3 colours against (q-1)^n + (-1)^n (q-1)."""
    q = 3

    def op(tr):
        labels = [f"c{i:02d}" for i in range(n)]
        S = from_nonfaces(tr, labels, [(labels[i], labels[(i + 1) % n])
                                       for i in range(n)])
        models = tr.call("chromatic.finite_model_count", finite_model_count, S, q)
        require(models == (q - 1) ** n + (-1) ** n * (q - 1), "cycle model count")
        require(ref.evaluate(chromatic(tr, S), q) == models, "cycle chi_c(q)")
        return models
    return op


def sweep_workload(seed) -> Plan:
    verdicts: Counter = Counter()
    pool = [sweep_inputs(1000 * seed + i) for i in range(SWEEP_PASSES)]

    def round_(k):
        return [("pass", op_sweep_pass(pool[k % SWEEP_PASSES], verdicts))]

    warm = {suite: cases[:5] for suite, cases in sweep_inputs(-1 - seed).items()}
    return Plan(round_, [op_sweep_pass(warm, Counter())],
                ladder_start=10, probe=op_cycle_models, budget=1.5,
                unit="vertices", tail=75, inputs={"passes": pool}, verdicts=verdicts)


WORKLOADS = {
    "lattice": lattice,
    "closure": closure_workload,
    "homology": homology_workload,
    "sweep_mix": sweep_workload,
}