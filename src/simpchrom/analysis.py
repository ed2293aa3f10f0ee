"""Application checks: matroid instances, log concavity, palindromic symmetry.

These wrap the core identities into labeled reports on concrete complexes:
the uniform-matroid independence complex, the octahedron boundary, and
anything the caller supplies.
"""

from __future__ import annotations

from itertools import combinations

from .auxiliary import (AlphaAssignment, auxiliary_complex, check_target_invariant,
                        is_apex_assignment, require_matching_sigmas,
                        verify_main_theorem)
from .chromatic import chromatic_polynomial
from .complexes import SimplicialComplex
from .hilbert import h_vector, numerator_from_h
from .polynomials import (IntPolynomial, is_log_concave, is_signed_palindrome,
                          largest_log_concave_suffix, reciprocal, substitute_shift)
from .report import (CheckReport, GuardError, NOT_APPLICABLE, PASS, check_limit,
                     report)

UNIFORM_VERTEX_LIMIT = 20
_ANTIPODAL_PAIRS = (("a", "c"), ("b", "d"), ("e", "f"))


def uniform_matroid_complex(n: int, r: int) -> SimplicialComplex:
    """Independence complex of the rank-r uniform matroid on n elements.

    Faces are all subsets of size at most r; minimal nonfaces are the
    (r+1)-subsets.  Labels are zero-padded so lexicographic order is numeric.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got n = {n}, r = {r}")
    check_limit("uniform_vertices", n, UNIFORM_VERTEX_LIMIT, "vertices of U(n, r)")
    labels = [f"{i:02d}" for i in range(1, n + 1)]
    return SimplicialComplex.from_facets(
        labels, [combo for combo in combinations(labels, r)])


def octahedron_boundary() -> SimplicialComplex:
    """Boundary of the octahedron: antipodal pairs ef, ac, bd are the nonfaces."""
    return SimplicialComplex.from_minimal_nonfaces("abcdef", _ANTIPODAL_PAIRS)


def _chromatic_if_possible(S, assign):
    """chi_c and its route: through the reversed-numerator identity when an
    assignment is given and passes the target invariant, else directly.
    When the assignment cannot vouch for the identity, the route is
    "direct (<why>)".  When the direct sum is refused, chi_c is None and the
    route is the guard's own message.

    An assignment whose sigmas are not the minimal nonfaces of S is a
    ValueError: its identity would describe another complex."""
    route = "direct"
    if assign is not None:
        require_matching_sigmas(S, assign)
        try:  # the apex shape passes the invariant at any size, unscanned
            valid = is_apex_assignment(assign) or check_target_invariant(assign).passed
            why = "assignment fails the target invariant"
        except GuardError as exc:
            valid, why = False, str(exc)
        if valid:
            T = auxiliary_complex(assign)
            k_t = numerator_from_h(T)  # the h-route walks no generator subsets
            return reciprocal(k_t, S.n), "identity"
        route = f"direct ({why})"
    try:
        return chromatic_polynomial(S), route
    except GuardError as exc:
        return None, str(exc)


def log_concavity_report(S: SimplicialComplex,
                         assign: AlphaAssignment | None = None,
                         absolute: bool = False) -> CheckReport:
    """Log-concavity scans of the h-vector, f-vector, chi_c, and chi_c(t-1).

    Each sub-result is labeled; the chromatic sub-checks are NOT_APPLICABLE
    when chi_c is not computable.  Every scan also records the largest
    suffix window on which log concavity holds.
    """
    h = h_vector(S).entries
    f = S.f_vector()
    subs = {
        "h_vector": is_log_concave(h, absolute=absolute),
        "f_vector": is_log_concave(f, absolute=absolute),
    }
    suffixes = {
        "h_vector": largest_log_concave_suffix(h, absolute),
        "f_vector": largest_log_concave_suffix(f, absolute),
    }
    chi_c, route = _chromatic_if_possible(S, assign)
    if chi_c is None:
        na = CheckReport("log_concave", NOT_APPLICABLE, None, {"reason": route})
        subs["chromatic"] = na
        subs["chromatic_translate"] = na
    else:
        translated = substitute_shift(chi_c)
        subs["chromatic"] = is_log_concave(chi_c.coeffs, absolute=absolute)
        subs["chromatic_translate"] = is_log_concave(translated.coeffs,
                                                     absolute=absolute)
        suffixes["chromatic"] = largest_log_concave_suffix(chi_c.coeffs, absolute)
        suffixes["chromatic_translate"] = largest_log_concave_suffix(
            translated.coeffs, absolute)
    ran = [rep for rep in subs.values() if rep.verdict != NOT_APPLICABLE]
    ok = all(rep.passed for rep in ran)
    failing = {name: rep.witness for name, rep in subs.items()
               if rep.verdict not in (PASS, NOT_APPLICABLE)}
    return report(
        "log_concavity", ok,
        witness=failing or None,
        mode="absolute" if absolute else "literal",
        chromatic_route=route,
        sub_results={name: rep.to_dict() for name, rep in subs.items()},
        largest_passing_suffix=suffixes,
    )


def dehn_sommerville_check(S: SimplicialComplex) -> CheckReport:
    """Palindromicity h_i = h_(d-i) of the h-vector."""
    h = h_vector(S).entries
    d = len(h) - 1
    for i in range(len(h) // 2 + 1):
        if h[i] != h[d - i]:
            return report("dehn_sommerville", False,
                          witness={"i": i, "pair": [h[i], h[d - i]]},
                          h_vector=list(h))
    return report("dehn_sommerville", True, h_vector=list(h))


def reciprocity_report(S: SimplicialComplex, assign: AlphaAssignment) -> CheckReport:
    """Signed-palindrome structure of chi_c for polytopal auxiliary complexes.

    chi_c is read from the main-theorem report, which must pass; the expected
    sign is (-1)^(n_T - d_T), coming from K_T = h_T * (1-t)^(n_T - d_T) and
    h-palindromicity.  When T is the octahedron boundary, the literal claim
    that the degree-5 and degree-3 coefficients agree is also recorded.
    """
    main = verify_main_theorem(S, assign)
    if not main.passed:
        raise ValueError("the reversed-numerator identity fails for this "
                         "assignment; reciprocity is undefined")
    n_t, d_t = main.details["n_T"], main.details["d_T"]
    chi_c = IntPolynomial(main.details["chromatic"])
    sign = (-1) ** (n_t - d_t)
    palindrome = is_signed_palindrome(chi_c, sign)
    details = {
        "sign": sign,
        "chromatic": list(chi_c.coeffs),
        "n_T": n_t,
        "d_T": d_t,
        "palindrome": palindrome.to_dict(),
    }
    # T is built on the union of the alphas, its minimal nonfaces, so it is
    # the octahedron boundary exactly when the alphas are the antipodal pairs
    if set(assign.alphas) == {frozenset(p) for p in _ANTIPODAL_PAIRS}:
        details["literal_t5_t3_claim"] = {
            "t5": chi_c[5], "t3": chi_c[3], "equal": chi_c[5] == chi_c[3]}
    return CheckReport("reciprocity", palindrome.verdict, palindrome.witness,
                       details)
