"""Cyclotomic polynomials and the residue-labeled join subcomplexes.

The polynomial oracle multiplies and exactly divides (x^(n/d) - 1) factors
over the squarefree divisors d of n, the only ones with a nonzero Moebius
value; a spec computes its Phi_n once.  The complex builder joins one discrete
vertex group per prime; facets of the join are transversals and correspond
to residues mod the product by CRT.  A subcomplex keeps the codimension-one
skeleton plus a chosen set of facets.  The chosen index set names residues
one-based by default: the one labeling under which the homology matches the
coefficient theorem on every residue checked.  The zero-based labeling stays
selectable as the recorded counter-example.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import prod

from .complexes import SimplicialComplex
from .hilbert import h_vector, numerator_from_h
from .homology import boundary_matrix, reduced_homology, smith_normal_form
from .polynomials import IntPolynomial, reciprocal
from .report import CheckReport, check_limit, report

CYCLOTOMIC_LIMIT = 10 ** 6

ZERO_BASED = "zero"
ONE_BASED = "one"


def _prime_factors(n: int) -> dict[int, int]:
    """{p: e} with n the product of the p^e, by trial division; {} below 2."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def _is_prime(p: int) -> bool:
    return _prime_factors(p) == {p: 1}


def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """Phi_n as the product of (x^(n/d) - 1)^mu(d); degree phi(n).

    Only squarefree d have mu(d) != 0: d is the product of a set of the
    primes of n, and mu(d) is -1 to the size of that set.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_limit("cyclotomic_index", n, CYCLOTOMIC_LIMIT, "roots of x^n - 1")
    primes = list(_prime_factors(n))
    numerator = denominator = IntPolynomial.one()
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            factor = IntPolynomial.monomial(n // prod(subset)) - 1
            if size % 2:
                denominator = denominator * factor
            else:
                numerator = numerator * factor
    return numerator.exact_divide(denominator)


def euler_phi(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out -= out // p
    return out


@dataclass(frozen=True)
class CyclotomicSpec:
    """Distinct primes p_1 < ... < p_d plus the residue labeling convention."""

    primes: tuple[int, ...]
    labeling: str = ONE_BASED

    def __post_init__(self):
        ps = tuple(sorted(self.primes))
        if len(set(ps)) != len(ps):
            raise ValueError("primes must be distinct")
        for p in ps:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        if not ps:
            raise ValueError("at least one prime required")
        if self.labeling not in (ZERO_BASED, ONE_BASED):
            raise ValueError(f"unknown labeling {self.labeling!r}")
        object.__setattr__(self, "primes", ps)

    @property
    def d(self) -> int:
        return len(self.primes)

    @property
    def n(self) -> int:
        return prod(self.primes)

    @cached_property
    def cyclotomic(self) -> IntPolynomial:
        """Phi_n, computed once per spec."""
        return cyclotomic_polynomial(self.n)

    @cached_property
    def phi(self) -> int:
        return euler_phi(self.n)

    @cached_property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """Vertex labels per prime group: consecutive letters, or v## labels."""
        total = sum(self.primes)
        if total <= 26:
            pool = [chr(ord("a") + i) for i in range(total)]
        else:
            pool = [f"v{i:02d}" for i in range(total)]
        out = []
        at = 0
        for p in self.primes:
            out.append(tuple(pool[at:at + p]))
            at += p
        return tuple(out)


def facet_of_residue(spec: CyclotomicSpec, j: int) -> tuple[str, ...]:
    """The transversal facet of residue j: vertex (j mod p_i) in group i."""
    if not 0 <= j < spec.n:
        raise ValueError(f"residue {j} outside 0..{spec.n - 1}")
    return tuple(group[j % p] for group, p in zip(spec.groups, spec.primes))


def included_residues(spec: CyclotomicSpec, A) -> tuple[int, ...]:
    """Residues whose facets are kept: A plus the top index block.

    ZERO_BASED reduces the block {phi+1, ..., n} mod n, so the index n wraps
    to residue 0.  ONE_BASED reads indices literally as residues and drops
    the out-of-range index n.
    """
    A = set(A)
    if not A <= set(range(spec.phi + 1)):
        raise ValueError(f"A must lie inside 0..{spec.phi}")
    top = range(spec.phi + 1, spec.n + 1)
    if spec.labeling == ZERO_BASED:
        residues = {x % spec.n for x in A} | {x % spec.n for x in top}
    else:
        residues = A | {x for x in top if x < spec.n}
    return tuple(sorted(residues))


def build_residue_subcomplex(spec: CyclotomicSpec, A) -> SimplicialComplex:
    """Codimension-one skeleton of the join plus the facets selected by A."""
    if spec.d < 2:
        raise ValueError("at least two prime groups required")
    groups = spec.groups
    facets = [facet_of_residue(spec, j) for j in included_residues(spec, A)]
    # all partial transversals hitting d-1 of the d groups
    for skip in range(spec.d):
        kept = [groups[i] for i in range(spec.d) if i != skip]
        facets.extend(product(*kept))
    labels = [v for g in groups for v in g]
    return SimplicialComplex.from_facets(labels, facets)


def _expected_homology(spec: CyclotomicSpec, c_j: int) -> dict:
    """Reduced homology the coefficient theorem predicts, per degree.

    Z/c_j in degree d-2 (read as Z when c_j = 0), an extra Z in degree d-1
    exactly when c_j = 0, zero elsewhere.
    """
    out = {}
    for k in range(spec.d):
        rank, torsion = 0, ()
        if k == spec.d - 2:
            if c_j == 0:
                rank = 1
            elif abs(c_j) > 1:
                torsion = (abs(c_j),)
        if k == spec.d - 1 and c_j == 0:
            rank = 1
        out[k] = (rank, torsion)
    return out


def _residue_case(spec: CyclotomicSpec, j: int) -> tuple[int, SimplicialComplex]:
    """c_j of Phi_n and the single-facet subcomplex of residue j."""
    if not 0 <= j <= spec.phi:
        raise ValueError(f"j = {j} outside 0..{spec.phi}")
    return spec.cyclotomic[j], build_residue_subcomplex(spec, {j})


def check_cyclotomic_homology(spec: CyclotomicSpec, j: int) -> CheckReport:
    """Compare SNF homology of the single-facet subcomplex, under the spec's
    residue labeling, against the coefficient oracle."""
    c_j, T = _residue_case(spec, j)
    expected = _expected_homology(spec, c_j)
    actual = reduced_homology(T)
    match = actual == expected
    actual_table = {str(k): [r, list(t)] for k, (r, t) in sorted(actual.items())}
    return report(
        "cyclotomic_homology", match,
        witness=None if match else {"actual": actual_table},
        coefficient=c_j, degree=j, primes=list(spec.primes),
        labeling=spec.labeling,
        expected={str(k): [r, list(t)] for k, (r, t) in sorted(expected.items())},
        actual=actual_table,
        facet_count=len(T.facet_masks),
    )


def check_constant_term_detection(spec: CyclotomicSpec, j: int) -> CheckReport:
    """The constant-term dichotomy, operationalized through the top Betti number.

    Builds T = single-facet subcomplex and computes chi_c of its apex lift
    through the reversed-numerator identity; the lift itself is never
    materialized (its nonface count is far past the enumeration guard).
    Tests that the top Betti number of T, #top faces - rank of the top
    boundary map, is 1 when c_j = 0 and 0 otherwise.  The top h-entry cannot
    decide this: h_top = (-1)^(d-1) * (chi - 1), and at c_j = 0 the Z in
    the two top degrees cancel in the Euler characteristic.  h_top, that
    identity and the literal constant term of chi_c (identically zero here)
    are recorded.
    """
    c_j, T = _residue_case(spec, j)
    h = h_vector(T)
    h_top = h.entries[-1]
    chi_reduced = T.euler_characteristics()[1]
    identity_ok = h_top == (-1) ** (h.d - 1) * chi_reduced
    top_rank = len(smith_normal_form(boundary_matrix(T, T.dimension)))
    top_betti = T.f_vector()[-1] - top_rank
    k_t = numerator_from_h(T)
    n_s = T.n + 1
    chi_c = reciprocal(k_t, n_s)
    sign = (-1) ** spec.d
    expected_top_betti = 1 if c_j == 0 else 0
    ok = top_betti == expected_top_betti
    return report(
        "constant_term_detection", ok,
        witness=None if ok else {"top_betti": top_betti,
                                 "expected": expected_top_betti},
        coefficient=c_j, degree=j, primes=list(spec.primes),
        labeling=spec.labeling,
        top_betti=top_betti, expected_top_betti=expected_top_betti,
        h_top=h_top,
        reconstructed_constant=sign + top_betti,
        expected_constant=sign + expected_top_betti,
        literal_constant_term=chi_c[0],
        euler_identity_holds=identity_ok,
        h_vector=list(h.entries),
        lift_vertices=n_s,
    )
