"""Stanley-Reisner Hilbert-series numerators and the f-to-h conversion.

The numerator K(t) over (1-t)^n is computed two independent ways: by
inclusion-exclusion over generator subsets (union of squarefree supports =
lcm), and from the h-vector as h(t)*(1-t)^(n-d).  The two routes share no
algorithm and must agree exactly; the first borrows only the label-to-bitmask
encoder of the complexes module.  The numerator is distinct from the
h-polynomial: the two coincide only when n = d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import NonfaceFamily, SimplicialComplex, _later_unions, _masks
from .polynomials import IntPolynomial
from .report import check_limit, check_live_states

DEGREE_LIMIT = 12


@dataclass(frozen=True)
class HVector:
    """Entries h_0..h_d with d = dim + 1."""

    entries: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.entries) - 1


def numerator_by_inclusion_exclusion(family: NonfaceFamily) -> IntPolynomial:
    """K(t) = sum over generator subsets I of (-1)^|I| t^|union of I|.

    Summed by state, as chi_c is: walking the generators in order, a subset
    needs only the live part of its union, the vertices a later generator
    holds, and the size of the whole union.  One integer carries both, the
    size above bit n.  Subsets in one state add up their signed counts, and
    the last generator reads each state straight into the coefficients.
    """
    if not family.generators:
        return IntPolynomial((1,))
    ground = sorted(set().union(*family.generators))
    masks = _masks(ground, family.generators, "generator")
    n = len(ground)
    states = {0: 1}  # |union| << n | live part of the union -> signed count
    summed = 0
    for g, live in zip(masks, _later_unions(masks)[:-1]):
        keep = live | -1 << n
        nxt = {}
        for state, count in states.items():
            out = state & keep
            nxt[out] = nxt.get(out, 0) + count
            held = ((state | g) + ((g & ~state).bit_count() << n)) & keep
            nxt[held] = nxt.get(held, 0) - count
        states = nxt
        summed += len(states)
        check_live_states(len(states), summed, "take K from the h-vector instead")
    g = masks[-1]
    coeff = [0] * (n + 1)
    for state, count in states.items():
        size = state >> n
        coeff[size] += count
        coeff[size + (g & ~state).bit_count()] -= count
    return IntPolynomial(coeff)


def h_from_f(f, d: int) -> tuple[int, ...]:
    """h_j = sum_i (-1)^(j-i) C(d-i, j-i) f_{i-1} for j = 0..d."""
    f = tuple(f)
    if not f or f[0] != 1:
        raise ValueError("f-vector must start with f_-1 = 1")
    if len(f) != d + 1:
        raise ValueError(f"f-vector of length {len(f)} inconsistent with d = {d}")
    return tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 1))


def h_vector(S: SimplicialComplex) -> HVector:
    return HVector(h_from_f(S.f_vector, S.dimension + 1))


def numerator_from_h(S: SimplicialComplex) -> IntPolynomial:
    """K(t) = h(t) * (1-t)^(n-d); must equal the inclusion-exclusion route."""
    h = h_vector(S)
    exponent = S.n - (S.dimension + 1)
    one_minus_t = IntPolynomial((1, -1))
    return IntPolynomial(h.entries) * one_minus_t ** exponent


def standard_monomial_count(S: SimplicialComplex, m: int) -> int:
    """Monomials of degree m whose support is a face: the degree-m Hilbert value.

    Sums C(m-1, k-1) f_{k-1} over k >= 1 from the f-vector, plus the empty
    face at m = 0.  This is the independent series oracle for K(t)/(1-t)^n.
    Its cost does not grow with m, so it has no degree guard; the series it
    is checked against has one.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if m == 0:
        return 1
    f = S.f_vector
    return sum(comb(m - 1, k - 1) * f[k] for k in range(1, len(f)))


def series_coefficients(S: SimplicialComplex, upto: int) -> list[int]:
    """Coefficients 0..upto of K(t)/(1-t)^n expanded as a power series."""
    if upto < 0:
        raise ValueError("degree must be nonnegative")
    # bounds the printed series, before K is computed
    check_limit("monomial_degree", upto, DEGREE_LIMIT, "factors per monomial")
    k = numerator_by_inclusion_exclusion(S.minimal_nonfaces())
    n = S.n

    def ways(j):  # coefficient of t^j in 1/(1-t)^n
        return 1 if j == 0 else comb(n - 1 + j, j)

    return [
        sum(k[s] * ways(m - s) for s in range(min(m, k.degree) + 1))
        for m in range(upto + 1)
    ]
