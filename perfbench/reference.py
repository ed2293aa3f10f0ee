"""Independent routes the benchmark checks library results against.

Nothing here imports simpchrom: each function recomputes a value by a
different algorithm (closed forms, a pruned companion-set search, a power
series for cyclotomic coefficients) on plain ints, tuples and bitmasks.
"""

from __future__ import annotations

from math import comb


def evaluate(coeffs, x: int) -> int:
    """Value at x of the polynomial with coefficients c_0, c_1, ..."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def trimmed(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reversed_at(coeffs, n: int) -> tuple[int, ...]:
    """Coefficients of t^n * p(1/t) for a polynomial p of degree <= n."""
    padded = list(coeffs) + [0] * (n + 1 - len(coeffs))
    return trimmed(padded[::-1])


def times_one_minus_t_power(coeffs, e: int) -> tuple[int, ...]:
    out = list(coeffs)
    for _ in range(e):
        out = [a - b for a, b in zip(out + [0], [0] + out)]
    return trimmed(out)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def moebius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def cyclotomic_coefficients(n: int) -> tuple[int, ...]:
    """Phi_n for n > 1 as the power series prod_{d | n} (1 - x^d)^mu(n/d).

    The product is a polynomial of degree phi(n); truncating every factor at
    degree n keeps it exact.
    """
    c = [1] + [0] * n
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            for i in range(n, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:
            for i in range(d, n + 1):
                c[i] += c[i - d]
    return trimmed(c)


def elementary_symmetric(values, k: int) -> int:
    e = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * v
    return e[k]


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def rank_mod(rows, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by sparse row echelon reduction.

    Each row is reduced against the pivot rows kept so far, keyed by their
    leading column; a row left nonzero becomes a new pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: x % p for j, x in enumerate(row) if x % p}
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(r[lead], -1, p)
                pivots[lead] = {j: x * inverse % p for j, x in r.items()}
                break
            f = r[lead]
            for j, x in pivot.items():
                v = (r.get(j, 0) - f * x) % p
                if v:
                    r[j] = v
                else:
                    del r[j]
    return len(pivots)


def uniform_h_vector(n: int, k: int) -> tuple[int, ...]:
    """h-vector of the rank-k uniform matroid complex: h_i = C(n-k-1+i, i)."""
    return tuple(comb(n - k - 1 + i, i) for i in range(k + 1))


def expected_residue_homology(d: int, c_j: int) -> dict[int, tuple[int, tuple]]:
    """Homology the coefficient theorem predicts for a residue subcomplex."""
    out = {}
    for k in range(d):
        rank, torsion = 0, ()
        if k == d - 2:
            if c_j == 0:
                rank = 1
            elif abs(c_j) > 1:
                torsion = (abs(c_j),)
        if k == d - 1 and c_j == 0:
            rank = 1
        out[k] = (rank, torsion)
    return out


def _invariant_holds_with(sig, alf, i) -> bool:
    """|union sigma_I| - c(I) = |union alpha_I| for every I with max(I) = i."""
    def walk(start, su, au, comps):
        for j in range(start, i):
            g = sig[j]
            merged, rest = g, []
            for cm in comps:
                if cm & g:
                    merged |= cm
                else:
                    rest.append(cm)
            rest.append(merged)
            nsu, nau = su | g, au | alf[j]
            if not check(nsu, nau, rest) or not walk(j + 1, nsu, nau, rest):
                return False
        return True

    def check(su, au, comps):
        g = sig[i]
        merged, rest = g, 0
        for cm in comps:
            if cm & g:
                merged |= cm
            else:
                rest += 1
        return (su | g).bit_count() - (rest + 1) == (au | alf[i]).bit_count()

    return check(0, 0, []) and walk(0, 0, 0, [])


def first_alpha_assignment(generators):
    """First remove-one-element assignment in lexicographic product order.

    Backtracking that fixes alpha_0, alpha_1, ... in turn and tests only the
    subsets whose largest index is the one just fixed; a prefix that fails
    cannot be completed, so the first full success is the first one the
    exhaustive product would meet.  Returns [(sigma, alpha), ...] of sorted
    label tuples, or None.
    """
    labels = sorted({x for g in generators for x in g})
    bit = {x: 1 << i for i, x in enumerate(labels)}

    def mask(labs):
        m = 0
        for x in labs:
            m |= bit[x]
        return m

    gens = [tuple(g) for g in generators]
    cands = [sorted(tuple(sorted(set(g) - {x})) for x in g) for g in gens]
    sig = [mask(g) for g in gens]
    alf = [0] * len(gens)
    choice = [None] * len(gens)

    def place(i):
        if i == len(gens):
            return True
        for a in cands[i]:
            alf[i], choice[i] = mask(a), a
            if _invariant_holds_with(sig, alf, i) and place(i + 1):
                return True
        return False

    return list(zip(gens, choice)) if place(0) else None


def minimal_nonfaces_of_facets(facet_masks, nonface_masks) -> bool:
    """Every mask is in no facet while each one-smaller subset is in one."""
    for m in nonface_masks:
        if any(m & f == m for f in facet_masks):
            return False
        b = m
        while b:
            low = b & -b
            sub = m ^ low
            if not any(sub & f == sub for f in facet_masks):
                return False
            b ^= low
    return True
