"""Integer simplicial homology of the reduced (augmented) chain complex.

Boundary operators are exact integer matrices over lexicographically ordered
faces; ranks and torsion come from a Smith normal form computed with plain
arbitrary-precision elimination and a smallest-pivot heuristic.  No modular
tricks: the matrices here stay around 100 x 100.  The face-count and SNF
size guards both fire in ``boundary_matrix``, before a matrix is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, _mask_key
from .report import GuardError

FACE_COUNT_LIMIT = 5000
SNF_DIMENSION_LIMIT = 500


@dataclass(frozen=True)
class IntegerMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def multiply(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = other.ncols
        return IntegerMatrix(tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j]
                      for k in range(self.ncols)) for j in range(cols))
            for i in range(self.nrows)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def faces_of_dimension(S: SimplicialComplex, k: int) -> list[int]:
    """Masks of the k-dimensional faces in lexicographic vertex order."""
    return sorted((m for m in S.face_masks if m.bit_count() == k + 1),
                  key=_mask_key)


def boundary_matrix(S: SimplicialComplex, k: int) -> IntegerMatrix:
    """Matrix of the k-th boundary map with standard alternating signs.

    Rows index (k-1)-faces, columns index k-faces; the k = 0 map sends every
    vertex to the empty face (reduced augmentation row of ones).
    """
    if k < 0 or k > S.dimension:
        raise ValueError(f"degree {k} outside 0..{S.dimension}")
    rows = faces_of_dimension(S, k - 1)
    cols = faces_of_dimension(S, k)
    if len(rows) > FACE_COUNT_LIMIT or len(cols) > FACE_COUNT_LIMIT:
        raise GuardError("face_count",
                         f"face counts exceed the {FACE_COUNT_LIMIT} limit")
    _check_snf_size(len(rows), len(cols))
    row_index = {m: i for i, m in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for j, m in enumerate(cols):
        verts = []
        mm = m
        while mm:
            b = mm & -mm
            verts.append(b)
            mm ^= b
        for pos, b in enumerate(verts):
            out[row_index[m ^ b]][j] = (-1) ** pos
    return IntegerMatrix(out)


def _check_snf_size(nrows: int, ncols: int) -> None:
    """The dense elimination costs O(short side * rows * cols)."""
    if min(nrows, ncols) > SNF_DIMENSION_LIMIT:
        raise GuardError("matrix_size",
                         f"matrix exceeds the {SNF_DIMENSION_LIMIT} SNF limit")


def smith_normal_form(M: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero diagonal invariants d_1 | d_2 | ... of M; their count is the rank."""
    _check_snf_size(M.nrows, M.ncols)
    a = [list(row) for row in M.entries]
    m = len(a)
    n = len(a[0]) if a else 0
    invariants = []
    t = 0
    while t < min(m, n):
        pivot = _smallest_nonzero(a, t, m, n)
        if pivot is None:
            break
        while True:
            pi, pj = _smallest_nonzero(a, t, m, n)
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest for the divisibility chain
            fix = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            for j in range(t, n):
                a[t][j] += a[fix][j]
        invariants.append(abs(a[t][t]))
        t += 1
    return tuple(invariants)


def _smallest_nonzero(a, t, m, n):
    best = None
    best_pos = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            v = row[j]
            if v:
                v = -v if v < 0 else v
                if best is None or v < best:
                    best, best_pos = v, (i, j)
                    if v == 1:
                        return best_pos
    return best_pos


def reduced_homology(S: SimplicialComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Per-degree (betti rank, torsion invariants) of the reduced complex.

    rank H_k = #k-faces - rank d_k - rank d_(k+1); the torsion in degree k is
    the set of invariant factors of d_(k+1) exceeding 1.
    """
    dim = S.dimension
    if dim < 0:
        # only the empty face: a single Z in degree -1
        return {-1: (1, ())}
    counts = S.f_vector()[1:]
    snf = {}
    for k in range(dim + 1):
        snf[k] = smith_normal_form(boundary_matrix(S, k))
    out = {}
    for k in range(dim + 1):
        rank_in = len(snf.get(k + 1, ()))
        rank_out = len(snf[k])
        betti = counts[k] - rank_out - rank_in
        torsion = tuple(d for d in snf.get(k + 1, ()) if d > 1)
        out[k] = (betti, torsion)
    return out
