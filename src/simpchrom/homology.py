"""Integer simplicial homology of the reduced (augmented) chain complex.

Boundary operators are exact integer matrices over lexicographically ordered
faces, built column by column into sparse rows; ranks and torsion come from
a Smith normal form computed by exact elimination over the sparse lines of
the shorter side.  Boundary entries are 0 and +-1, so nearly every pivot is
a unit and the lines stay short.  No modular tricks, and no dense row: a
matrix builds its dense ``entries`` only when a caller reads them.  The
face-count and SNF size guards read the face counts alone:
``boundary_matrix`` checks them before a matrix is built, and
``reduced_homology`` checks every degree before its first SNF.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from .complexes import SimplicialComplex
from .report import check_limit

FACE_COUNT_LIMIT = 5000
SNF_DIMENSION_LIMIT = 500


@dataclass(frozen=True, init=False)
class IntegerMatrix:
    """An exact integer matrix, held as sparse rows.

    ``sparse_rows[i]`` holds the (column, entry) pairs of row i's nonzeros,
    by column.  The constructor takes dense rows of ints; ``entries`` gives
    them back, and on a matrix built sparse it builds them on first read.
    """

    sparse_rows: tuple[tuple[tuple[int, int], ...], ...]
    ncols: int

    def __init__(self, entries):
        rows = tuple(map(tuple, entries))  # tuple rows are kept as they are
        if not set(map(type, chain.from_iterable(rows))) <= {int, bool}:
            raise TypeError("matrix entries must be int")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "sparse_rows", tuple(
            tuple((j, x) for j, x in enumerate(r) if x) for r in rows))
        object.__setattr__(self, "ncols", widths.pop() if widths else 0)
        object.__setattr__(self, "entries", rows)  # the dense view, already built

    @classmethod
    def _sparse(cls, sparse_rows, ncols: int) -> IntegerMatrix:
        M = cls.__new__(cls)
        object.__setattr__(M, "sparse_rows", sparse_rows)
        object.__setattr__(M, "ncols", ncols)
        return M

    @property
    def nrows(self) -> int:
        return len(self.sparse_rows)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, as tuples of ints."""
        out = []
        for line in self.sparse_rows:
            row = [0] * self.ncols
            for j, x in line:
                row[j] = x
            out.append(tuple(row))
        return tuple(out)


def boundary_matrix(S: SimplicialComplex, k: int) -> IntegerMatrix:
    """Matrix of the k-th boundary map with standard alternating signs.

    Rows index (k-1)-faces, columns index k-faces, both in the order of
    ``S.faces_by_size``; the k = 0 map sends every vertex to the empty face
    (reduced augmentation row of ones).  Column c has the entry +-1 at row
    c - v for each vertex v of c, the sign alternating +, -, ... as v runs
    up the vertices of c: (-1) to the number of vertices of c below v.  So
    a column costs k + 1 lookups, and no dense row is allocated.
    """
    if k < 0 or k > S.dimension:
        raise ValueError(f"degree {k} outside 0..{S.dimension}")
    rows, cols = S.faces_by_size[k], S.faces_by_size[k + 1]
    _check_boundary_size(len(rows), len(cols))
    row_index = {m: i for i, m in enumerate(rows)}
    out = [[] for _ in rows]
    for j, c in enumerate(cols):
        sign, rest = 1, c
        while rest:
            low = rest & -rest
            out[row_index[c ^ low]].append((j, sign))
            sign, rest = -sign, rest ^ low
    return IntegerMatrix._sparse(tuple(map(tuple, out)), len(cols))


def _check_boundary_size(nrows: int, ncols: int) -> None:
    """Both guards of a boundary matrix, from its face counts alone."""
    check_limit("face_count", max(nrows, ncols), FACE_COUNT_LIMIT,
                "faces of one size")
    _check_snf_size(nrows, ncols)


def _check_snf_size(nrows: int, ncols: int) -> None:
    """Bounds the short side of a matrix, the lines the SNF eliminates over."""
    check_limit("matrix_size", min(nrows, ncols), SNF_DIMENSION_LIMIT,
                "lines on the short side of an SNF matrix")


def smith_normal_form(M: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero diagonal invariants d_1 | d_2 | ... of M; their count is the rank.

    The transpose has the same invariants, so the elimination runs over the
    lines of the shorter side, each held as an {index: entry} dict of its
    nonzeros; below, a line is a row.  Each step pivots on an entry of least
    absolute value, the first unit found, and clears its column by row
    operations.  Once the column is clear, column operations touch only the
    pivot row, which is reduced modulo the pivot; a row left holding only
    its pivot gives one diagonal entry.  Every remainder is smaller than its
    pivot, so the loop ends.
    """
    _check_snf_size(M.nrows, M.ncols)
    if M.nrows <= M.ncols:
        rows = [dict(line) for line in M.sparse_rows if line]
    else:
        columns = [{} for _ in range(M.ncols)]
        for i, line in enumerate(M.sparse_rows):
            for j, x in line:
                columns[j][i] = x
        rows = [c for c in columns if c]
    diagonal = []
    while rows:
        least = None
        for i, row in enumerate(rows):
            for j, x in row.items():
                if least is None or abs(x) < abs(least[2]):
                    least = (i, j, x)
            if abs(least[2]) == 1:
                break
        i, j, p = least
        pivot_row = rows[i]
        remainder = False
        for row in rows:
            x = row.get(j)
            if x and row is not pivot_row:
                q = x // p
                for c, y in pivot_row.items():
                    v = row.get(c, 0) - q * y
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                remainder = remainder or j in row
        if not remainder:
            rest = {c: y % p for c, y in pivot_row.items() if y % p}
            if rest:
                rest[j] = p
            else:
                diagonal.append(abs(p))
            rows[i] = rest
        rows = [row for row in rows if row]
    # diag(a, b) and diag(gcd, lcm) are equivalent; units already divide all
    diagonal.sort()
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            if diagonal[a] == 1:
                break
            x, y = diagonal[a], diagonal[b]
            diagonal[a], diagonal[b] = gcd(x, y), lcm(x, y)
    return tuple(diagonal)


def reduced_homology(S: SimplicialComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Per-degree (betti rank, torsion invariants) of the reduced complex.

    rank H_k = #k-faces - rank d_k - rank d_(k+1); the torsion in degree k is
    the set of invariant factors of d_(k+1) exceeding 1.  The guards of
    every degree are checked before the first SNF.
    """
    dim = S.dimension
    if dim < 0:
        # only the empty face: a single Z in degree -1
        return {-1: (1, ())}
    faces = S.faces_by_size
    for k in range(dim + 1):
        _check_boundary_size(len(faces[k]), len(faces[k + 1]))
    snf = {k: smith_normal_form(boundary_matrix(S, k)) for k in range(dim + 1)}
    out = {}
    for k in range(dim + 1):
        rank_in = len(snf.get(k + 1, ()))
        rank_out = len(snf[k])
        betti = len(faces[k + 1]) - rank_out - rank_in
        torsion = tuple(d for d in snf.get(k + 1, ()) if d > 1)
        out[k] = (betti, torsion)
    return out
