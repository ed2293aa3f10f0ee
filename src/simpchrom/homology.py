"""Integer simplicial homology of the reduced (augmented) chain complex.

Boundary operators are exact integer matrices over lexicographically ordered
faces, built column by column into sparse rows; ranks and torsion come from
a Smith normal form computed by exact elimination over the sparse lines of
the shorter side.  Boundary entries are 0 and +-1, so nearly every pivot is
a unit and the lines stay short.  No modular tricks, and no dense row: a
matrix is its sparse rows and its width, and only the benchmark reads the
dense ``entries`` view, built on first read.

One guard, ``matrix_size``, bounds the short side of an SNF matrix:
``reduced_homology`` reads it off ``S.f_vector`` for every d_k before the
face table is grown, and ``boundary_matrix`` and ``smith_normal_form``
check the matrices they are given.  The long side needs no bound.  With f_i
faces of size i, d_k is f_k x f_(k+1); a face of size k + 1 has k + 1 faces
of size k, each in at most n - k faces of size k + 1, so on n <= 25
vertices (``vertex_count``) f_(k+1) <= f_k (n - k) / (k + 1).  A d_k with
at most 500 rows then has at most 3,833 columns, and one with at most 500
columns and over 5,000 rows follows a d_(k-1) whose over 5,000 columns
need over 500 rows, refused first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .complexes import SimplicialComplex
from .report import check_limit

SNF_DIMENSION_LIMIT = 500


@dataclass(frozen=True)
class IntegerMatrix:
    """An exact integer matrix, held as sparse rows.

    ``sparse_rows[i]`` holds the (column, entry) pairs of row i's nonzeros,
    by column.  ``boundary_matrix`` is the one library code that builds
    one.  The dense ``entries``, built on first read, serve only the
    benchmark's GF(p) rank check (``perfbench/workloads.py``).
    """

    sparse_rows: tuple[tuple[tuple[int, int], ...], ...]
    ncols: int

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
    _check_snf_size(len(rows), len(cols))
    row_index = {m: i for i, m in enumerate(rows)}
    out = [[] for _ in rows]
    for j, c in enumerate(cols):
        sign, rest = 1, c
        while rest:
            low = rest & -rest
            out[row_index[c ^ low]].append((j, sign))
            sign, rest = -sign, rest ^ low
    return IntegerMatrix(tuple(map(tuple, out)), len(cols))


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
    the set of invariant factors of d_(k+1) exceeding 1.  Every d_k passes
    its guard off the f-vector before the face table is grown.
    """
    dim = S.dimension
    if dim < 0:
        # only the empty face: a single Z in degree -1
        return {-1: (1, ())}
    f = S.f_vector
    for k in range(dim + 1):
        _check_snf_size(f[k], f[k + 1])
    snf = {k: smith_normal_form(boundary_matrix(S, k)) for k in range(dim + 1)}
    out = {}
    for k in range(dim + 1):
        rank_in = len(snf.get(k + 1, ()))
        rank_out = len(snf[k])
        betti = f[k + 1] - rank_out - rank_in
        torsion = tuple(d for d in snf.get(k + 1, ()) if d > 1)
        out[k] = (betti, torsion)
    return out
