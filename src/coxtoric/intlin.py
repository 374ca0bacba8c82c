"""Exact integer linear algebra over Python's arbitrary-precision ints.

Provides the computational substrate for everything else: Smith and
(column) Hermite normal forms with unimodular transforms, kernels,
cokernel invariant factors, lattice membership, and integer linear
system solving.  No floats anywhere; rationals appear only as inputs
to membership-style predicates elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InvalidRayError, ShapeError

Vector = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    """Inner product; works for int and Fraction entries alike."""
    if len(u) != len(v):
        raise ShapeError(f"dot of length {len(u)} with length {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vector_gcd(v: Sequence[int]) -> int:
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def primitive_vector(v: Sequence[int]) -> Vector:
    """Divide v by the (positive) gcd of its entries, keeping direction."""
    g = vector_gcd(v)
    if g == 0:
        raise InvalidRayError("zero vector has no primitive representative")
    return tuple(a // g for a in v)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with row-major entries."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ShapeError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeError(f"row of length {len(row)} in a {self.rows}x{self.cols} matrix")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: int | None = None) -> IntMatrix:
        entries = tuple(tuple(int(a) for a in row) for row in rows)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        return IntMatrix(len(entries), cols, entries)

    @staticmethod
    def from_columns(cols: Iterable[Sequence[int]], rows: int | None = None) -> IntMatrix:
        cols = [tuple(int(a) for a in c) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        return IntMatrix(rows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(rows)))

    @staticmethod
    def identity(n: int) -> IntMatrix:
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def diagonal(diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> IntMatrix:
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        return IntMatrix(rows, cols, tuple(
            tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(cols))
            for i in range(rows)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(self.cols, self.rows,
                         tuple(self.column(j) for j in range(self.cols)))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.columns()
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(dot(row, c) for c in cols) for row in self.entries))

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; accepts int or Fraction entries."""
        if len(v) != self.cols:
            raise ShapeError(f"vector of length {len(v)} for a {self.rows}x{self.cols} matrix")
        return tuple(dot(row, v) for row in self.entries)

    def scale(self, k: int) -> IntMatrix:
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(k * a for a in row) for row in self.entries))

    def hstack(self, other: IntMatrix) -> IntMatrix:
        if self.rows != other.rows:
            raise ShapeError("hstack needs equal row counts")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def diagonal_entries(self) -> Vector:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def _bareiss(self) -> tuple[int, int]:
        """Fraction-free (Bareiss) row elimination, independent of SNF.

        Returns (rank, signed last pivot).  When the matrix is square of
        full rank the signed last pivot is its determinant; it is 1 when
        there are no pivots.
        """
        m, n = self.rows, self.cols
        M = [list(row) for row in self.entries]
        r = 0
        prev = sign = 1
        for j in range(n):
            if r == m:
                break
            piv = next((i for i in range(r, m) if M[i][j]), None)
            if piv is None:
                continue
            if piv != r:
                M[r], M[piv] = M[piv], M[r]
                sign = -sign
            for i in range(r + 1, m):
                for k in range(j + 1, n):
                    # exact by the Sylvester determinant identity
                    M[i][k] = (M[i][k] * M[r][j] - M[i][j] * M[r][k]) // prev
            prev = M[r][j]
            r += 1
        return r, sign * prev

    def rank(self) -> int:
        """Rank by fraction-free (Bareiss) elimination, independent of SNF."""
        return self._bareiss()[0]

    def det(self) -> int:
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        rank, pivot = self._bareiss()
        return pivot if rank == self.rows else 0

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(a) for a in row) for row in self.entries) + "]"


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form U*A*V = D with |det U| = |det V| = 1.

    D is diagonal with nonnegative entries d1 | d2 | ... and zeros trailing;
    it is the unique such form for the input.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def rank(self) -> int:
        return sum(1 for d in self.D.diagonal_entries() if d)

    def invariant_factors(self) -> Vector:
        return tuple(d for d in self.D.diagonal_entries() if d)


def _swap_rows(M, i, j):
    M[i], M[j] = M[j], M[i]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def _combine_rows(M, i, j, x, y, p, q):
    """rows (i, j) <- (x*row_i + y*row_j, -q*row_i + p*row_j); x*p + y*q = 1."""
    for k in range(len(M[i])):
        M[i][k], M[j][k] = x * M[i][k] + y * M[j][k], -q * M[i][k] + p * M[j][k]


def _combine_cols(M, i, j, x, y, p, q):
    for row in M:
        row[i], row[j] = x * row[i] + y * row[j], -q * row[i] + p * row[j]


def _eliminate_row_entry(mats, t, i):
    """Zero M[i][t] against pivot M[t][t] by a unimodular 2-row operation
    applied to every matrix in `mats` (the first carries the pivot).

    When the pivot already divides the entry this is a plain row
    subtraction, which leaves the pivot row untouched; that property is
    what makes the alternating reduction in smith_normal_form terminate.
    """
    M = mats[0]
    a, b = M[t][t], M[i][t]
    if a and b % a == 0:
        q = b // a
        for mat in mats:
            for k in range(len(mat[i])):
                mat[i][k] -= q * mat[t][k]
    else:
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        for mat in mats:
            _combine_rows(mat, t, i, x, y, p, q)


def _eliminate_col_entry(mats, t, j):
    """Column analogue of _eliminate_row_entry, pivot at M[t][t]."""
    M = mats[0]
    a, b = M[t][t], M[t][j]
    if a and b % a == 0:
        q = b // a
        for mat in mats:
            for row in mat:
                row[j] -= q * row[t]
    else:
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        for mat in mats:
            _combine_cols(mat, t, j, x, y, p, q)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize by gcd-driven row/column reduction.

    Pivots are chosen by minimal absolute value; whenever the current pivot
    fails to divide an entry of the remaining block, that entry's row is
    folded into the pivot row, which makes the resulting diagonal satisfy
    the divisibility chain without a separate fix-up pass.
    """
    m, n = a.rows, a.cols
    M = [list(row) for row in a.entries]
    U = [list(row) for row in IntMatrix.identity(m).entries]
    V = [list(row) for row in IntMatrix.identity(n).entries]

    for t in range(min(m, n)):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            _swap_rows(M, t, best[0])
            _swap_rows(U, t, best[0])
        if best[1] != t:
            _swap_cols(M, t, best[1])
            _swap_cols(V, t, best[1])
        while True:
            for i in range(t + 1, m):
                if M[i][t]:
                    _eliminate_row_entry((M, U), t, i)
            for j in range(t + 1, n):
                if M[t][j]:
                    _eliminate_col_entry((M, V), t, j)
            if any(M[i][t] for i in range(t + 1, m)):
                continue
            piv = M[t][t]
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if M[i][j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for k in range(n):
                M[t][k] += M[bad][k]
            for k in range(m):
                U[t][k] += U[bad][k]
        if M[t][t] < 0:
            for k in range(n):
                M[t][k] = -M[t][k]
            for k in range(m):
                U[t][k] = -U[t][k]

    result = SnfResult(IntMatrix.from_rows(U, m), IntMatrix.from_rows(M, n), IntMatrix.from_rows(V, n))
    assert result.U @ a @ result.V == result.D
    return result


def column_hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, tuple[tuple[int, int], ...]]:
    """Column-style Hermite normal form: H = A*V with V unimodular.

    H is in column echelon form with positive pivots; entries to the left
    of a pivot in its row are reduced into [0, pivot).  The nonzero columns
    of H are a canonical basis of the column lattice of A, so equality of
    column lattices can be decided by comparing these forms.

    Returns (H, V, pivots) where pivots lists (row, column) pairs.
    """
    m, n = a.rows, a.cols
    M = [list(row) for row in a.entries]
    V = [list(row) for row in IntMatrix.identity(n).entries]
    pivots: list[tuple[int, int]] = []
    c = 0
    for i in range(m):
        if c >= n:
            break
        j0 = next((j for j in range(c, n) if M[i][j]), None)
        if j0 is None:
            continue
        if j0 != c:
            _swap_cols(M, c, j0)
            _swap_cols(V, c, j0)
        for j in range(c + 1, n):
            if M[i][j]:
                a, b = M[i][c], M[i][j]
                if b % a == 0:
                    q = b // a
                    for mat in (M, V):
                        for row in mat:
                            row[j] -= q * row[c]
                else:
                    g, x, y = _xgcd(a, b)
                    p, q = a // g, b // g
                    _combine_cols(M, c, j, x, y, p, q)
                    _combine_cols(V, c, j, x, y, p, q)
        if M[i][c] < 0:
            for row in M:
                row[c] = -row[c]
            for row in V:
                row[c] = -row[c]
        piv = M[i][c]
        for j in range(c):
            q = M[i][j] // piv
            if q:
                for row in M:
                    row[j] -= q * row[c]
                for row in V:
                    row[j] -= q * row[c]
        pivots.append((i, c))
        c += 1
    return (IntMatrix.from_rows(M, n), IntMatrix.from_rows(V, n), tuple(pivots))


def lattice_canonical_form(a: IntMatrix) -> IntMatrix:
    """Canonical basis matrix of the column lattice of A (zero columns dropped)."""
    H, _, pivots = column_hermite_normal_form(a)
    return IntMatrix.from_columns([H.column(c) for _, c in pivots], rows=a.rows)


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Vector | None:
    """One integer solution of A*x = b, or None.

    The solution is the canonical one from Hermite back-substitution with
    all free parameters set to zero; the result is verified by substitution.
    """
    if len(b) != a.rows:
        raise ShapeError(f"rhs of length {len(b)} for a {a.rows}x{a.cols} system")
    H, V, pivots = column_hermite_normal_form(a)
    y = [0] * a.cols
    pivot_col = dict(pivots)
    for i in range(a.rows):
        r = b[i] - sum(H.entries[i][j] * y[j] for j in range(a.cols) if y[j])
        if i in pivot_col:
            c = pivot_col[i]
            piv = H.entries[i][c]
            if r % piv:
                return None
            y[c] = r // piv
        elif r != 0:
            return None
    x = V.apply(y)
    assert a.apply(x) == tuple(b)
    return x


def lattice_membership(L: IntMatrix, v: Sequence[int]) -> bool:
    """Whether v lies in the lattice generated by the columns of L."""
    return solve_integer(L, v) is not None


def divisibility_index(L: IntMatrix, v: Sequence[int]) -> int | None:
    """Smallest d >= 1 with d*v in the column lattice of L; None iff v is
    not even in the rational span of the columns."""
    if len(v) != L.rows:
        raise ShapeError(f"vector of length {len(v)} for a lattice in Z^{L.rows}")
    snf = smith_normal_form(L)
    w = snf.U.apply(v)
    rho = snf.rank()
    if any(w[i] for i in range(rho, L.rows)):
        return None
    d = 1
    diag = snf.D.diagonal_entries()
    for i in range(rho):
        d = lcm(d, diag[i] // gcd(diag[i], w[i]))
    return d


def kernel_basis(a: IntMatrix) -> list[Vector]:
    """Basis of the saturated lattice ker(A) in Z^cols (empty iff A injective)."""
    snf = smith_normal_form(a)
    rho = snf.rank()
    return [snf.V.column(j) for j in range(rho, a.cols)]


def cokernel_invariants(a: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors > 1) of Z^rows / im(A)."""
    snf = smith_normal_form(a)
    torsion = tuple(d for d in snf.invariant_factors() if d > 1)
    return a.rows - snf.rank(), torsion


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a square integer matrix with |det| = 1."""
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    cols = []
    for j in range(a.rows):
        e = tuple(1 if i == j else 0 for i in range(a.rows))
        x = solve_integer(a, e)
        if x is None:
            raise ShapeError("matrix is not unimodular")
        cols.append(x)
    return IntMatrix.from_columns(cols, rows=a.rows)


def saturation_basis(a: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the saturation of the column lattice of A,
    i.e. of span_Q(columns) intersected with Z^rows."""
    snf = smith_normal_form(a)
    rho = snf.rank()
    u_inv = invert_unimodular(snf.U)
    return IntMatrix.from_columns([u_inv.column(i) for i in range(rho)], rows=a.rows)
