"""Exact integer linear algebra over Python's arbitrary-precision ints.

Provides the computational substrate for everything else: Smith and
(column) Hermite normal forms with unimodular transforms, kernels,
cokernel invariant factors, lattice membership, and integer linear
system solving.  No floats anywhere; rationals appear only as inputs
to membership-style predicates elsewhere.

One Smith elimination and one column Hermite elimination serve every
caller, each carrying only the transforms its caller reads.  Membership,
divisibility index and integer solving are one back-substitution per
right-hand side against one column Hermite form; only solving carries its
transform.  Results are certified by explicit checks that raise
ArithmeticError: `smith_normal_form` checks U*A*V = D, `kernel_basis`
checks A*K = 0 and the kernel's rank against an independent Bareiss rank,
`saturation_basis` checks that A*V = U^-1*D divides exactly, `solve_scaled`
checks every column of its solution by substitution and
`invert_unimodular` checks A*V = I.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
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
    def diagonal(diag: Sequence[int]) -> IntMatrix:
        n = len(diag)
        return IntMatrix(n, n, tuple(tuple(diag[i] if i == j else 0 for j in range(n))
                                     for i in range(n)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> IntMatrix:
        return _built(zip(*self.entries) if self.rows else [()] * self.cols, self.rows)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.entries)) if other.rows else [()] * other.cols
        return _built(([sum(map(mul, row, c)) for c in cols] for row in self.entries), other.cols)

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; accepts int or Fraction entries."""
        if len(v) != self.cols:
            raise ShapeError(f"vector of length {len(v)} for a {self.rows}x{self.cols} matrix")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def diagonal_entries(self) -> Vector:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def rank(self) -> int:
        """Rank by fraction-free (Bareiss) elimination, independent of SNF."""
        return _bareiss([list(row) for row in self.entries], self.cols)[0]

    def det(self) -> int:
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        rank, pivot, _ = _bareiss([list(row) for row in self.entries], self.cols)
        return pivot if rank == self.rows else 0

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(a) for a in row) for row in self.entries) + "]"


def _built(rows: Iterable[Iterable[int]], cols: int) -> IntMatrix:
    """IntMatrix of int rows this module computed; unlike `from_rows`, no int()."""
    entries = tuple(map(tuple, rows))
    return IntMatrix(len(entries), cols, entries)


def _bareiss(M: list[list[int]], cols: int) -> tuple[int, int, list[int]]:
    """Fraction-free (Bareiss) row elimination of the row lists M, in place.

    Returns (rank, signed last pivot, pivot columns).  Afterwards row r
    holds its pivot in column pivots[r] and is exact to the right of it;
    entries to the left of a pivot are left uncleared.  When M is square of
    full rank the signed last pivot is its determinant; it is 1 when there
    are no pivots.
    """
    m = len(M)
    pivots: list[int] = []
    r = 0
    prev = sign = 1
    for j in range(cols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if M[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        for i in range(r + 1, m):
            for k in range(j + 1, cols):
                # exact by the Sylvester determinant identity
                M[i][k] = (M[i][k] * M[r][j] - M[i][j] * M[r][k]) // prev
        prev = M[r][j]
        pivots.append(j)
        r += 1
    return r, sign * prev, pivots


def kernel_generator(rows: Sequence[Sequence[int]], cols: int) -> Vector | None:
    """Primitive generator of ker(A) in Z^cols when that kernel has rank 1,
    else None; A is given by its rows.

    For A of shape (cols-1) x cols this is, up to sign, the vector of signed
    maximal minors of A divided by their gcd.  The free column's entry is
    set to the last Bareiss pivot, which is +-the minor on the pivot
    columns; by Cramer's rule the kernel vector with that entry is
    integral, so back-substitution through the fraction-free echelon rows
    divides exactly.
    """
    M = [list(row) for row in rows]
    rank, last, pivots = _bareiss(M, cols)
    if rank != cols - 1:
        return None
    x = [0] * cols
    x[next(j for j in range(cols) if j not in pivots)] = last
    for r in reversed(range(rank)):
        p = pivots[r]
        row = M[r]
        x[p] = -sum(row[k] * x[k] for k in range(p + 1, cols)) // row[p]
    return primitive_vector(x)


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


def _eliminate_col_entry(mats, r, t, j):
    """Column analogue of _eliminate_row_entry: zero M[r][j] against the
    pivot M[r][t] (M = mats[0]) by a unimodular 2-column operation."""
    M = mats[0]
    a, b = M[r][t], M[r][j]
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


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _smith_elimination(a: IntMatrix, carry_u: bool):
    """The gcd-driven diagonalization behind smith_normal_form, on row lists.

    Returns (D, U, V) with U*A*V = D.  U is None unless carry_u, so that
    a caller that reads no U applies no row operation to it.  Pivots are
    chosen by minimal absolute value; whenever the current pivot fails to
    divide an entry of the remaining block, that entry's row is folded
    into the pivot row, which makes the resulting diagonal satisfy the
    divisibility chain without a separate fix-up pass.
    """
    m, n = a.rows, a.cols
    M = [list(row) for row in a.entries]
    U = _identity_rows(m) if carry_u else None
    V = _identity_rows(n)
    row_mats = (M, U) if carry_u else (M,)
    col_mats = (M, V)

    for t in range(min(m, n)):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            for mat in row_mats:
                _swap_rows(mat, t, best[0])
        if best[1] != t:
            for mat in col_mats:
                _swap_cols(mat, t, best[1])
        while True:
            for i in range(t + 1, m):
                if M[i][t]:
                    _eliminate_row_entry(row_mats, t, i)
            for j in range(t + 1, n):
                if M[t][j]:
                    _eliminate_col_entry(col_mats, t, t, j)
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
            for mat in row_mats:
                mat[t] = [x + y for x, y in zip(mat[t], mat[bad])]
        if M[t][t] < 0:
            for mat in row_mats:
                mat[t] = [-x for x in mat[t]]
    return M, U, V


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with both transforms; U*A*V = D is checked and an
    ArithmeticError raised if it fails."""
    m, n = a.rows, a.cols
    D, U, V = _smith_elimination(a, carry_u=True)
    result = SnfResult(_built(U, m), _built(D, n), _built(V, n))
    if result.U @ a @ result.V != result.D:
        raise ArithmeticError(f"Smith form of {a} fails U * A * V = D")
    return result


def _column_hermite(mats, n: int) -> tuple[tuple[int, int], ...]:
    """Column Hermite reduction of the m x n row lists mats[0], in place;
    every column operation is applied to each matrix in `mats`.  Returns
    the (row, column) pivots."""
    M = mats[0]
    pivots: list[tuple[int, int]] = []
    c = 0
    for i in range(len(M)):
        if c >= n:
            break
        j0 = next((j for j in range(c, n) if M[i][j]), None)
        if j0 is None:
            continue
        if j0 != c:
            for mat in mats:
                _swap_cols(mat, c, j0)
        for j in range(c + 1, n):
            if M[i][j]:
                _eliminate_col_entry(mats, i, c, j)
        if M[i][c] < 0:
            for mat in mats:
                for row in mat:
                    row[c] = -row[c]
        piv = M[i][c]
        for j in range(c):
            q = M[i][j] // piv
            if q:
                for mat in mats:
                    for row in mat:
                        row[j] -= q * row[c]
        pivots.append((i, c))
        c += 1
    return tuple(pivots)


def column_hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, tuple[tuple[int, int], ...]]:
    """Column-style Hermite normal form: H = A*V with V unimodular.

    H is in column echelon form with positive pivots; entries to the left
    of a pivot in its row are reduced into [0, pivot).  The nonzero columns
    of H are a canonical basis of the column lattice of A, so equality of
    column lattices can be decided by comparing these forms.

    Returns (H, V, pivots) where pivots lists (row, column) pairs.
    """
    n = a.cols
    M = [list(row) for row in a.entries]
    V = _identity_rows(n)
    pivots = _column_hermite((M, V), n)
    return _built(M, n), _built(V, n), pivots


def lattice_canonical_form(a: IntMatrix) -> IntMatrix:
    """Canonical basis matrix of the column lattice of A (zero columns dropped):
    the Hermite form's pivot columns, which are its leading ones."""
    M = [list(row) for row in a.entries]
    k = len(_column_hermite((M,), a.cols))
    return _built([row[:k] for row in M], k)


def _back_substitute(H, pivots, b: Sequence[int], cols: int) -> tuple[int, list[int]] | None:
    """Least d >= 1 and integer y, zero off the pivot columns, with H*y = d*b
    for the rows H and (row, column) pivots of a column Hermite form; None
    off the span of H.  A pivot that fails to divide its row's remainder r
    scales d and y by piv / gcd(r, piv), the least factor that makes it so."""
    if len(b) != len(H):
        raise ShapeError(f"vector of length {len(b)} for a lattice in Z^{len(H)}")
    pivot_rows = {i for i, _ in pivots}
    d = 1
    y: list[int] = []
    for i, row in enumerate(H):
        # row i is zero from column len(y) on, except at its own pivot
        r = d * b[i] - sum(map(mul, row, y))
        if i not in pivot_rows:
            if r:
                return None
            continue
        piv = row[len(y)]
        if r % piv:
            s = piv // gcd(r, piv)
            d, r = d * s, r * s
            y = [s * x for x in y]
        y.append(r // piv)
    return d, y + [0] * (cols - len(y))


def solve_scaled(a: IntMatrix, rhs: Sequence[Sequence[int]]) -> tuple[int, list[Vector]] | None:
    """Least d >= 1 with d*b_j in the column lattice of A for every column b_j
    of `rhs`, and solutions x_j of A*x_j = d*b_j; None if some b_j is off the
    rational span.  One Hermite form H = A*V serves every b_j: H*y_j = d_j*b_j
    for its back-substitution y_j, so x_j = V*((d/d_j)*y_j).  Each x_j is
    verified by substitution."""
    H, V, pivots = column_hermite_normal_form(a)
    found = [_back_substitute(H.entries, pivots, b, a.cols) for b in rhs]
    if None in found:
        return None
    d = lcm(*(dj for dj, _ in found))
    solutions = [V.apply([d // dj * t for t in y]) for dj, y in found]
    for b, x in zip(rhs, solutions):
        if a.apply(x) != tuple(d * t for t in b):
            raise ArithmeticError(f"solution {x} of A * x = {d} * {tuple(b)} fails substitution")
    return d, solutions


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Vector | None:
    """One integer solution of A*x = b, or None: the one-column case of
    `solve_scaled` when its d is 1."""
    found = solve_scaled(a, [b])
    return found[1][0] if found is not None and found[0] == 1 else None


def lattice_membership(L: IntMatrix, v: Sequence[int]) -> bool:
    """Whether v lies in the lattice generated by the columns of L."""
    return divisibility_index(L, v) == 1


def divisibility_index(L: IntMatrix, v: Sequence[int]) -> int | None:
    """Smallest d >= 1 with d*v in the column lattice of L; None iff v is
    not even in the rational span of the columns.  d comes from the
    back-substitution shared with `solve_scaled`, against L's Hermite form
    taken without V; only `solve_scaled` forms a solution and checks it."""
    H = [list(row) for row in L.entries]
    pivots = _column_hermite((H,), L.cols)
    found = _back_substitute(H, pivots, v, L.cols)
    return None if found is None else found[0]


def kernel_basis(a: IntMatrix) -> list[Vector]:
    """Basis of the saturated lattice ker(A) in Z^cols (empty iff A injective).

    A Bareiss rank comes first, so a full-column-rank A takes no Smith
    elimination.  Otherwise K is the trailing columns of V in a Smith form
    U*A*V = D from an elimination that carries no U.  Checked: A*K = 0, and
    len(K) = cols - that rank; ArithmeticError if either fails.
    """
    rank = _bareiss([list(row) for row in a.entries], a.cols)[0]
    if rank == a.cols:
        return []
    D, _, V = _smith_elimination(a, carry_u=False)
    rho = sum(1 for i in range(min(a.rows, a.cols)) if D[i][i])
    kernel = [tuple(row[j] for row in V) for j in range(rho, a.cols)]
    if len(kernel) != a.cols - rank:
        raise ArithmeticError(f"kernel of {a} has {len(kernel)} generators, expected "
                              f"{a.cols} - rank {rank}")
    zero = (0,) * a.rows
    for j, k in enumerate(kernel, rho):
        if a.apply(k) != zero:
            raise ArithmeticError(f"A does not annihilate kernel column {j} of V for A = {a}")
    return kernel


def cokernel_invariants(a: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors > 1) of Z^rows / im(A)."""
    snf = smith_normal_form(a)
    torsion = tuple(d for d in snf.invariant_factors() if d > 1)
    return a.rows - snf.rank(), torsion


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a square integer matrix with |det| = 1.

    A square matrix is unimodular iff its column Hermite form H = A*V is
    the identity, and then V is the inverse; one Hermite form answers both.
    """
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    H, V, _ = column_hermite_normal_form(a)
    identity = IntMatrix.identity(a.rows)
    if H != identity:
        raise ShapeError("matrix is not unimodular")
    if a @ V != identity:
        raise ArithmeticError(f"Hermite transform of {a} is not its inverse")
    return V


def saturation_basis(a: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the saturation of the column lattice of A,
    i.e. of span_Q(columns) intersected with Z^rows.

    The basis is the first rho = rank(A) columns of U^-1 for the checked
    Smith form U*A*V = D.  Since A*V = U^-1*D, column i < rho of U^-1 is
    A*v_i / d_i, so no inverse is formed.  Checked: each division is exact
    and A*v_j = 0 for j >= rho; ArithmeticError otherwise.
    """
    snf = smith_normal_form(a)
    rho = snf.rank()
    images = (a @ snf.V).entries
    if any(any(row[rho:]) for row in images):
        raise ArithmeticError(f"A does not annihilate a column of V past rank {rho} "
                              f"for A = {a}")
    divisors = snf.D.diagonal_entries()[:rho]
    for i, d in enumerate(divisors):
        if any(row[i] % d for row in images):
            raise ArithmeticError(f"A * v_{i} is not divisible by d_{i} = {d} for A = {a}")
    return _built(([x // d for x, d in zip(row, divisors)] for row in images), rho)
