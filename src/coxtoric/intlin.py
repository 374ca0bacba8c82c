"""Exact integer linear algebra over Python's arbitrary-precision ints.

Provides the computational substrate for everything else: Smith and
(column) Hermite normal forms with unimodular transforms, kernels,
cokernel invariant factors, lattice membership, and integer linear
system solving.  No floats anywhere; rationals appear only as inputs
to membership-style predicates elsewhere.

One Smith elimination, one column Hermite elimination and one Bareiss per
`IntMatrix` instance serve every caller: each is taken on first request
and kept on the instance, frozen into tuples; two equal matrices built
separately eliminate separately.  The Bareiss record (rank, signed last
pivot, pivot columns, rows, pivot rows) gives the rank, `kernel_minors` and
the modulus of `cokernel_invariants`, whose Smith elimination modulo that
pivot minor is taken on every call and builds no transform.  An
elimination logs its operations; a transform is the log replayed onto just
what the caller reads.  Membership, divisibility index, integer solving and
inversion are one back-substitution per right-hand side against one column
Hermite form.
Results are certified by explicit checks that raise ArithmeticError:
`smith_normal_form` checks U*A*V = D, `gcd_transform` U*v = (gcd(v), 0, ..., 0)
(all of U*A*V = D for one column), `smith_row_transform` that U induces an
isomorphism of the cokernel, `cokernel_invariants` replays its log onto
A mod D and compares the result with the diagonal, and checks that each 2x2
step is unimodular, that there are as many factors as the Bareiss rank, that
they form a divisibility chain, that their product divides D and, for D > 1,
B_P*X = +-D*I by substitution for the pivot minor B_P and its scaled inverse X,
`kernel_basis` checks A*K = 0 and the kernel's rank against the Bareiss rank,
`saturation_basis` checks |det U^-1| = 1 and two Bareiss ranks, `solve_scaled`
checks every column of its solution by substitution (A*X = I for
`invert_unimodular`), and `groups` checks x != 0 and A*x = 0 for each
`kernel_minors` x it reads.  Each check runs on every call, whether the
elimination was kept or taken anew.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from operator import index, mul
from typing import Iterable, Sequence

from .errors import InvalidRayError, ShapeError

Vector = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    """Inner product; works for int and Fraction entries alike."""
    if len(u) != len(v):
        raise ShapeError(f"dot of length {len(u)} with length {len(v)}")
    return sum(map(mul, u, v))


def primitive_vector(v: Sequence[int]) -> Vector:
    """Divide v by the (positive) gcd of its entries, keeping direction; a
    primitive tuple of plain ints (no bools) is returned as it is."""
    g = gcd(*v)
    if g == 0:
        raise InvalidRayError("zero vector has no primitive representative")
    if g == 1 and type(v) is tuple and {*map(type, v)} == {int}:
        return v
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
        entries = tuple(tuple(map(index, row)) for row in rows)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        return IntMatrix(len(entries), cols, entries)

    @staticmethod
    def from_columns(cols: Iterable[Sequence[int]], rows: int | None = None) -> IntMatrix:
        columns = [tuple(map(index, c)) for c in cols]
        if rows is None:
            rows = len(columns[0]) if columns else 0
        for j, c in enumerate(columns):
            if len(c) != rows:
                raise ShapeError(f"column {j} has length {len(c)}, expected {rows}")
        return _built(zip(*columns) if columns else [()] * rows, len(columns))

    @staticmethod
    def identity(n: int) -> IntMatrix:
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

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

    # Each elimination is taken once per instance, on first request, and
    # kept frozen into tuples so that no caller can change another's.
    @cached_property
    def _echelon(self) -> tuple[int, int, tuple[int, ...], tuple[Vector, ...], tuple[int, ...]]:
        """The Bareiss record: (rank, signed last pivot, pivot columns, rows,
        pivot rows), the last the indices in A of the rows that hold a pivot."""
        M = [list(row) for row in self.entries]
        order = list(range(self.rows))
        rank, last, pivots = _bareiss(M, self.cols, order)
        return rank, last, tuple(pivots), tuple(map(tuple, M)), tuple(order[:rank])

    @cached_property
    def _smith(self) -> tuple[tuple[Vector, ...], tuple, tuple]:
        D, rows, cols = _smith_elimination(self)
        return tuple(map(tuple, D)), tuple(rows), tuple(cols)

    @cached_property
    def _hermite(self) -> tuple[tuple[Vector, ...], tuple, tuple]:
        H, pivots, log = _column_hermite(self)
        return tuple(map(tuple, H)), tuple(pivots), tuple(log)

    def rank(self) -> int:
        """Rank by fraction-free (Bareiss) elimination, independent of SNF."""
        return self._echelon[0]

    def kernel_minors(self) -> list[int] | None:
        """`minors_vector` of the rows, back-substituted from the Bareiss
        record kept on the instance."""
        return _minors(*self._echelon[:4], self.cols)


def _built(rows: Iterable[Iterable[int]], cols: int) -> IntMatrix:
    """IntMatrix of int rows this module computed or converted; unlike
    `from_rows`, no index()."""
    entries = tuple(map(tuple, rows))
    return IntMatrix(len(entries), cols, entries)


def _bareiss(M: list[list[int]], cols: int, order: list | None = None) -> tuple[int, int, list[int]]:
    """Fraction-free (Bareiss) row elimination of the row lists M, in place.

    Returns (rank, signed last pivot, pivot columns).  Afterwards row r
    holds its pivot in column pivots[r] and is exact to the right of it;
    entries to the left of a pivot are left uncleared.  When M is square of
    full rank the signed last pivot is its determinant; it is 1 when there
    are no pivots.  A list `order` is swapped along with the rows of M.
    """
    m = len(M)
    pivots: list[int] = []
    r = 0
    prev = sign = 1
    for j in range(cols):
        if r == m:
            break
        for i in range(r, m):
            if M[i][j]:
                break
        else:
            continue
        if i != r:
            M[r], M[i] = M[i], M[r]
            if order is not None:
                order[r], order[i] = order[i], order[r]
            sign = -sign
        top = M[r]
        piv = top[j]
        for row in M[r + 1:]:
            a = row[j]
            for k in range(j + 1, cols):
                # exact by the Sylvester determinant identity
                row[k] = (row[k] * piv - a * top[k]) // prev
        prev = piv
        pivots.append(j)
        r += 1
    return r, sign * prev, pivots


def minors_vector(rows: Sequence[Sequence[int]], cols: int) -> list[int] | None:
    """Unreduced x spanning ker(A) over Q when A, given by its rows, has rank
    cols-1, else None: for A of shape (cols-1) x cols, +-its signed maximal
    minors, so gcd(x) is the order of Z^(cols-1) / im A (Cohen 1993, 2.4).
    The free entry is the last Bareiss pivot, +-the minor on the pivot
    columns, so by Cramer's rule the back-substitution divides exactly."""
    M = [list(row) for row in rows]
    return _minors(*_bareiss(M, cols), M, cols)


def _minors(rank: int, last: int, pivots: Sequence[int], M: Sequence[Sequence[int]],
            cols: int) -> list[int] | None:
    """`minors_vector`'s back-substitution from a Bareiss record of A."""
    if rank != cols - 1:
        return None
    x = [0] * cols
    x[next(j for j in range(cols) if j not in pivots)] = last
    return _fill_pivots(M, pivots, x)


def _fill_pivots(M: Sequence[Sequence[int]], pivots: Sequence[int], x: list[int]) -> list[int]:
    """Set the pivot entries of x, in place and from the last up, so that every
    Bareiss row of M is zero on x, given its other entries; return x.  Each
    division is exact when such an integer x exists, as by Cramer's rule."""
    for r in reversed(range(len(pivots))):
        p = pivots[r]
        row = M[r]
        x[p] = -sum(map(mul, row[p + 1:], x[p + 1:])) // row[p]
    return x


def _scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]] | None:
    """(c, columns of X) with M*X = c*I and c = det M, for the rows of a square
    M, or None if M is singular.  One `_bareiss` of [M | I]; column j of X is
    the kernel vector of [M | I] whose right half is -c*e_j, back-substituted
    exactly because X = c*M^-1 is the adjugate of M (Bareiss 1968)."""
    n = len(rows)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _, last, pivots = _bareiss(M, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return last, [_fill_pivots(M, pivots, [0] * (n + j) + [-last] + [0] * (n - 1 - j))[:n]
                  for j in range(n)]


def kernel_generator(rows: Sequence[Sequence[int]], cols: int) -> Vector | None:
    """Primitive generator of ker(A) in Z^cols when that kernel has rank 1,
    else None: `minors_vector` divided by its gcd."""
    x = minors_vector(rows, cols)
    return None if x is None else primitive_vector(x)


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


def _row_op(M, op):
    """Apply one operation to the rows of the row lists M, in place; return it.
    (t, j, q): row_j -= q*row_t; (t, j, x, y, p, q) with x*p + y*q = 1: rows
    (t, j) <- (x*row_t + y*row_j, p*row_j - q*row_t); (i, j): swap; (i,): negate."""
    if len(op) == 3:
        t, j, q = op
        M[j] = [a - q * b for a, b in zip(M[j], M[t])]
    elif len(op) == 6:
        t, j, x, y, p, q = op
        M[t], M[j] = ([x * a + y * b for a, b in zip(M[t], M[j])],
                      [p * b - q * a for a, b in zip(M[t], M[j])])
    elif len(op) == 2:
        i, j = op
        M[i], M[j] = M[j], M[i]
    else:
        (i,) = op
        M[i] = [-x for x in M[i]]
    return op


def _col_op(M, op):
    """`_row_op`'s operation on the columns of M instead of its rows."""
    if len(op) == 3:
        t, j, q = op
        for row in M:
            row[j] -= q * row[t]
    elif len(op) == 6:
        t, j, x, y, p, q = op
        for row in M:
            a, b = row[t], row[j]
            row[t], row[j] = x * a + y * b, p * b - q * a
    elif len(op) == 2:
        i, j = op
        for row in M:
            row[i], row[j] = row[j], row[i]
    else:
        (i,) = op
        for row in M:
            row[i] = -row[i]
    return op


def _clearing_op(a: int, b: int, t: int, j: int) -> tuple[int, ...]:
    """The operation zeroing entry b of line j against pivot a of line t: when
    a divides b, a subtraction, which leaves line t untouched so that the
    alternating reduction in `_smith_elimination` terminates."""
    if a and b % a == 0:
        return t, j, b // a
    g, x, y = _xgcd(a, b)
    return t, j, x, y, a // g, b // g


def _replay(log, M: list[list[int]], how: str = "") -> list[list[int]]:
    """Replay logged operations G_1, ..., G_k onto the columns of the row
    lists M, in place; return M.  A column log gives V = G_1^T*...*G_k^T and
    a row log U = G_k*...*G_1 (`_col_op` applies G as M <- M*G^T, `_row_op`
    as M <- G*M), so forward onto the identity a log gives V, or U^T.  In
    reverse, how="T" gives M <- M*G_k*...*G_1 (each row v of M becomes V*v)
    and how="inv" M <- M*G_k^-T*...*G_1^-T, (U^-1)^T from the identity."""
    for op in reversed(log) if how else log:
        if how and len(op) == 3:
            t, j, q = op
            op = (j, t, q) if how == "T" else (t, j, -q)
        elif how and len(op) == 6:
            t, j, x, y, p, q = op
            op = (t, j, x, -q, p, -y) if how == "T" else (t, j, p, -y, x, -q)
        _col_op(M, op)
    return M


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _smith_elimination(a: IntMatrix, modulus: int = 0):
    """The gcd-driven diagonalization behind every Smith form, on row lists:
    (D, rows, cols), D = U*A*V and the row and column logs of U and V; run
    once per instance, through `IntMatrix._smith`.
    Pivots are chosen by minimal absolute value; whenever the current pivot
    fails to divide an entry of the remaining block, that entry's row is
    folded into the pivot row, which makes the resulting diagonal satisfy
    the divisibility chain without a separate fix-up pass.
    With a modulus, for `cokernel_invariants`, every entry is reduced into
    [0, modulus) at the start and after each operation, so D = U*A*V holds
    modulo it and no entry outgrows it; a pivot then stays in (0, modulus).
    """
    m, n = a.rows, a.cols
    M = [[x % modulus for x in row] if modulus else list(row) for row in a.entries]
    rows: list[tuple[int, ...]] = []
    cols: list[tuple[int, ...]] = []
    for t in range(min(m, n)):
        best, least = None, 0
        for i in range(t, m):
            for j, x in enumerate(M[i][t:], t):
                if x and (not least or abs(x) < least):
                    best, least = (i, j), abs(x)
            if least == 1:
                break
        if best is None:
            break
        if best[0] != t:
            rows.append(_row_op(M, (t, best[0])))
        if best[1] != t:
            cols.append(_col_op(M, (t, best[1])))
        while True:
            for i in range(t + 1, m):
                if M[i][t]:
                    rows.append(_row_op(M, _clearing_op(M[t][t], M[i][t], t, i)))
                    if modulus:
                        _reduce_lines(M, rows[-1], modulus)
            for j in range(t + 1, n):
                if M[t][j]:
                    cols.append(_col_op(M, _clearing_op(M[t][t], M[t][j], t, j)))
                    if modulus:
                        _reduce_lines(M, cols[-1], modulus, by_columns=True)
            if any(M[i][t] for i in range(t + 1, m)):
                continue
            piv = M[t][t]
            bad = None if abs(piv) == 1 else next(
                (i for i in range(t + 1, m) if any(M[i][j] % piv for j in range(t + 1, n))), None)
            if bad is None:
                break
            rows.append(_row_op(M, (bad, t, -1)))
            if modulus:
                _reduce_lines(M, rows[-1], modulus)
        if M[t][t] < 0:
            rows.append(_row_op(M, (t,)))
    return M, rows, cols


def _reduce_lines(M, op, modulus: int, by_columns: bool = False) -> None:
    """Reduce into [0, modulus) the rows, or columns, of the row lists M that
    the subtraction or 2x2 step op changed: line j, or lines t and j."""
    changed = op[1:2] if len(op) == 3 else op[:2]
    if by_columns:
        for row in M:
            for j in changed:
                row[j] %= modulus
    else:
        for i in changed:
            M[i] = [x % modulus for x in M[i]]


def _row_transform(rows, m: int) -> IntMatrix:
    """U = G_k*...*G_1 of a row log on m rows: the log replayed forward onto
    the identity gives U^T, whose columns are the rows of U."""
    return _built(zip(*_replay(rows, _identity_rows(m))), m)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with both transforms, each its log replayed forward;
    U*A*V = D is checked and an ArithmeticError raised if it fails."""
    m, n = a.rows, a.cols
    D, rows, cols = a._smith
    result = SnfResult(_row_transform(rows, m), _built(D, n),
                       _built(_replay(cols, _identity_rows(n)), n))
    if result.U @ a @ result.V != result.D:
        raise ArithmeticError(f"Smith form of {a} fails U * A * V = D")
    return result


def gcd_transform(v: Sequence[int]) -> IntMatrix:
    """Unimodular U with U*v = (g, 0, ..., 0), g = gcd(v) >= 0: the U of the
    Smith form of v as one column, the one `smith_normal_form` builds from
    the same row log, without V, D or their products.  A column takes no
    column operation, so V = [1] and D = (g, 0, ..., 0)^T, and the check
    U*v = (g, 0, ..., 0), with g from `math.gcd`, is all of U*A*V = D;
    ArithmeticError if it fails."""
    v = tuple(map(index, v))
    a = _built([(x,) for x in v], 1)
    u = _row_transform(a._smith[1], a.rows)
    target = ((gcd(*v),) + (0,) * a.rows)[:a.rows]
    if u.apply(v) != target:
        raise ArithmeticError(f"U = {u} does not send {v} to {target}")
    return u


def smith_row_transform(a: IntMatrix) -> tuple[IntMatrix, Vector]:
    """(U, (d_1, ..., d_rho)): the U and the nonzero diagonal of A's Smith form
    U*A*V = D, U its row log replayed as in `gcd_transform`, with no V or D
    built.  U is certified as far as a grading reads it, with no V: the map
    x -> (row i of U*x mod d_i for each d_i > 1, rows rho, ... of U*x) is well
    defined on Z^rows / im(A), as rows rho, ... of U*A are zero and row i is
    divisible by d_i; it is onto, as those rows of U (mod d_i) with the
    d_i*e_i have trivial `cokernel_invariants`; and rows - rho with the
    d_i > 1 are `cokernel_invariants(A)`, so it is an isomorphism.  Rows with
    d_i = 1 are not read, and |det U| = 1 is not shown: a Bareiss of U takes
    seconds once its entries reach 10^4 bits.  ArithmeticError if a check fails."""
    D, rows, _ = a._smith
    d = tuple(x for x in (D[i][i] for i in range(min(a.rows, a.cols))) if x)
    u = _row_transform(rows, a.rows)
    ua = (u @ a).entries
    if any(map(any, ua[len(d):])) or any(x % di for row, di in zip(ua, d) for x in row):
        raise ArithmeticError(f"U * A is not zero past row {len(d)} and divisible by "
                              f"the diagonal {d} above it, for A = {a}")
    if cokernel_invariants(a) != (a.rows - len(d), tuple(x for x in d if x > 1)):
        raise ArithmeticError(f"diagonal {d} is not the cokernel of {a}")
    read = [i for i in range(a.rows) if i >= len(d) or d[i] > 1]
    moduli = [i for i in read if i < len(d)]
    onto = [[x % d[i] if i < len(d) else x for x in u.entries[i]]
            + [d[i] if i == k else 0 for k in moduli] for i in read]
    if read and cokernel_invariants(_built(onto, a.rows + len(moduli))) != (0, ()):
        raise ArithmeticError(f"U does not map Z^{a.rows} onto the cokernel of {a}")
    return u, d


def _column_hermite(a: IntMatrix):
    """Column Hermite reduction of A on row lists: (H, pivots, log), H = A*V
    with its (row, column) pivots and the column log of V; run once per
    instance, through `IntMatrix._hermite`."""
    M, n = [list(row) for row in a.entries], a.cols
    pivots: list[tuple[int, int]] = []
    log: list[tuple[int, ...]] = []
    c = 0
    for i in range(len(M)):
        if c >= n:
            break
        j0 = next((j for j in range(c, n) if M[i][j]), None)
        if j0 is None:
            continue
        if j0 != c:
            log.append(_col_op(M, (c, j0)))
        for j in range(c + 1, n):
            if M[i][j]:
                log.append(_col_op(M, _clearing_op(M[i][c], M[i][j], c, j)))
        if M[i][c] < 0:
            log.append(_col_op(M, (c,)))
        piv = M[i][c]
        for j in range(c):
            q = M[i][j] // piv
            if q:
                log.append(_col_op(M, (c, j, q)))
        pivots.append((i, c))
        c += 1
    return M, tuple(pivots), log


def column_hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, tuple[tuple[int, int], ...]]:
    """Column-style Hermite normal form (H, V, pivots): H = A*V with V
    unimodular, V its log replayed forward, and the (row, column) pivots.

    H is in column echelon form with positive pivots; entries to the left
    of a pivot in its row are reduced into [0, pivot).  The nonzero columns
    of H are a canonical basis of the column lattice of A, so equality of
    column lattices can be decided by comparing these forms.
    """
    H, pivots, log = a._hermite
    return _built(H, a.cols), _built(_replay(log, _identity_rows(a.cols)), a.cols), pivots


def lattice_canonical_form(a: IntMatrix) -> IntMatrix:
    """Canonical basis matrix of the column lattice of A (zero columns dropped):
    the Hermite form's pivot columns, which are its leading ones."""
    H, pivots, _ = a._hermite
    return _built([row[:len(pivots)] for row in H], len(pivots))


def _back_substitute(H: Sequence[Sequence[int]], b: Sequence[int], cols: int):
    """Least d >= 1 and integer y, zero off the pivot columns, with H*y = d*b
    for the rows H of a column echelon form, as (d, y); None off the span of H.
    Row i's pivot is its entry in column len(y), the number of pivots above;
    ValueError if the row is nonzero past it.  A pivot that fails to divide its
    row's remainder r scales d and y by |piv| / gcd(r, piv), the least factor."""
    if len(b) != len(H):
        raise ShapeError(f"vector of length {len(b)} for a lattice in Z^{len(H)}")
    d = 1
    y: list[int] = []
    for i, row in enumerate(H):
        c = len(y)
        if any(row[c + 1:]):
            raise ValueError(f"row {i} of a basis is nonzero past column {c}: not column echelon")
        r = d * b[i] - sum(map(mul, row, y))
        if c == cols or not row[c]:
            if r:
                return None
            continue
        piv = row[c]
        if r % piv:
            s = abs(piv) // gcd(r, piv)
            d, r = d * s, r * s
            y = [s * x for x in y]
        y.append(r // piv)
    return d, y + [0] * (cols - len(y))


def solve_scaled(a: IntMatrix, rhs: Sequence[Sequence[int]]) -> tuple[int, list[Vector]] | None:
    """Least d >= 1 with d*b_j in the column lattice of A for every column b_j
    of `rhs`, and solutions x_j of A*x_j = d*b_j; None if some b_j is off the
    rational span.  One Hermite elimination H = A*V serves every b_j:
    H*y_j = d_j*b_j for its back-substitution y_j, so x_j = V*((d/d_j)*y_j),
    V's log replayed onto y_j.  Each x_j is verified by substitution."""
    H, _, log = a._hermite
    found = [_back_substitute(H, b, a.cols) for b in rhs]
    if None in found:
        return None
    d = lcm(*(dj for dj, _ in found))
    scaled = [[d // dj * t for t in y] for dj, y in found]
    solutions = list(map(tuple, _replay(log, scaled, "T")))
    for b, x in zip(rhs, solutions):
        if a.apply(x) != tuple(d * t for t in b):
            raise ArithmeticError(f"solution {x} of A * x = {d} * {tuple(b)} fails substitution")
    return d, solutions


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Vector | None:
    """One integer solution of A*x = b, or None: `solve_scaled` at one column and d = 1."""
    found = solve_scaled(a, [b])
    return found[1][0] if found is not None and found[0] == 1 else None


def lattice_membership(L: IntMatrix, v: Sequence[int]) -> bool:
    """Whether v lies in the lattice generated by the columns of L."""
    return divisibility_index(L, v) == 1


def divisibility_index(L: IntMatrix, v: Sequence[int]) -> int | None:
    """Smallest d >= 1 with d*v in the column lattice of L; None iff v is not even
    in the rational span of the columns.  d comes from the back-substitution shared
    with `solve_scaled`, against L's Hermite form, whose column log is not read."""
    H = L._hermite[0]
    found = _back_substitute(H, v, L.cols)
    return None if found is None else found[0]


def kernel_basis(a: IntMatrix) -> list[Vector]:
    """Basis of the saturated lattice ker(A) in Z^cols (empty iff A injective).

    A Bareiss rank comes first, so a full-column-rank A takes no Smith
    elimination.  Otherwise K is the columns rho, ... of V in a Smith form
    U*A*V = D, V's log replayed onto e_rho, ....  Checked: A*K = 0, and
    len(K) = cols - that rank; ArithmeticError if either fails.
    """
    n = a.cols
    rank = a._echelon[0]
    if rank == n:
        return []
    D, _, cols = a._smith
    rho = sum(1 for i in range(min(a.rows, n)) if D[i][i])
    kernel = list(map(tuple, _replay(cols, _identity_rows(n)[rho:], "T")))
    if len(kernel) != n - rank:
        raise ArithmeticError(f"kernel of {a} has {len(kernel)} generators, not {n} - {rank}")
    zero = (0,) * a.rows
    for j, k in enumerate(kernel, rho):
        if a.apply(k) != zero:
            raise ArithmeticError(f"A does not annihilate kernel column {j} of V for A = {a}")
    return kernel


def cokernel_invariants(a: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors > 1) of Z^rows / im(A).

    B is A, or A^T, whichever has full row rank r, by A's Bareiss record; a
    transpose keeps the nonzero invariant factors.  D = |signed last pivot|
    is the r x r minor of B on the pivot lines, so D*Z^r lies in the column
    lattice L(B) by Cramer's rule and L(B) = L(B) + D*Z^r: B's Smith
    elimination runs modulo D, with no transform, and its factors are
    gcd(d_i, D) (Hafner & McCurley 1991; Cohen 1993, 2.4), each certified by
    `_modular_factors`.  At D = 1, L(B) = Z^r and every factor is 1, so there
    is nothing to eliminate.  A matrix that is rank-deficient both ways takes
    `smith_normal_form`, with its U*A*V = D check.
    """
    rank, last, pivots, _, pivot_rows = a._echelon
    if rank != a.rows and rank != a.cols:
        snf = smith_normal_form(a)
        return a.rows - snf.rank(), tuple(d for d in snf.invariant_factors() if d > 1)
    modulus = abs(last)
    if modulus == 1:
        return a.rows - rank, ()
    b, lines = (a, pivots) if rank == a.rows else (a.transpose(), pivot_rows)
    factors = _modular_factors(b, rank, modulus, _smith_elimination(b, modulus), lines)
    return a.rows - rank, tuple(f for f in factors if f > 1)


def _replay_modulo(lines: list[list[int]], log, modulus: int) -> None:
    """Apply a logged row log to the rows `lines` modulo `modulus`, in place,
    by its own arithmetic (a column log applies to the columns of a matrix
    as lines); ArithmeticError if a 2x2 step (t, j, x, y, p, q) has
    x*p + y*q != 1, so that it is not unimodular."""
    for op in log:
        if len(op) == 3:
            t, j, q = op
            lines[j] = [(u - q * v) % modulus for u, v in zip(lines[j], lines[t])]
        elif len(op) == 6:
            t, j, x, y, p, q = op
            if x * p + y * q != 1:
                raise ArithmeticError(f"step {op} of a Smith elimination is not unimodular")
            lines[t], lines[j] = ([(x * u + y * v) % modulus for u, v in zip(lines[t], lines[j])],
                                  [(p * v - q * u) % modulus for u, v in zip(lines[t], lines[j])])
        elif len(op) == 2:
            i, j = op
            lines[i], lines[j] = lines[j], lines[i]
        else:
            (i,) = op
            lines[i] = [-u % modulus for u in lines[i]]


def _modular_factors(b: IntMatrix, rank: int, modulus: int, elimination,
                     pivot_lines: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors gcd(d_i, modulus) of B, of full row rank r >= 1,
    from its Smith elimination (D, rows, cols) modulo the r x r minor `modulus`
    on the columns `pivot_lines`, certified with no call to `_row_op` or `_col_op`:
    the row log, then the column log, replayed onto B mod `modulus` give
    diag(d_1, ..., d_r), each 2x2 step unimodular; there are as many factors as
    the Bareiss rank; they form a divisibility chain; their product divides
    `modulus`; and B_P*X = +-modulus*I by substitution, for the submatrix B_P
    of B on `pivot_lines` and X from `_scaled_inverse`, so that modulus*Z^r lies in
    the column lattice of B.  ArithmeticError if any check fails."""
    D, rows, cols = elimination
    d = [D[i][i] for i in range(b.rows)]
    lines = [[x % modulus for x in row] for row in b.entries]
    _replay_modulo(lines, rows, modulus)
    lines = [list(column) for column in zip(*lines)]
    _replay_modulo(lines, cols, modulus)
    if lines != [[d[i] if i == j else 0 for i in range(b.rows)] for j in range(b.cols)]:
        raise ArithmeticError(f"the log of {b}'s Smith elimination modulo {modulus} "
                              f"does not give the diagonal {d}")
    factors = tuple(gcd(x, modulus) for x in d)
    if len(factors) != rank:
        raise ArithmeticError(f"{len(factors)} invariant factors for Bareiss rank {rank}")
    if any(g % f for f, g in zip(factors, factors[1:])):
        raise ArithmeticError(f"invariant factors {factors} fail the divisibility chain")
    if modulus % prod(factors):
        raise ArithmeticError(f"invariant factors {factors} do not divide the minor {modulus}")
    minor = [[row[j] for j in pivot_lines] for row in b.entries]
    found = _scaled_inverse(minor)
    if found is None or abs(found[0]) != modulus or any(
            [dot(row, x) for row in minor] != [found[0] * (i == j) for i in range(rank)]
            for j, x in enumerate(found[1])):
        raise ArithmeticError(f"columns {tuple(pivot_lines)} of {b} do not give {modulus} * I: "
                              f"{modulus} * Z^{rank} is not shown to lie in its column lattice")
    return factors


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a square integer matrix with |det| = 1: the solution X
    of A*X = I by `solve_scaled`, whose substitution check is A*X = I.  A square
    matrix is unimodular iff that solve succeeds with d = 1."""
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    found = solve_scaled(a, _identity_rows(a.rows))
    if found is None or found[0] != 1:
        raise ShapeError("matrix is not unimodular")
    return _built(zip(*found[1]), a.cols)


def saturation_basis(a: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the saturation of the column lattice of A,
    i.e. of span_Q(columns) intersected with Z^rows.

    The basis B is the first rho = rank(A) columns of W = U^-1 for the
    Smith form U*A*V = D, U's log replayed inverted.  Checked, independently
    of the elimination: |det W| = 1, so B spans a saturated lattice of rank
    rho; the Bareiss rank of A is rho; and if rho < rows, rank [B | A] = rho,
    so B spans span_Q(A).  ArithmeticError otherwise.
    """
    m, n = a.rows, a.cols
    D, rows, _ = a._smith
    rho = sum(1 for i in range(min(m, n)) if D[i][i])
    Wt = _replay(rows, _identity_rows(m), "inv")
    basis = [[column[i] for column in Wt[:rho]] for i in range(m)]
    rank, det, _ = _bareiss(Wt, m)
    if rank != m or abs(det) != 1:
        raise ArithmeticError(f"U^-1 of the Smith form of {a} is not unimodular")
    if a._echelon[0] != rho:
        raise ArithmeticError(f"Smith form of {a} has rank {rho}, not its Bareiss rank")
    if rho < m and _bareiss([b + list(r) for b, r in zip(basis, a.entries)], rho + n)[0] != rho:
        raise ArithmeticError(f"the first {rho} columns of U^-1 miss the span of {a}")
    return _built(basis, rho)
