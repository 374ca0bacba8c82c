"""Independent test oracles.

Everything here is deliberately written from first principles (cofactor
determinants, rational Gaussian elimination, Fourier-Motzkin elimination,
bounded brute-force search) so that it shares no code path with the
implementations it checks.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd


def det_cofactor(rows):
    """Determinant by cofactor expansion; rows is a list of lists."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def det_fraction_gauss(rows):
    """Determinant of a square matrix by Gaussian elimination over Fractions,
    for sizes past the reach of cofactor expansion."""
    M = [[Fraction(x) for x in row] for row in rows]
    n = len(M)
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if M[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            det = -det
        det *= M[j][j]
        for i in range(j + 1, n):
            f = M[i][j] / M[j][j]
            M[i] = [u - f * v for u, v in zip(M[i], M[j])]
    return int(det)


def rank_fraction_gauss(rows, cols):
    """Rank by straightforward Gaussian elimination over Fractions."""
    M = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for j in range(cols):
        piv = next((i for i in range(r, len(M)) if M[i][j]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][j] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][j]:
                M[i] = [u - M[i][j] * v for u, v in zip(M[i], M[r])]
        r += 1
    return r


def invariant_factors_by_minors(rows):
    """Invariant factors as successive quotients of gcds of k-minors."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det_cofactor(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def smith_diagonal_by_minors(rows, shape):
    """The full diagonal matrix the Smith form must equal, from the minors oracle."""
    m, n = shape
    factors = invariant_factors_by_minors(rows)
    return [[factors[i] if i == j and i < len(factors) else 0 for j in range(n)]
            for i in range(m)]


def solve_gauss(rows, rhs):
    """One exact rational solution of rows * x = rhs (free variables 0),
    or None when inconsistent."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    M = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if M[i][j]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][j] for x in M[r]]
        for i in range(m):
            if i != r and M[i][j]:
                M[i] = [u - M[i][j] * v for u, v in zip(M[i], M[r])]
        pivots.append(j)
        r += 1
    if any(M[i][n] for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(pivots):
        x[j] = M[i][n]
    return x


def inverse_fraction_gauss_jordan(rows):
    """Inverse of a square matrix by Gauss-Jordan elimination of [A | I]
    over Fractions, as lists of Fractions; None when A is singular."""
    n = len(rows)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for j in range(n):
        piv = next((i for i in range(j, n) if M[i][j]), None)
        if piv is None:
            return None
        M[j], M[piv] = M[piv], M[j]
        M[j] = [x / M[j][j] for x in M[j]]
        for i in range(n):
            if i != j and M[i][j]:
                M[i] = [u - M[i][j] * v for u, v in zip(M[i], M[j])]
    return [row[n:] for row in M]


def cone_contains_lp(point, generators):
    """Feasibility of point = sum lambda_i * g_i with lambda >= 0.

    By the conic Caratheodory theorem a member is a nonnegative combination
    of some linearly independent subfamily, so enumerating all subfamilies
    of size up to the ambient dimension and solving each exactly is a
    complete (and trivially sound) decision procedure.
    """
    n = len(point)
    if all(x == 0 for x in point):
        return True
    max_size = min(len(generators), n)
    for size in range(1, max_size + 1):
        for subset in combinations(generators, size):
            cols = [[Fraction(g[i]) for g in subset] for i in range(n)]
            lam = solve_gauss(cols, point)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def brute_lattice_member(columns, v, box=25):
    """Whether v is an integer combination of the columns, by exhaustive
    search over coefficients in [-box, box] (adequate for tiny fixtures)."""
    if not columns:
        return all(x == 0 for x in v)
    for coeffs in product(range(-box, box + 1), repeat=len(columns)):
        if all(sum(c * col[i] for c, col in zip(coeffs, columns)) == x
               for i, x in enumerate(v)):
            return True
    return False


def brute_divisibility_index(columns, v, max_d=10, box=25):
    for d in range(1, max_d + 1):
        if brute_lattice_member(columns, [d * x for x in v], box):
            return d
    return None
