"""Independent test oracles.

Everything here is deliberately written from first principles (cofactor
determinants, rational Gaussian elimination, Fourier-Motzkin elimination,
bounded brute-force search) so that it shares no code path with the
implementations it checks.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm


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


def kernel_fraction_gauss(rows, cols):
    """Basis of the rational kernel {x in Q^cols : rows * x = 0}, one vector
    per free column of the reduced row echelon form over Fractions."""
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for j in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][j]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][j] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][j]:
                M[i] = [u - M[i][j] * v for u, v in zip(M[i], M[r])]
        pivots.append(j)
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        x = [Fraction(0)] * cols
        x[free] = Fraction(1)
        for i, j in enumerate(pivots):
            x[j] = -M[i][free]
        basis.append(x)
    return basis


def primitive_integer(v):
    """The primitive integer vector on the ray of a nonzero rational vector."""
    scale = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _pairing(u, v):
    return sum(a * b for a, b in zip(u, v))


def distinct_primitive(generators):
    """The generators made primitive, each once, in order of first appearance."""
    return list(dict.fromkeys(primitive_integer(g) for g in generators))


def facets_by_subset_search(rank, generators):
    """(sorted facet normals, the rational span's complement) of the cone of
    nonzero integer generators in Z^rank, by brute force over the (d-1)-subsets
    of the distinct primitive generators, d the span's dimension.  A subset
    whose generators, with the complement, leave a one-dimensional kernel
    gives a candidate: the primitive covector in the span vanishing on the
    subset.  It is a facet normal, up to sign, when it has one sign on every
    generator."""
    gens = distinct_primitive(generators)
    complement = kernel_fraction_gauss(gens, rank)
    d = rank - len(complement)
    normals = set()
    for subset in combinations(gens, d - 1) if d else ():
        kernel = kernel_fraction_gauss(list(subset) + complement, rank)
        if len(kernel) != 1:
            continue
        u = primitive_integer(kernel[0])
        values = [_pairing(u, g) for g in gens]
        if all(v >= 0 for v in values):
            normals.add(u)
        elif all(v <= 0 for v in values):
            normals.add(tuple(-x for x in u))
    return sorted(normals), complement


def cone_by_subset_search(rank, generators):
    """(extreme rays, facet normals, facet rays) of the cone of nonzero integer
    generators, or None when it contains a line, from `facets_by_subset_search`.
    The cone contains a line iff its normals and its span's complement have
    rank < rank (the lineality space is their common kernel); in a pointed
    cone a generator is extreme iff the normals vanishing on it, with the
    complement, have rank rank - 1.  Rays keep the generators' order, and a
    facet's rays are those its normal vanishes on."""
    gens = distinct_primitive(generators)
    normals, complement = facets_by_subset_search(rank, gens)
    if rank_fraction_gauss(normals + complement, rank) < rank:
        return None
    rays = [g for g in gens
            if rank_fraction_gauss([u for u in normals if _pairing(u, g) == 0] + complement,
                                   rank) == rank - 1]
    return rays, normals, [tuple(r for r in rays if _pairing(u, r) == 0) for u in normals]


def is_hermite_basis_of_the_annihilator(columns, generators, rank):
    """Whether the columns are the column Hermite form of the lattice of
    integer covectors vanishing on the generators: as many as the span's
    complement has dimension, each vanishing on every generator, with maximal
    minors of gcd 1, so that they span that saturated lattice; and in column
    echelon form, each column's first nonzero entry (its pivot) positive, in a
    row below the last column's pivot, with the entries left of it in its row
    in [0, pivot).  The Hermite form of a lattice is unique."""
    e = len(kernel_fraction_gauss(generators, rank))
    if len(columns) != e or any(_pairing(c, g) for c in columns for g in generators):
        return False
    rows = [[c[i] for c in columns] for i in range(rank)]
    g = 0
    for chosen in combinations(rows, e):
        g = gcd(g, det_cofactor([list(r) for r in chosen]))
    if g != 1:
        return False
    last = -1
    for k, c in enumerate(columns):
        p = next((i for i, x in enumerate(c) if x), None)
        if p is None or p <= last or c[p] < 0 or not all(0 <= columns[j][p] < c[p]
                                                         for j in range(k)):
            return False
        last = p
    return True
