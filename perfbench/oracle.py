"""Exact output checks for the benchmark.

Written from first principles over plain lists of ints, so that no check
shares a code path with the `coxtoric` package it checks.  Every check
raises CheckFailed with a reason; the runner counts that op as failed.
"""

import json
from fractions import Fraction
from itertools import combinations
from math import gcd

PRIMES = (2**61 - 1, 2**31 - 1)


class CheckFailed(Exception):
    """An output of the program disagrees with the oracle."""


def require(condition, reason):
    if not condition:
        raise CheckFailed(reason)


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def apply(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a, rows=None):
    if not a:
        return [[] for _ in range(rows or 0)]
    return [list(col) for col in zip(*a)]


def _eliminate(rows, field):
    """Row-reduce a copy of `rows` over `field` (Fraction, or an int
    modulus); return (rank, product of pivots, row-swap sign)."""
    if field is Fraction:
        M = [[Fraction(x) for x in row] for row in rows]
        inv = lambda x: 1 / x
    else:
        M = [[x % field for x in row] for row in rows]
        inv = lambda x: pow(x, -1, field)
    cols = len(M[0]) if M else 0
    r, det, sign = 0, 1, 1
    for j in range(cols):
        piv = next((i for i in range(r, len(M)) if M[i][j]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        det *= M[r][j]
        scale = inv(M[r][j])
        for i in range(r + 1, len(M)):
            if M[i][j]:
                f = M[i][j] * scale
                M[i] = [u - f * v for u, v in zip(M[i], M[r])]
                if field is not Fraction:
                    M[i] = [u % field for u in M[i]]
        r += 1
    return r, det, sign


def rank(rows):
    """Exact rank over Q."""
    return _eliminate(rows, Fraction)[0]


def det(rows):
    """Exact determinant of a square matrix."""
    n = len(rows)
    r, d, sign = _eliminate(rows, Fraction)
    return int(sign * d) if r == n else 0


def full_column_rank(rows, cols):
    """Whether a matrix with `cols` columns has rank `cols`.

    Decided modulo primes: a rank modulo p is a lower bound for the rank
    over Q, and `cols` is an upper bound, so a match is exact.  Entries of
    tens of thousands of bits make rational elimination too slow here.
    """
    if cols == 0:
        return True
    return any(_eliminate(rows, p)[0] == cols for p in PRIMES)


def is_unimodular(rows):
    """Whether a square integer matrix has determinant +-1, decided modulo
    each of PRIMES: a determinant of +-1 is +-1 modulo every prime."""
    n = len(rows)
    for p in PRIMES:
        r, d, sign = _eliminate(rows, p)
        if r != n or (sign * d) % p not in (1, p - 1):
            return False
    return True


def maximal_minor_gcd(rows):
    """gcd of the r x r minors of an r x m matrix (r <= m)."""
    r = len(rows)
    m = len(rows[0]) if rows else 0
    g = 0
    for cols in combinations(range(m), r):
        g = gcd(g, det([[row[j] for j in cols] for row in rows]))
        if g == 1:
            break
    return g


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return [x // g for x in v] if g else list(v)


def kernel_generator(rows):
    """Primitive generator of the kernel of an (m-1) x m matrix of rank
    m-1: the generalized cross product of its rows."""
    m = len(rows) + 1
    return primitive([(-1) ** j * det([row[:j] + row[j + 1:] for row in rows])
                      for j in range(m)])


def fan_q_matrix(fan):
    """Q: the n x m matrix whose columns are the rays in fan order."""
    return transpose(fan["rays"], fan["rank"])


# --- pipeline_ladder ------------------------------------------------------

def _parse(out):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def check_cox(fan, code, out):
    require(code == 0, f"cox exited {code}")
    data = _parse(out)
    m, n = len(fan["rays"]), fan["rank"]
    require(data["m"] == m, "m differs from the number of rays")
    require(data["q_matrix"] == fan_q_matrix(fan), "Q is not the ray matrix")
    require(data["complement_codim"] >= 2, "complement has codimension < 2")
    if rank(fan["rays"]) == n:
        cg = data["class_group"]
        require(cg is not None and cg["free"] == m - n, "class group free rank is not m - n")
    else:
        require(data["class_group"] is None, "class group of a degenerate fan")


def check_pipeline(fan, weights, code, out):
    """The generated fans and weights satisfy every hypothesis (gen.py), so
    the answer must be `met`, with the embedding Q * W^T."""
    require(code in (0, 1), f"pipeline exited {code}")
    data = _parse(out)
    require(data["hypotheses_met"] == (code == 0), "exit code disagrees with hypotheses_met")
    require(data["hypotheses_met"], f"hypotheses not met: {data['diagnostic']}")
    expected = matmul(fan_q_matrix(fan), transpose(weights["weights"], len(fan["rays"])))
    require(data["embedding"] == expected, "embedding is not Q * W^T")


# --- lattice_ladder -------------------------------------------------------

def check_lattice(a, b, out):
    rows, cols = len(a), len(a[0])
    U, D, V = out["snf"]
    require(matmul(matmul(U, a), V) == D, "U*A*V != D")
    require(is_unimodular(U) and is_unimodular(V), "U or V is not unimodular")
    for i, row in enumerate(D):
        require(all(x == 0 for j, x in enumerate(row) if j != i), "D is not diagonal")
    diag = [D[i][i] for i in range(min(rows, cols))]
    require(all(d >= 0 for d in diag), "D has a negative entry")
    for d, e in zip(diag, diag[1:]):
        require(e % d == 0 if d else e == 0, "D is not a divisibility chain")
    rho = rank(a)
    require(sum(1 for d in diag if d) == rho, "D has the wrong rank")

    H, VH = out["hnf"]
    require(matmul(a, VH) == H, "H != A*V")
    require(is_unimodular(VH), "the HNF transform is not unimodular")

    kernel = out["kernel"]
    require(len(kernel) == cols - rho, "kernel has the wrong size")
    require(all(not any(apply(a, k)) for k in kernel), "A*k != 0")
    require(full_column_rank(transpose(kernel, cols), len(kernel)),
            "kernel vectors are linearly dependent")

    sat = out["saturation"]
    require(len(sat) == rows and all(len(r) == rho for r in sat),
            "saturation basis has the wrong shape")
    require(full_column_rank(sat, rho), "saturation rank differs from rank A")

    x = out["solution"]
    require(x is not None and apply(a, x) == list(b), "A*x != b")


# --- diag_suite -----------------------------------------------------------

def check_diag(request, out):
    if "relations" in request:
        gen = primitive(request["relations"])
    else:
        gen = kernel_generator(request["weights"])
    one_signed = all(x >= 0 for x in gen) or all(x <= 0 for x in gen)
    exponents = out["exponents"]
    require((exponents is not None) == one_signed,
            "quotient classification disagrees with the sign pattern")
    if exponents is not None:
        require(exponents == [abs(x) for x in gen], "quotient monomial is not the generator")
        require(primitive(exponents) == exponents, "quotient exponents have gcd > 1")
    kappa, xi0 = out["isogeny"]
    d = request["d"]
    require(apply(transpose(kappa), request["xi"]) == [d * x for x in xi0],
            "kappa^T * xi != d * xi0")
