"""Diagonalizable subgroups of the standard torus and monomial matrices.

A closed subgroup of (K*)^m is encoded by the lattice of characters that
vanish on it (the relation lattice); the saturation of that lattice cuts
out the identity component and the torsion of its cokernel is the group
of components.  The finite linear parts that normalize the diagonal torus
are fixed here, as a modeling choice, to be monomial matrices: coordinate
permutations combined with root-of-unity scalings, the latter represented
purely by exponents in Q/Z (no cyclotomic arithmetic).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index, mul
from typing import Sequence

from .errors import HypothesisError, ShapeError
from .intlin import (
    IntMatrix,
    Vector,
    cokernel_invariants,
    gcd_transform,
    kernel_basis,
    lattice_canonical_form,
    lattice_membership,
    primitive_vector,
)

# A scalar string: "p" or "p/q" of ASCII digits, p optionally signed.  Fraction's
# parser also takes "1e-4000000", spaces and "_"; `cli.main` lifts Python's
# 4300-digit int <-> str cap, so this bound is what keeps int() cheap.
_SCALAR = re.compile(r"[+-]?[0-9]{1,4300}(/[0-9]{1,4300})?")


@dataclass(frozen=True)
class DiagonalizableSubgroup:
    """Subgroup of (K*)^ambient cut out by the column lattice of `relations`.
    Dimension, quotient and commutation tests read `canonical_relations`."""

    ambient: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows != self.ambient:
            raise ShapeError(
                f"relation lattice lives in Z^{self.relations.rows}, ambient is {self.ambient}")

    @property
    def dimension(self) -> int:
        return self.ambient - self.canonical_relations.cols

    @cached_property
    def canonical_relations(self) -> IntMatrix:
        """Canonical basis of the relation lattice, taken once per subgroup."""
        return lattice_canonical_form(self.relations)


@dataclass(frozen=True)
class WeightAction:
    """Diagonal torus action on K^m: column i is the character scaling z_i."""

    torus_rank: int
    weights: IntMatrix

    def __post_init__(self):
        if self.weights.rows != self.torus_rank:
            raise ShapeError(
                f"weight matrix has {self.weights.rows} rows, torus rank is {self.torus_rank}")


@dataclass(frozen=True)
class MonomialMatrix:
    """Permutation-plus-scaling automorphism of K^m.

    Coordinate hyperplane V(z_i) is sent to V(z_{perm[i]}); scalars[i] is the
    exponent of the root of unity scaling output coordinate i, an element of
    Q/Z stored as a Fraction in [0, 1).  Each is an int, a Fraction or a
    string "p/q" or "p" (`_SCALAR`); another string raises ValueError, a zero
    denominator ZeroDivisionError, and another type, such as float, TypeError.
    """

    perm: tuple[int, ...]
    scalars: tuple[Fraction, ...]

    def __post_init__(self):
        m = len(self.perm)
        try:
            perm = tuple(map(index, self.perm))
        except TypeError:
            perm = ()
        if sorted(perm) != list(range(m)):
            raise ShapeError(f"{self.perm} is not a permutation of 0..{m - 1}")
        object.__setattr__(self, "perm", perm)
        if len(self.scalars) != m:
            raise ShapeError("need one scalar exponent per coordinate")
        scalars = []
        for s in self.scalars:
            if isinstance(s, str):
                if not _SCALAR.fullmatch(s):
                    raise ValueError(f"scalar exponent {s!r} is not of the form p/q")
                p, _, q = s.partition("/")
                s = Fraction(int(p), int(q or 1))
            elif not isinstance(s, Fraction):
                s = Fraction(index(s))
            n, d = s.numerator, s.denominator
            scalars.append(s if 0 <= n < d else Fraction(n % d, d))
        object.__setattr__(self, "scalars", tuple(scalars))

    @property
    def size(self) -> int:
        return len(self.perm)

    def order(self) -> int:
        """The lcm, over the cycles C of perm, of |C| times the denominator of
        the sum of the scalars on C: the |C|-th power fixes C and scales each
        of its coordinates by that sum."""
        n, seen = 1, set()
        for i in range(self.size):
            length, total = 0, Fraction(0)
            while i not in seen:
                seen.add(i)
                length, total, i = length + 1, total + self.scalars[i], self.perm[i]
            if length:
                n = lcm(n, length * total.denominator)
        return n


@dataclass(frozen=True)
class HyperplanePermutationReport:
    fixes_zero_support: bool
    permutes_positive_support: bool


def _minors_relation(w: IntMatrix) -> list[int] | None:
    """W's `minors_vector` x, from the Bareiss record kept on W, checked
    nonzero with W*x = 0, else ArithmeticError."""
    x = w.kernel_minors()
    if x is not None and (not any(x) or any(w.apply(x))):
        raise ArithmeticError(f"{x} is not a nonzero kernel vector of {w}")
    return x


def subgroup_from_weights(action: WeightAction) -> DiagonalizableSubgroup:
    """Closure of the image of the torus in (K*)^m under the diagonal action,
    cut out by ker W: Z*(x / gcd(x)) if W has rank m - 1, else `kernel_basis`."""
    m = action.weights.cols
    x = _minors_relation(action.weights)
    kernel = kernel_basis(action.weights) if x is None else [primitive_vector(x)]
    return DiagonalizableSubgroup(m, IntMatrix.from_columns(kernel, rows=m))


def is_effective(action: WeightAction) -> bool:
    """Whether the weight columns generate the full character lattice of the
    torus, i.e. the action has trivial kernel.  For W of rank m - 1 with m - 1
    rows, Z^(m-1) / im W has order gcd(x), the gcd of W's maximal minors."""
    w = action.weights
    x = _minors_relation(w) if w.rows == w.cols - 1 else None
    return gcd(*x) == 1 if x is not None else cokernel_invariants(w) == (0, ())


def classify_quotient(group: DiagonalizableSubgroup) -> Vector | None:
    """Classify the quotient of K^m by a connected codimension-one subtorus.

    The invariant monomials form the rank-one lattice of characters
    vanishing on the subgroup, read off `canonical_relations` as one
    generator a; the subgroup is connected iff a is primitive, since
    Z^m / Z*a has torsion Z/gcd(a).  a is column 0 of a Hermite form, led by
    its positive pivot, so -a is never nonnegative.  If a is, the quotient
    map is the single monomial z^a: returns a.  Otherwise the quotient is a
    point (no nonconstant invariant monomial is nonnegative): returns None.
    """
    m = group.ambient
    if group.dimension != m - 1:
        raise HypothesisError(
            f"subgroup has dimension {group.dimension}, expected {m - 1}")
    gen = group.canonical_relations.column(0)
    if gcd(*gen) != 1:
        raise HypothesisError("subgroup is not connected")
    return gen if all(x >= 0 for x in gen) else None


def commutes_with_torus(g: MonomialMatrix, group: DiagonalizableSubgroup) -> bool:
    """Whether conjugation by the monomial matrix preserves the diagonal
    subgroup, i.e. its coordinate permutation maps the relation lattice to
    itself.

    This is the normalizer condition; see centralizes_torus for elementwise
    commutation, which is strictly stronger.  The rows are permuted by perm
    as given: a permutation P keeps a lattice exactly when P^-1 does.  A
    rank-one lattice Z*a is kept iff a permutes to a or -a; larger lattices
    compare Hermite forms.
    """
    if g.size != group.ambient:
        raise ShapeError("monomial matrix size does not match ambient rank")
    canonical = group.canonical_relations
    rows = tuple(canonical.entries[p] for p in g.perm)
    if canonical.cols == 1:
        return rows == canonical.entries or rows == tuple((-x,) for (x,) in canonical.entries)
    return lattice_canonical_form(IntMatrix.from_rows(rows, cols=canonical.cols)) == canonical


def centralizes_torus(g: MonomialMatrix, group: DiagonalizableSubgroup) -> bool:
    """Whether the monomial matrix commutes elementwise with the subgroup.

    Elementwise commutation forces t_{perm(i)} = t_i for every group element
    t, i.e. every comparison character e_i - e_{perm(i)} must vanish on the
    subgroup, which happens exactly when it lies in the relation lattice.
    Each test is one back-substitution against the Hermite form of
    `relations`, the one that `canonical_relations` reads, taken once.
    """
    if g.size != group.ambient:
        raise ShapeError("monomial matrix size does not match ambient rank")
    return all(lattice_membership(group.relations, [(k == i) - (k == pi) for k in range(g.size)])
               for i, pi in enumerate(g.perm) if pi != i)


def hyperplane_permutation_report(g: MonomialMatrix, exponents: Sequence[int]) -> HyperplanePermutationReport:
    """How the monomial matrix permutes coordinate hyperplanes relative to
    the support of a quotient monomial z^exponents (exponents >= 0)."""
    if len(exponents) != g.size:
        raise ShapeError("exponent vector length does not match matrix size")
    if any(a < 0 for a in exponents):
        raise HypothesisError("exponent vector must be componentwise nonnegative")
    zero = [i for i, a in enumerate(exponents) if a == 0]
    positive = {i for i, a in enumerate(exponents) if a > 0}
    return HyperplanePermutationReport(
        fixes_zero_support=all(g.perm[i] == i for i in zero),
        permutes_positive_support={g.perm[i] for i in positive} == positive,
    )


def character_root_isogeny(xi: Sequence[int], d: int) -> tuple[IntMatrix, Vector]:
    """An isogeny kappa of the torus with kappa^T * xi = d * xi0.

    Construction: a unimodular U sends xi to (g, 0, ..., 0) with g = gcd(xi);
    kappa^T = diag(d / gcd(d, g), 1, ..., 1) * U, U with its row 0 scaled,
    satisfies it with xi0 integral, and |det kappa| = d / gcd(d, g) is minimal.
    U is `gcd_transform(xi)`, which checks U*xi = (g, 0, ..., 0).  For xi = 0
    that U is the identity and g = 0, so kappa = I and xi0 = 0.
    """
    if d < 1:
        raise ValueError(f"isogeny exponent d must be >= 1, got {d}")
    r = len(xi)
    if r < 1:
        raise ShapeError("character must live in a torus of rank >= 1")
    xi = tuple(map(index, xi))
    u = gcd_transform(xi)
    factor = d // gcd(d, *xi)
    kappa_t = (tuple(factor * x for x in u.entries[0]),) + u.entries[1:]
    image = tuple(sum(map(mul, row, xi)) for row in kappa_t)
    if any(x % d for x in image):
        raise ArithmeticError(f"kappa^T * xi = {image} is not divisible by {d}")
    xi0 = tuple(x // d for x in image)
    return IntMatrix(r, r, tuple(zip(*kappa_t))), xi0


def decompose_subgroup(group: DiagonalizableSubgroup) -> tuple[int, tuple[int, ...]]:
    """(torus rank, cyclic component orders in divisibility order) of the
    decomposition into a torus times finite cyclic groups."""
    return cokernel_invariants(group.relations)
