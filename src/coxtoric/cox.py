"""Quotient presentations of toric varieties from fan data.

From a fan Delta with m rays this builds the standard presentation of the
variety as a quotient of an open toric subset Z of K^m: the lattice map Q
sending basis vectors to the primitive ray generators, the fan Sigma of
coordinate orthant faces with Z = Z(Sigma), and the diagonalizable kernel
subgroup H of (K*)^m cut out by the characters pulled back from the base.
Sigma is held combinatorially: the orthant face spanned by the unit vectors
e_i, i in I, is the index set I, and Sigma's maximal cones are the ray-index
sets of Delta's maximal cones.
The class-group grading of the coordinates and the minimal degree needed
to lift subtori through the quotient are computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import HypothesisError, ShapeError, ToricError
from .fans import Fan
from .groups import DiagonalizableSubgroup, WeightAction, is_effective
from .intlin import (
    IntMatrix,
    Vector,
    cokernel_invariants,
    instance_memo,
    smith_row_transform,
    solve_scaled,
)


@dataclass(frozen=True)
class ClassGroupElement:
    """Element of the grading group: a free part and residues modulo the
    torsion invariant factors (`moduli`, each > 1, in divisibility order)."""

    free_part: tuple[int, ...]
    torsion_part: tuple[int, ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        if len(self.torsion_part) != len(self.moduli):
            raise ShapeError(f"{len(self.torsion_part)} torsion residues for "
                             f"{len(self.moduli)} moduli")
        if not all(0 <= t < d for t, d in zip(self.torsion_part, self.moduli)):
            raise ShapeError(f"torsion residues {self.torsion_part} are not reduced "
                             f"modulo {self.moduli}")

    def __add__(self, other: ClassGroupElement) -> ClassGroupElement:
        if self.moduli != other.moduli or len(self.free_part) != len(other.free_part):
            raise HypothesisError("cannot add degrees from different gradings")
        return ClassGroupElement(
            tuple(a + b for a, b in zip(self.free_part, other.free_part)),
            tuple((a + b) % d for a, b, d in zip(self.torsion_part, other.torsion_part, self.moduli)),
            self.moduli)


@dataclass(frozen=True)
class CoxPresentation:
    """The data (Q, Sigma, H) presenting the variety of `delta` as a
    quotient of an open subset of K^m by the diagonalizable group H.

    `sigma` lists the maximal cones of Sigma as index sets: entry k holds
    the indices, in `delta.rays`, of the rays of `delta.max_cones[k]`.
    """

    delta: Fan
    q_matrix: IntMatrix
    sigma: tuple[tuple[int, ...], ...]
    kernel_group: DiagonalizableSubgroup

    @property
    def num_coordinates(self) -> int:
        return self.q_matrix.cols

    @instance_memo
    def _grading(self) -> tuple[IntMatrix, Vector]:
        """U and the nonzero diagonal (d_1, ..., d_rho) of the Smith form
        U * Q^T * V = D, taken once per presentation, with no V; U maps
        exponent vectors to coordinates in which the grading group is the
        product of the Z/d_i and Z^free.  rho is n iff the fan is nondegenerate.
        Q^T is H's relation matrix; H's decomposition reads only its invariant
        factors, modulo Q^T's Bareiss pivot minor, with no transform."""
        u, d = smith_row_transform(self.kernel_group.relations)
        if len(d) != self.delta.rank:
            raise HypothesisError("class group requires a nondegenerate fan")
        return u, d


@dataclass(frozen=True)
class LiftResult:
    """Diagonal weights on K^m descending to the d-th power of the wanted
    subtorus action; `effective` records whether the diagonal action of the
    lifted torus has trivial kernel."""

    weights: IntMatrix
    degree: int
    effective: bool


def cox_presentation(delta: Fan) -> CoxPresentation:
    """Build the quotient presentation of the variety of `delta`."""
    q_matrix = IntMatrix.from_columns(delta.rays, rows=delta.rank)
    sigma = tuple(delta.cone_ray_indices(mc) for mc in delta.max_cones)
    kernel_group = DiagonalizableSubgroup(len(delta.rays), q_matrix.transpose())
    return CoxPresentation(delta, q_matrix, sigma, kernel_group)


def complement_codim(p: CoxPresentation) -> int:
    """Codimension in K^m of the complement of the quotient's domain Z.

    Equals the smallest dimension of an orthant face missing from Sigma;
    when no face is missing the complement is empty and the sentinel m+1
    is returned.  No face of Sigma is larger than its largest index set, of
    size L, so the search stops at size L and answers L+1 if it finds none.
    """
    m = p.num_coordinates
    # an empty Sigma still holds the zero face, the empty index set
    face_sets = [frozenset(s) for s in p.sigma] or [frozenset()]
    largest = max(len(t) for t in face_sets)
    if largest == m:
        return m + 1
    for size in range(largest + 1):
        for subset in combinations(range(m), size):
            s = frozenset(subset)
            if not any(s <= t for t in face_sets):
                return size
    return largest + 1


def acts_freely(p: CoxPresentation) -> bool:
    """Whether the kernel group H acts freely on Z.

    The stabilizer of a point whose zero coordinates are exactly I is
    H intersected with the coordinate subtorus on I, which is trivial iff
    the relation lattice of H projects onto all of Z^I.  It suffices to
    check the index sets of the maximal cones of Sigma.
    """
    for s in p.sigma:
        projected = IntMatrix.from_rows([p.delta.rays[i] for i in s], cols=p.delta.rank)
        if cokernel_invariants(projected) != (0, ()):
            return False
    return True


def variety_is_smooth(delta: Fan) -> bool:
    """Fan-side smoothness: every maximal cone's rays extend to a basis."""
    return all(mc.is_smooth() for mc in delta.max_cones)


def class_group(p: CoxPresentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of the grading group Z^m / im(Q^T)."""
    _, d = p._grading
    return p.num_coordinates - len(d), tuple(x for x in d if x > 1)


def _degree(d: Vector, w: Vector) -> ClassGroupElement:
    """Grading-group element with Smith coordinates w = U * exponents, for
    the Smith diagonal d."""
    torsion = tuple(w[i] % x for i, x in enumerate(d) if x > 1)
    return ClassGroupElement(tuple(w[len(d):]), torsion, tuple(x for x in d if x > 1))


def degree_of_monomial(p: CoxPresentation, exponents: Sequence[int]) -> ClassGroupElement:
    """Image of a (Laurent) monomial exponent vector in the grading group,
    through the Smith change of basis; additive in the exponents."""
    m = p.num_coordinates
    if len(exponents) != m:
        raise ShapeError(f"exponent vector must have length {m}")
    u, d = p._grading
    return _degree(d, u.apply(exponents))


def ray_degrees(p: CoxPresentation) -> list[ClassGroupElement]:
    """Degrees of the m coordinate functions; they generate the grading group.
    The degree of coordinate i is read off column i of U."""
    u, d = p._grading
    return [_degree(d, w) for w in u.columns()]


def lift_subtorus(p: CoxPresentation, iota: IntMatrix) -> LiftResult:
    """Lift a subtorus of the base torus through the quotient presentation.

    `iota` is an injective n x r cocharacter matrix.  Returns weights W on
    K^m and the minimal d >= 1 with Q * W^T = d * iota: the diagonal action
    with weights W descends through the quotient to the subtorus action
    precomposed with the d-th power map.  Minimality of d is a refinement
    computed here; only existence of some such d is needed mathematically.
    d and W come from one Hermite form of Q (`solve_scaled`, which checks
    Q * W^T = d * iota); the full solution set differs from this W by ker(Q),
    i.e. by characters of H.
    """
    n = p.delta.rank
    if iota.rows != n:
        raise ShapeError(f"iota must have {n} rows")
    r = iota.cols
    if iota.rank() != r:
        raise HypothesisError("iota must be injective (full column rank)")
    solved = solve_scaled(p.q_matrix, iota.columns())
    if solved is None:
        raise ToricError("iota leaves the rational span of the rays; fan is degenerate")
    d, rows = solved
    weights = IntMatrix.from_rows(rows, cols=p.num_coordinates)
    return LiftResult(weights, d, is_effective(WeightAction(r, weights)))
