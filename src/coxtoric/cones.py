"""Strongly convex rational polyhedral cones with exact dual descriptions.

A cone is stored by its primitive extreme rays together with an eagerly
computed dual description: facet normals (one per facet, relative to the
cone's linear span) and the span's defining equations.  All predicates are
decided exactly over the integers/rationals.

Facet enumeration is brute force over (dim-1)-subsets of generators, which
is entirely adequate at the intended scale (at most a dozen rays).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InvalidRayError, ShapeError, StrongConvexityError
from .intlin import (
    IntMatrix,
    Vector,
    dot,
    kernel_basis,
    primitive_vector,
    saturation_basis,
    smith_normal_form,
    solve_integer,
)


def dual_constraints(rank: int, generators: Sequence[Vector]) -> tuple[list[Vector], list[Vector]]:
    """Facet normals and span equations of cone(generators) in Z^rank.

    Works for arbitrary (possibly non-pointed) finitely generated cones:
    a covector is a facet normal iff it is nonnegative on every generator
    and its zero set among the generators spans a hyperplane of the span.
    Normals are primitive ambient covectors, returned sorted.
    """
    gens = []
    seen = set()
    for g in generators:
        p = primitive_vector(g)
        if p not in seen:
            seen.add(p)
            gens.append(p)
    equations = kernel_basis(IntMatrix.from_rows(gens, cols=rank))
    d = rank - len(equations)
    if d == 0:
        return [], sorted(equations)

    if d == rank:
        basis = IntMatrix.identity(rank)
        coords = gens
    else:
        basis = saturation_basis(IntMatrix.from_columns(gens, rows=rank))
        coords = []
        for g in gens:
            c = solve_integer(basis, g)
            assert c is not None
            coords.append(c)

    normals = set()
    for subset in combinations(coords, d - 1):
        ker = kernel_basis(IntMatrix.from_rows(subset, cols=d))
        if len(ker) != 1:
            continue
        u = ker[0]
        values = [dot(u, c) for c in coords]
        if all(v >= 0 for v in values):
            normals.add(u)
        elif all(v <= 0 for v in values):
            normals.add(tuple(-x for x in u))

    lifted = []
    basis_t = basis.transpose()
    for u in sorted(normals):
        if d == rank:
            lifted.append(u)
        else:
            amb = solve_integer(basis_t, u)
            assert amb is not None
            lifted.append(amb)
    return sorted(lifted), sorted(equations)


def _satisfies(point: Sequence, facet_normals: Sequence[Vector], span_equations: Sequence[Vector]) -> bool:
    return (all(dot(e, point) == 0 for e in span_equations)
            and all(dot(u, point) >= 0 for u in facet_normals))


@dataclass(frozen=True, eq=False)
class Cone:
    """Strongly convex cone given by primitive extreme rays and dual data.

    Two cones are equal iff they have the same ambient rank and the same
    set of extreme rays.
    """

    ambient_rank: int
    rays: tuple[Vector, ...]
    facet_normals: tuple[Vector, ...]
    span_equations: tuple[Vector, ...]

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.ambient_rank == other.ambient_rank
                and frozenset(self.rays) == frozenset(other.rays))

    def __hash__(self):
        return hash((self.ambient_rank, frozenset(self.rays)))

    def __repr__(self):
        return f"Cone({self.ambient_rank}, {list(self.rays)})"

    @property
    def dim(self) -> int:
        return self.ambient_rank - len(self.span_equations)

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def is_smooth(self) -> bool:
        """Whether the ray generators extend to a basis of the lattice."""
        if not self.is_simplicial():
            return False
        snf = smith_normal_form(IntMatrix.from_columns(self.rays, rows=self.ambient_rank))
        return all(d == 1 for d in snf.invariant_factors())

    def contains_point(self, point: Sequence) -> bool:
        """Exact membership for integer or Fraction coordinates."""
        if len(point) != self.ambient_rank:
            raise ShapeError(f"point of length {len(point)} in rank {self.ambient_rank}")
        return _satisfies(point, self.facet_normals, self.span_equations)

    def is_face_of(self, other: Cone) -> bool:
        """Whether this cone is a face of `other`.

        True iff it sits inside `other` and equals the face of `other` cut
        out by all facet normals of `other` vanishing on it.
        """
        if self.ambient_rank != other.ambient_rank:
            raise ShapeError("cones live in different ranks")
        if not all(other.contains_point(r) for r in self.rays):
            return False
        active = [u for u in other.facet_normals
                  if all(dot(u, r) == 0 for r in self.rays)]
        face_rays = frozenset(r for r in other.rays
                              if all(dot(u, r) == 0 for u in active))
        return frozenset(self.rays) == face_rays

    def faces(self) -> list[Cone]:
        """All faces, each once; includes the zero cone and the cone itself."""
        out = []
        seen = set()
        for k in range(len(self.facet_normals) + 1):
            for subset in combinations(self.facet_normals, k):
                face_rays = tuple(r for r in self.rays
                                  if all(dot(u, r) == 0 for u in subset))
                key = frozenset(face_rays)
                if key not in seen:
                    seen.add(key)
                    out.append(cone_from_rays(self.ambient_rank, face_rays))
        return out

    def intersect(self, other: Cone) -> Cone:
        """Exact intersection, re-extracting extreme rays.

        Works in coordinates on the intersection of the two spans; every
        extreme ray of the (pointed) intersection spans the kernel of some
        (dim-1)-subset of the pooled facet constraints, so enumerating those
        kernels and keeping the one-sided ones finds exactly the rays.
        """
        if self.ambient_rank != other.ambient_rank:
            raise ShapeError("cones live in different ranks")
        rank = self.ambient_rank
        eqs = list(self.span_equations) + list(other.span_equations)
        w_basis = kernel_basis(IntMatrix.from_rows(eqs, cols=rank))
        if not w_basis:
            return zero_cone(rank)
        bmat = IntMatrix.from_columns(w_basis, rows=rank)
        dim_w = len(w_basis)
        bt = bmat.transpose()
        constraints = []
        for u in list(self.facet_normals) + list(other.facet_normals):
            pulled = bt.apply(u)
            if any(pulled) and pulled not in constraints:
                constraints.append(pulled)
        candidates = set()
        for subset in combinations(constraints, dim_w - 1):
            ker = kernel_basis(IntMatrix.from_rows(subset, cols=dim_w))
            if len(ker) != 1:
                continue
            v = ker[0]
            values = [dot(a, v) for a in constraints]
            if all(x >= 0 for x in values):
                candidates.add(v)
            elif all(x <= 0 for x in values):
                candidates.add(tuple(-y for y in v))
        rays = [bmat.apply(v) for v in sorted(candidates)]
        return cone_from_rays(rank, rays)


def zero_cone(rank: int) -> Cone:
    normals, eqs = dual_constraints(rank, [])
    return Cone(rank, (), tuple(normals), tuple(eqs))


def cone_from_rays(rank: int, generators: Sequence[Sequence[int]]) -> Cone:
    """Build a strongly convex cone from integer generators.

    Generators are primitivized, deduplicated and reduced to the extreme
    rays (a generator is extreme iff it does not lie in the cone of the
    others).  Raises InvalidRayError on a zero generator and
    StrongConvexityError if the generators span a cone containing a line.
    """
    gens: list[Vector] = []
    seen = set()
    for g in generators:
        if len(g) != rank:
            raise ShapeError(f"generator of length {len(g)} in rank {rank}")
        if not any(g):
            raise InvalidRayError(f"zero generator in rank {rank}")
        p = primitive_vector(g)
        if p not in seen:
            seen.add(p)
            gens.append(p)

    survivors = list(gens)
    for g in list(survivors):
        others = [h for h in survivors if h != g]
        normals, eqs = dual_constraints(rank, others) if others else ([], None)
        if others and _satisfies(g, normals, eqs):
            survivors.remove(g)

    normals, eqs = dual_constraints(rank, survivors)
    lineality = kernel_basis(IntMatrix.from_rows(list(normals) + list(eqs), cols=rank))
    if lineality:
        raise StrongConvexityError(
            f"cone of {list(gens)} contains the line through {lineality[0]}")
    return Cone(rank, tuple(survivors), tuple(normals), tuple(eqs))
