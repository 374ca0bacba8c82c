"""Strongly convex rational polyhedral cones with exact dual descriptions.

A cone is stored by its primitive extreme rays together with an eagerly
computed dual description: facet normals (one per facet, taken inside the
cone's linear span) and the span's defining equations in Hermite form.  It
is a function of the cone alone, not of the generators the cone was built
from.  All predicates are decided exactly over the integers/rationals.
Cones are built by `cone_from_rays`; the zero cone is `cone_from_rays(rank, ())`.

There is one facet search, `dual_constraints`: brute force over the
(dim-1)-subsets of generators, which is entirely adequate at the intended
scale (at most a dozen rays).  A subset's candidate normal is its vector of
signed maximal minors divided by their gcd (`kernel_generator`, one Bareiss
elimination).  The other direction reuses the search by duality:
`cone_from_rays` reads the extreme rays off the dual description of its
generators, and `Cone.intersect` finds those of an intersection as the
facet normals of the sum of the two dual cones.

The combinatorics is read off one facet-ray incidence, the field
`Cone.facet_rays` (for each facet normal, the rays it vanishes on), which
`cone_from_rays` keeps from its extreme-ray test: a generator is extreme iff
no other lies on every facet it lies on.  Independent generators are all
extreme, with no rank and no test, and their incidence is one pass over
them per facet normal.  The faces are the
intersections of the facet ray sets (`Cone.faces` returns ray tuples and
builds no cone; `Cone.is_face_of` looks a ray set up among them), and
callers in `fans` read walls and boundary facets off the same incidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Sequence

from .errors import InvalidRayError, ShapeError, StrongConvexityError
from .intlin import (
    IntMatrix,
    Vector,
    cokernel_invariants,
    dot,
    kernel_basis,
    kernel_generator,
    lattice_canonical_form,
    primitive_vector,
    saturation_basis,
)


def dual_constraints(rank: int, generators: Sequence[Vector]) -> tuple[list[Vector], list[Vector]]:
    """Facet normals and span equations of cone(generators) in Z^rank.

    Works for arbitrary (possibly non-pointed) finitely generated cones,
    and the result is a function of the cone alone, whatever generates it.
    A facet normal is the unique primitive covector inside the cone's
    linear span that vanishes on the facet and is nonnegative on the cone;
    the normals are returned sorted.  The span equations are the Hermite
    form (`lattice_canonical_form`) of the lattice of integer covectors
    vanishing on the span.
    """
    gens = sorted({primitive_vector(g) for g in generators})
    gen_rows = IntMatrix.from_rows(gens, cols=rank)
    equations = kernel_basis(gen_rows)
    if equations:
        equations = lattice_canonical_form(IntMatrix.from_columns(equations, rows=rank)).columns()
    d = rank - len(equations)
    if d == 0:
        return [], equations

    # on a proper span with saturated basis B, a facet's normal is B*c for
    # the primitive c orthogonal to the pairings B^T g of its generators
    basis = saturation_basis(gen_rows.transpose()) if d < rank else None
    pairings = gens if basis is None else (gen_rows @ basis).entries
    normals = set()
    for subset in combinations(range(len(gens)), d - 1):
        c = kernel_generator([pairings[i] for i in subset], d)
        if c is None:
            continue
        u = c if basis is None else basis.apply(c)
        values = [sum(map(mul, u, g)) for g in gens]
        if any(values[i] for i in subset):
            raise ArithmeticError(f"candidate normal {u} is not zero on its generators")
        if min(values) >= 0:
            normals.add(u)
        elif max(values) <= 0:
            normals.add(tuple(-x for x in u))
    return sorted(normals), equations


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
    facet_rays: tuple[tuple[Vector, ...], ...]

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
        _, torsion = cokernel_invariants(IntMatrix.from_columns(self.rays, rows=self.ambient_rank))
        return not torsion

    def contains_point(self, point: Sequence) -> bool:
        """Exact membership for integer or Fraction coordinates."""
        if len(point) != self.ambient_rank:
            raise ShapeError(f"point of length {len(point)} in rank {self.ambient_rank}")
        return (all(dot(e, point) == 0 for e in self.span_equations)
                and all(dot(u, point) >= 0 for u in self.facet_normals))

    def is_face_of(self, other: Cone) -> bool:
        """Whether this cone is a face of `other`: whether its rays are the
        rays of one of the faces of `other`."""
        if self.ambient_rank != other.ambient_rank:
            raise ShapeError("cones live in different ranks")
        return frozenset(self.rays) in {frozenset(f) for f in other.faces()}

    def faces(self) -> list[tuple[Vector, ...]]:
        """The rays of every face, each face once: the cone itself first,
        then each facet in the order of the facet normals, interleaved with
        the faces it cuts out of those before it; the zero cone is ().

        Every face is an intersection of facets (Kaibel-Pfetsch), so the
        facet ray sets are closed under intersection, starting from the
        full ray set; sets are bitmasks over `rays`.
        """
        bit = {r: 1 << i for i, r in enumerate(self.rays)}
        closed = dict.fromkeys([(1 << len(self.rays)) - 1])
        for rays in self.facet_rays:
            facet = sum(bit[r] for r in rays)
            for mask in list(closed):
                closed.setdefault(mask & facet)
        return [tuple(r for r in self.rays if bit[r] & mask) for mask in closed]

    def intersect(self, other: Cone) -> Cone:
        """Exact intersection, re-extracting extreme rays.

        By duality (sigma & tau)^v = sigma^v + tau^v, and each dual is
        generated by the cone's facet normals and +-its span equations.
        The intersection is pointed, so the sum is full-dimensional, and
        its facet normals are exactly the intersection's extreme rays.
        """
        if self.ambient_rank != other.ambient_rank:
            raise ShapeError("cones live in different ranks")
        dual = [v for c in (self, other)
                for v in c.facet_normals + c.span_equations
                + tuple(tuple(-x for x in e) for e in c.span_equations)]
        rays, _ = dual_constraints(self.ambient_rank, dual)
        return cone_from_rays(self.ambient_rank, rays)


def cone_from_rays(rank: int, generators: Sequence[Sequence[int]]) -> Cone:
    """Build a strongly convex cone from integer generators.

    Generators are primitivized, deduplicated and reduced to the extreme
    rays: once one rank has shown that the cone contains no line, a
    generator is extreme iff no other generator lies on every facet that it
    lies on, by their zero sets; the generators' dual description is the
    cone's own.  As many generators as the cone's dimension are independent,
    so the cone is pointed and each is extreme, with no rank, no test and no
    zero sets: `facet_rays` is one pass over the generators per normal.  Raises
    InvalidRayError on a zero generator and StrongConvexityError if the
    generators span a cone containing a line.
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

    normals, eqs = dual_constraints(rank, gens)
    if len(gens) == rank - len(eqs):
        # independent generators, or none: the cone is pointed and each
        # generator is a ray, with no rank and no extreme-ray test
        return Cone(rank, tuple(gens), tuple(normals), tuple(eqs),
                    tuple(tuple(g for g in gens if not sum(map(mul, u, g))) for u in normals))
    constraints = IntMatrix.from_rows(normals + eqs, cols=rank)
    if constraints.rank() < rank:
        lineality = kernel_basis(constraints)
        raise StrongConvexityError(
            f"cone of {list(gens)} contains the line through {lineality[0]}")
    zeros = {g: {i for i, u in enumerate(normals) if dot(u, g) == 0} for g in gens}
    survivors = [g for g in gens
                 if not any(h != g and zeros[h] >= zeros[g] for h in gens)]
    facet_rays = tuple(tuple(g for g in survivors if i in zeros[g]) for i in range(len(normals)))
    return Cone(rank, tuple(survivors), tuple(normals), tuple(eqs), facet_rays)
