"""Strongly convex rational polyhedral cones with exact dual descriptions.

A cone is stored by its primitive extreme rays together with an eagerly
computed dual description: facet normals (one per facet, relative to the
cone's linear span) and the span's defining equations.  All predicates are
decided exactly over the integers/rationals.

There is one facet search, `dual_constraints`: brute force over the
(dim-1)-subsets of generators, which is entirely adequate at the intended
scale (at most a dozen rays).  A subset's candidate normal is its vector of
signed maximal minors divided by their gcd (`kernel_generator`, one Bareiss
elimination); only the span equations of the generators take a Smith
form.  The other direction reuses the search by duality:
`cone_from_rays` reads the extreme rays off the dual description of its
generators, and `Cone.intersect` finds the extreme rays of an intersection
as the facet normals of the cone that the pooled facet normals generate.

The combinatorics is read off one facet-ray incidence, `Cone.facet_rays`
(which rays each facet normal vanishes on), computed once per cone: the
faces are the intersections of the facet ray sets (`Cone.faces` returns
ray tuples and builds no cone), and callers in `fans` read walls and
boundary facets off the same incidence.  A generator's extreme-ray test
compares the sets of facets vanishing on the generators, with no rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .errors import InvalidRayError, ShapeError, StrongConvexityError
from .intlin import (
    IntMatrix,
    Vector,
    dot,
    kernel_basis,
    kernel_generator,
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
    Normals are primitive ambient covectors, returned sorted.  The result
    depends only on the set of primitive generators, not on their order.
    """
    gens = sorted({primitive_vector(g) for g in generators})
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
            if c is None:
                raise ArithmeticError(f"generator {g} has no coordinates in the saturated span")
            coords.append(c)

    normals = set()
    for subset in combinations(range(len(coords)), d - 1):
        u = kernel_generator([coords[i] for i in subset], d)
        if u is None:
            continue
        values = [dot(u, c) for c in coords]
        if any(values[i] for i in subset):
            raise ArithmeticError(f"candidate normal {u} is not zero on its generators")
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
            if amb is None:
                raise ArithmeticError(f"facet normal {u} has no lift to the ambient lattice")
            lifted.append(amb)
    return sorted(lifted), sorted(equations)


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
        return (all(dot(e, point) == 0 for e in self.span_equations)
                and all(dot(u, point) >= 0 for u in self.facet_normals))

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

    @cached_property
    def facet_rays(self) -> tuple[tuple[Vector, ...], ...]:
        """The facet–ray incidence: for each facet normal, in order, the
        rays on which it vanishes, in the order of `rays`."""
        return tuple(tuple(r for r in self.rays if dot(u, r) == 0)
                     for u in self.facet_normals)

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

        Works in coordinates on the intersection W of the two spans.  The
        intersection is pointed, so the cone generated by the pooled facet
        normals pulled back to W is full-dimensional in W, and its facet
        normals are exactly the intersection's extreme rays.
        """
        if self.ambient_rank != other.ambient_rank:
            raise ShapeError("cones live in different ranks")
        rank = self.ambient_rank
        eqs = list(self.span_equations) + list(other.span_equations)
        w_basis = kernel_basis(IntMatrix.from_rows(eqs, cols=rank))
        if not w_basis:
            return zero_cone(rank)
        bmat = IntMatrix.from_columns(w_basis, rows=rank)
        bt = bmat.transpose()
        pulled = [bt.apply(u) for u in self.facet_normals + other.facet_normals]
        rays, _ = dual_constraints(len(w_basis), [v for v in pulled if any(v)])
        return cone_from_rays(rank, [bmat.apply(v) for v in rays])


def zero_cone(rank: int) -> Cone:
    normals, eqs = dual_constraints(rank, [])
    return Cone(rank, (), tuple(normals), tuple(eqs))


def cone_from_rays(rank: int, generators: Sequence[Sequence[int]]) -> Cone:
    """Build a strongly convex cone from integer generators.

    Generators are primitivized, deduplicated and reduced to the extreme
    rays: once one rank has shown that the cone contains no line, a
    generator is extreme iff no other generator lies on every facet that it
    lies on.  Raises InvalidRayError on a zero generator and
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

    normals, eqs = dual_constraints(rank, gens)
    constraints = IntMatrix.from_rows(normals + eqs, cols=rank)
    if constraints.rank() < rank:
        lineality = kernel_basis(constraints)
        raise StrongConvexityError(
            f"cone of {list(gens)} contains the line through {lineality[0]}")
    zeros = {g: {i for i, u in enumerate(normals) if dot(u, g) == 0} for g in gens}
    survivors = [g for g in gens
                 if not any(h != g and zeros[h] >= zeros[g] for h in gens)]
    if len(survivors) < len(gens):
        # the lifted normals of a lower-dimensional cone depend on the
        # generator set, so they are recomputed from the extreme rays alone
        normals, eqs = dual_constraints(rank, survivors)
    return Cone(rank, tuple(survivors), tuple(normals), tuple(eqs))
