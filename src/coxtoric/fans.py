"""Validated fans: fan axioms, nondegeneracy, completeness, convex support.

A fan is a finite collection of strongly convex cones closed under taking
faces, in which any two cones intersect in a common face.  Construction
validates the axioms on the given maximal cones; every cone is a face of a
maximal one, so membership, maps of fans and walls are decided on the
maximal cones, and the face closure `all_cones` is built on first read.
The ray order of a fan is the first-appearance order across the maximal
cones as given; downstream modules rely on this to fix coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .cones import Cone, cone_from_rays, dual_constraints, zero_cone
from .errors import FanValidationError, ShapeError, UnsupportedShapeError
from .intlin import IntMatrix, Vector, dot, primitive_vector, saturation_basis, solve_integer


@dataclass(frozen=True)
class Wall:
    """A cone of dimension rank-1 with the indices of the maximal cones
    having it as a face (1 = on the boundary of the support, 2 = interior)."""

    face: Cone
    incident: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Fan:
    rank: int
    max_cones: tuple[Cone, ...]
    rays: tuple[Vector, ...]

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    @cached_property
    def all_cones(self) -> tuple[Cone, ...]:
        """Every cone of the fan, each once, in the order of the maximal
        cones and of their faces; built on first read."""
        return tuple(dict.fromkeys(f for c in self._covering_cones() for f in c.faces()))

    def _covering_cones(self) -> tuple[Cone, ...]:
        """Cones of which every cone of the fan is a face: the maximal
        cones, or the zero cone alone when there are none."""
        return self.max_cones or (zero_cone(self.rank),)

    def ray_index(self, ray: Vector) -> int:
        return self.rays.index(tuple(ray))

    def cone_ray_indices(self, cone: Cone) -> tuple[int, ...]:
        return tuple(self.ray_index(r) for r in cone.rays)

    def is_nondegenerate(self) -> bool:
        """Whether the rays span the ambient rational vector space."""
        return IntMatrix.from_rows(self.rays, cols=self.rank).rank() == self.rank

    def contains_point(self, point: Sequence) -> bool:
        return any(c.contains_point(point) for c in self._covering_cones())

    def walls(self) -> list[Wall]:
        """The cones of dimension rank-1, each once: the facets of the
        full-dimensional covering cones and the covering cones of dimension
        rank-1, in the order of those cones and of their facet normals."""
        faces: list[Cone] = []
        seen = set()
        for mc in self._covering_cones():
            if mc.dim == self.rank - 1:
                faces.append(mc)
            elif mc.dim == self.rank:
                for u in mc.facet_normals:
                    rays = tuple(r for r in mc.rays if dot(u, r) == 0)
                    key = frozenset(rays)
                    if key not in seen:
                        seen.add(key)
                        faces.append(cone_from_rays(self.rank, rays))
        return [Wall(f, tuple(i for i, mc in enumerate(self.max_cones) if f.is_face_of(mc)))
                for f in faces]

    def is_complete(self) -> bool:
        """Whether the fan's support is the whole space.

        Requires the fan to be pure full-dimensional with every wall shared
        by exactly two maximal cones; non-pure fans return False.
        """
        if not self.max_cones:
            return False
        if any(c.dim != self.rank for c in self.max_cones):
            return False
        return all(len(w.incident) == 2 for w in self.walls())

    def has_convex_support(self) -> bool:
        """Whether the support (union of the cones) is itself a convex cone.

        Criterion: let C be the cone generated by all rays.  For a pure
        full-dimensional fan the support is closed with topological boundary
        contained in the boundary walls (walls incident to exactly one
        maximal cone).  If every boundary wall lies in a facet hyperplane of
        C, the support is open and closed in the interior of C and hence
        equals C by connectedness; otherwise a boundary wall pokes into the
        interior of C and the support is not convex.  Fans whose rays span a
        proper subspace are first reduced to that subspace; if the fan is
        not pure full-dimensional after reduction, the criterion does not
        apply and UnsupportedShapeError is raised.
        """
        convex, _ = self._convex_support_analysis()
        return convex

    def convex_support_witness(self) -> tuple[Fraction, ...] | None:
        """A rational point in cone(all rays) but outside the support, when
        the support is not convex; None when it is."""
        _, witness = self._convex_support_analysis()
        return witness

    def _convex_support_analysis(self):
        if not self.rays:
            return True, None
        ray_matrix = IntMatrix.from_columns(self.rays, rows=self.rank)
        span_dim = ray_matrix.rank()
        if span_dim < self.rank:
            basis = saturation_basis(ray_matrix)
            reduced_cones = []
            for mc in self.max_cones:
                coords = [solve_integer(basis, r) for r in mc.rays]
                assert all(c is not None for c in coords)
                reduced_cones.append(cone_from_rays(span_dim, coords))
            reduced = fan_from_max_cones(span_dim, reduced_cones)
            convex, witness = reduced._convex_support_analysis()
            if witness is not None:
                witness = tuple(basis.apply(witness))
            return convex, witness

        if any(c.dim != self.rank for c in self.max_cones):
            raise UnsupportedShapeError(
                "support is not pure full-dimensional; convexity not certified")

        hull_normals, hull_eqs = dual_constraints(self.rank, self.rays)
        assert not hull_eqs
        for wall in self.walls():
            if len(wall.incident) != 1:
                continue
            in_hull_facet = any(all(dot(u, r) == 0 for r in wall.face.rays)
                                for u in hull_normals)
            if in_hull_facet:
                continue
            witness = self._boundary_witness(wall, hull_normals)
            return False, witness
        return True, None

    def _boundary_witness(self, wall: Wall, hull_normals) -> tuple[Fraction, ...]:
        """A point just outside the support across a bad boundary wall."""
        sigma = self.max_cones[wall.incident[0]]
        facet_normal = next(u for u in sigma.facet_normals
                            if all(dot(u, r) == 0 for r in wall.face.rays))
        x0 = tuple(sum(col) for col in zip(*wall.face.rays))
        away = tuple(-sum(col) for col in zip(*sigma.rays))
        assert dot(facet_normal, away) < 0
        k = 1
        for _ in range(64):
            p = tuple(Fraction(a) + Fraction(b, k) for a, b in zip(x0, away))
            in_hull = all(dot(u, p) >= 0 for u in hull_normals)
            if in_hull and not self.contains_point(p):
                return p
            k *= 2
        raise AssertionError("no witness found; criterion inconsistent")


def fan_from_max_cones(rank: int, cones: Sequence[Cone]) -> Fan:
    """Validate the fan axioms on the maximal cones.

    Raises FanValidationError naming the offending pair when two cones
    intersect in a set that is not a common face (overlap) and when one
    maximal cone lies inside another (containment).
    """
    cones = tuple(cones)
    for c in cones:
        if c.ambient_rank != rank:
            raise ShapeError(f"cone of ambient rank {c.ambient_rank} in a rank {rank} fan")
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            inter = cones[i].intersect(cones[j])
            if not (inter.is_face_of(cones[i]) and inter.is_face_of(cones[j])):
                raise FanValidationError(
                    f"cones {i} and {j} overlap: their intersection "
                    f"{inter!r} is not a common face")
            if inter == cones[i] or inter == cones[j]:
                raise FanValidationError(
                    f"maximal cone {i if inter == cones[i] else j} is contained "
                    f"in maximal cone {j if inter == cones[i] else i}")

    rays: list[Vector] = []
    for c in cones:
        for r in c.rays:
            if r not in rays:
                rays.append(r)
    return Fan(rank, cones, tuple(rays))


def is_map_of_fans(matrix: IntMatrix, source: Fan, target: Fan) -> bool:
    """Whether the lattice map sends every cone of `source` into some cone
    of `target` (checked on the rays of the maximal cones: every cone is a
    face of one)."""
    if matrix.cols != source.rank or matrix.rows != target.rank:
        raise ShapeError(
            f"{matrix.rows}x{matrix.cols} matrix cannot map rank {source.rank} "
            f"to rank {target.rank}")
    for c in source.max_cones:
        images = [matrix.apply(r) for r in c.rays]
        if not any(all(t.contains_point(im) for im in images)
                   for t in target._covering_cones()):
            return False
    return True


def fan_to_dict(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(fan.cone_ray_indices(c)) for c in fan.max_cones],
    }


def fan_from_dict(data: dict) -> Fan:
    """Parse the fan JSON schema: {"rank", "rays", "max_cones"} (0-based)."""
    if not isinstance(data, dict):
        raise FanValidationError("fan file must be a JSON object")
    try:
        rank = data["rank"]
        rays = data["rays"]
        max_cones = data["max_cones"]
    except KeyError as exc:
        raise FanValidationError(f"fan file is missing key {exc}") from None
    if type(rank) is not int or rank < 0:
        raise FanValidationError("rank must be a nonnegative integer")
    if not isinstance(rays, list) or not isinstance(max_cones, list):
        raise FanValidationError("rays and max_cones must be lists")
    parsed_rays = []
    for k, ray in enumerate(rays):
        if (not isinstance(ray, list) or len(ray) != rank
                or not all(type(x) is int for x in ray)):
            raise FanValidationError(f"ray {k} must be a list of {rank} integers")
        v = tuple(ray)
        if not any(v):
            raise FanValidationError(f"ray {k} is zero")
        if primitive_vector(v) != v:
            raise FanValidationError(
                f"ray {k} = {list(v)} is not primitive; use {list(primitive_vector(v))}")
        parsed_rays.append(v)
    if len(set(parsed_rays)) != len(parsed_rays):
        raise FanValidationError("duplicate rays in fan file")
    cones = []
    used = set()
    for k, idxs in enumerate(max_cones):
        if not isinstance(idxs, list) or not all(
                type(i) is int and 0 <= i < len(parsed_rays) for i in idxs):
            raise FanValidationError(f"max_cones[{k}] must list valid ray indices")
        used.update(idxs)
        cones.append(cone_from_rays(rank, [parsed_rays[i] for i in idxs]))
    if used != set(range(len(parsed_rays))):
        unused = sorted(set(range(len(parsed_rays))) - used)
        raise FanValidationError(f"rays {unused} are not used by any maximal cone")
    fan = fan_from_max_cones(rank, cones)
    if set(fan.rays) != set(parsed_rays):
        extra = [list(r) for r in set(parsed_rays) - set(fan.rays)]
        raise FanValidationError(
            f"rays {extra} are not extreme rays of the listed cones")
    return fan


def load_fan(path) -> Fan:
    with open(path, "r", encoding="utf-8") as fh:
        return fan_from_dict(json.load(fh))
