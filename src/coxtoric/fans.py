"""Validated fans: fan axioms, nondegeneracy, completeness, convex support.

A fan is a finite collection of strongly convex cones closed under taking
faces, in which any two cones intersect in a common face.  Construction
first tries a local certificate, the pseudo-manifold characterization of
subdivisions (De Loera-Rambau-Santos, *Triangulations*, ch. 4): facets
shared by two cones on opposite sides or on a supporting hyperplane of
cone(all rays), and one point covered once.  Other collections are checked
pair by pair by the separation lemma (Fulton, *Introduction to Toric
Varieties*, 1.2; Cox-Little-Schenck, Lemma 1.2.13): sigma and tau meet in a
common face iff the covector u, the sum of the facet normals of
cone(sigma, -tau), vanishes on the same rays F of both, and then sigma meets
tau in cone(F); one facet search per pair.  Every cone
is a face of a maximal one, so membership, maps of fans and walls are
decided on the maximal cones.  The face closure `all_cones` is held
combinatorially, as ray-index tuples read off each maximal cone's
facet-ray incidence (`Cone.faces`), and is built on first read.  Walls and
boundary facets are read off one map from facet ray sets to the maximal
cones having them (`_facet_incidence`), read by `walls`, `is_complete` and
the certificate.  A fan whose rays span a proper subspace is carried onto
the span as is, without validating again.  Convex support is decided wall
by wall: a boundary wall's own facet normal must be >= 0 on every ray, so
the hull of the rays is never computed, and the witness, a step across the
first failing wall, is built only by `convex_support_witness`.
The ray order of a fan fixes coordinates downstream: it is the order of the
file's `rays` list for a fan read by `fan_from_dict`, and the first-appearance
order across the maximal cones for one built by `fan_from_max_cones`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import Cone, cone_from_rays, dual_constraints
from .errors import FanValidationError, ShapeError, UnsupportedShapeError
from .intlin import (IntMatrix, Vector, dot, instance_memo, primitive_vector, saturation_basis,
                     solve_scaled)

# Largest rank of a fan file with no rays, the one size its length does not bound
MAX_RAYLESS_RANK = 200


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

    @instance_memo
    def all_cones(self) -> tuple[tuple[int, ...], ...]:
        """Every cone of the fan as its sorted tuple of ray indices, each
        once, in the order of the maximal cones and of their faces; built on
        first read from the facet-ray incidence, with no cone built."""
        index = self._ray_positions
        return tuple(dict.fromkeys(tuple(sorted(index[r] for r in face))
                                   for c in self._covering_cones() for face in c.faces()))

    def _covering_cones(self) -> tuple[Cone, ...]:
        """Cones of which every cone of the fan is a face: the maximal
        cones, or the zero cone alone when there are none."""
        return self.max_cones or (cone_from_rays(self.rank, ()),)

    @instance_memo
    def _ray_positions(self) -> dict[Vector, int]:
        return {r: i for i, r in enumerate(self.rays)}

    def cone_ray_indices(self, cone: Cone) -> tuple[int, ...]:
        return tuple(self._ray_positions[r] for r in cone.rays)

    def is_nondegenerate(self) -> bool:
        """Whether the rays span the ambient rational vector space."""
        return IntMatrix.from_rows(self.rays, cols=self.rank).rank() == self.rank

    def contains_point(self, point: Sequence) -> bool:
        return any(c.contains_point(point) for c in self._covering_cones())

    def walls(self) -> list[Wall]:
        """The cones of dimension rank-1, each once: the facets of the
        full-dimensional covering cones and the covering cones of dimension
        rank-1, in the order of those cones and of their facet normals."""
        return [Wall(cone_from_rays(self.rank, entries[0][1]),
                     tuple(i for i, _, _ in entries) if self.max_cones else ())
                for entries in _facet_incidence(self.rank, self._covering_cones()).values()]

    def is_complete(self) -> bool:
        """Whether the fan's support is the whole space.

        Requires the fan to be pure full-dimensional with every wall shared
        by exactly two maximal cones; non-pure fans return False.
        """
        if not self.max_cones or any(c.dim != self.rank for c in self.max_cones):
            return False
        return all(len(e) == 2 for e in _facet_incidence(self.rank, self.max_cones).values())

    def has_convex_support(self) -> bool:
        """Whether the support (union of the cones) is itself a convex cone.

        Criterion: let C be the cone generated by all rays.  For a pure
        full-dimensional fan the support is closed with topological boundary
        contained in the boundary walls (walls incident to exactly one
        maximal cone).  If each boundary wall lies in a facet of C, the
        support is open and closed in the interior of C, hence equals C by
        connectedness; otherwise it is not convex.  A boundary wall lies in
        a facet of C iff its cone's facet normal there is >= 0 on every ray,
        so C is never computed.  A fan with a full-dimensional maximal cone
        spans, which takes no rank; other fans take the rank of their rays,
        and those whose rays span a proper subspace are first reduced to it;
        if the fan is not pure full-dimensional after reduction,
        UnsupportedShapeError is raised.
        """
        return self._breach() is None

    def convex_support_witness(self) -> tuple[Fraction, ...] | None:
        """A rational point in cone(all rays) but outside the support, when
        the support is not convex; None when it is."""
        breach = self._breach()
        return None if breach is None else self._boundary_witness(*breach)

    def _breach(self) -> tuple | None:
        """(its rays, the ray) for the first boundary wall whose normal is
        negative on a ray, in this fan's own rays; None when there is none."""
        if not self.rays:
            return None
        span_dim = self.rank
        if all(c.dim < self.rank for c in self.max_cones):
            # else a full-dimensional maximal cone's rays span, with no rank
            ray_matrix = IntMatrix.from_columns(self.rays, rows=self.rank)
            span_dim = ray_matrix.rank()
        if span_dim < self.rank:
            # coordinates on the saturated span are a lattice isomorphism onto
            # Z^span_dim, so this validated fan's image is a fan with its breach
            solved = solve_scaled(saturation_basis(ray_matrix), self.rays)
            if solved is None or solved[0] != 1:
                raise ArithmeticError("the rays have no coordinates in their saturated span")
            coords = dict(zip(self.rays, solved[1]))
            reduced = Fan(span_dim,
                          tuple(cone_from_rays(span_dim, [coords[r] for r in mc.rays])
                                for mc in self.max_cones),
                          tuple(coords.values()))
            breach = reduced._breach()
            if breach is None:
                return None
            ray_of = dict(zip(solved[1], self.rays))
            wall_rays, below = breach
            return tuple(ray_of[r] for r in wall_rays), ray_of[below]

        if any(c.dim != self.rank for c in self.max_cones):
            raise UnsupportedShapeError(
                "support is not pure full-dimensional; convexity not certified")
        return _boundary_breach(_facet_incidence(self.rank, self.max_cones), self.rays)

    def _boundary_witness(self, wall_rays, below: Vector) -> tuple[Fraction, ...]:
        """A point of cone(all rays) outside the support: x0 + below/2^j for
        x0 the sum of the wall's rays.  The wall's facet normal is negative
        on the ray `below`, and x0 lies in no cone but the wall's one, so a
        small enough step leaves every cone."""
        x0 = tuple(sum(col) for col in zip(*wall_rays))
        k = 1
        for _ in range(64):
            p = tuple(Fraction(a) + Fraction(b, k) for a, b in zip(x0, below))
            if not self.contains_point(p):
                return p
            k *= 2
        raise ArithmeticError("no witness found; convex-support criterion inconsistent")


def _facet_incidence(rank: int, cones: Sequence[Cone]) -> dict:
    """Each wall of the cones, keyed by its ray set in order of first
    appearance, with (index, rays, normal) of every cone having it as a
    facet; a cone of dimension rank-1 is its own wall, with normal None."""
    walls = {}
    for i, c in enumerate(cones):
        facets = (zip(c.facet_rays, c.facet_normals) if c.dim == rank
                  else [(c.rays, None)] if c.dim == rank - 1 else ())
        for rays, u in facets:
            walls.setdefault(frozenset(rays), []).append((i, rays, u))
    return walls


def _boundary_breach(walls: dict, rays) -> tuple | None:
    """(its rays, the ray) for the first wall of `_facet_incidence` with one
    cone whose normal is negative on a ray; None iff each lies in a facet of cone(rays)."""
    return next(((e[0][1], r) for e in walls.values() if len(e) == 1
                 for r in rays if dot(e[0][2], r) < 0), None)


def _locally_certified(rank: int, cones: Sequence[Cone]) -> bool:
    """Whether the cones are full-dimensional, every facet is shared by two
    cones with opposite normals or has a normal >= 0 on every ray, and the
    sum of the rays of cone 0 lies in no other cone.  The covering number
    is then 1 off codimension 2 inside cone(all rays), so the cones form a
    fan with that convex support."""
    if not cones or any(c.dim != rank for c in cones):
        return False
    walls = _facet_incidence(rank, cones)
    if any(len(e) > 2 or len(e) == 2 and e[0][2] != tuple(-x for x in e[1][2])
           for e in walls.values()):
        return False
    if _boundary_breach(walls, {r for c in cones for r in c.rays}) is not None:
        return False
    point = tuple(sum(col) for col in zip(*cones[0].rays))
    return not any(c.contains_point(point) for c in cones[1:])


def _separation(rank: int, sigma: Cone, tau: Cone):
    """A covector u >= 0 on sigma and <= 0 on tau with the rays it cuts out
    of each, (u, F, G); F and G are the same set iff sigma meets tau in a
    common face, which is then cone(F).

    u is the sum of the facet normals of cone(sigma, -tau), or 0 when it has
    none; it lies in the relative interior of the dual cone (sigma - tau)^v,
    where the lemma is exact in both directions.
    """
    normals, _ = dual_constraints(rank, sigma.rays + tuple(tuple(-x for x in r) for r in tau.rays))
    u = tuple(sum(col) for col in zip(*normals)) if normals else (0,) * rank
    sigma_values = [dot(u, r) for r in sigma.rays]
    tau_values = [dot(u, r) for r in tau.rays]
    if any(v < 0 for v in sigma_values) or any(v > 0 for v in tau_values):
        raise ArithmeticError(f"sum of facet normals {u} does not separate {sigma!r} from {tau!r}")
    return (u, [r for r, v in zip(sigma.rays, sigma_values) if v == 0],
            [r for r, v in zip(tau.rays, tau_values) if v == 0])


def fan_from_max_cones(rank: int, cones: Sequence[Cone]) -> Fan:
    """Validate the fan axioms on the maximal cones.

    A collection that `_locally_certified` accepts is a fan with convex
    support, and no pair is checked.  Otherwise each pair (sigma, tau) is
    decided by one separating covector u, >= 0 on sigma and <= 0 on tau
    (see `_separation`): they meet in a common face iff u vanishes on the
    same rays F of both.  Raises FanValidationError naming the offending
    pair when it does not (overlap, with u and the two ray sets as
    evidence) and when F is all the rays of one of the cones (containment).
    """
    cones = tuple(cones)
    for c in cones:
        if c.ambient_rank != rank:
            raise ShapeError(f"cone of ambient rank {c.ambient_rank} in a rank {rank} fan")
    if not _locally_certified(rank, cones):
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                u, sigma_zero, tau_zero = _separation(rank, cones[i], cones[j])
                if set(sigma_zero) != set(tau_zero):
                    raise FanValidationError(
                        f"cones {i} and {j} overlap: u = {u} cuts out rays {sigma_zero} "
                        f"of cone {i} but rays {tau_zero} of cone {j}")
                if len(sigma_zero) == len(cones[i].rays):
                    raise FanValidationError(f"maximal cone {i} is contained in maximal cone {j}")
                if len(tau_zero) == len(cones[j].rays):
                    raise FanValidationError(f"maximal cone {j} is contained in maximal cone {i}")

    return Fan(rank, cones, tuple(dict.fromkeys(r for c in cones for r in c.rays)))


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
    if not rays and rank > MAX_RAYLESS_RANK:
        raise FanValidationError(f"a fan with no rays may have rank at most {MAX_RAYLESS_RANK}")
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
        if len(set(idxs)) != len(idxs):
            raise FanValidationError(f"max_cones[{k}] lists a ray index more than once")
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
    return Fan(rank, fan.max_cones, tuple(parsed_rays))
