"""A small corpus of named fans used by the tests and the example scripts."""

from __future__ import annotations

from .cones import cone_from_rays
from .fans import Fan, fan_from_max_cones


def affine_space(n: int) -> Fan:
    """The positive orthant in rank n."""
    unit = lambda i: tuple(1 if k == i else 0 for k in range(n))
    return fan_from_max_cones(n, [cone_from_rays(n, [unit(i) for i in range(n)])])


def projective_line() -> Fan:
    return fan_from_max_cones(1, [cone_from_rays(1, [(1,)]),
                                  cone_from_rays(1, [(-1,)])])


def _complete_polygon(rays: list[tuple[int, int]]) -> Fan:
    """Complete rank-2 fan whose cones join each ray to the next, cyclically."""
    k = len(rays)
    return fan_from_max_cones(2, [cone_from_rays(2, [rays[i], rays[(i + 1) % k]])
                                  for i in range(k)])


def projective_plane() -> Fan:
    return _complete_polygon([(1, 0), (0, 1), (-1, -1)])


def p1_times_p1() -> Fan:
    return _complete_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])


def hirzebruch(a: int) -> Fan:
    return _complete_polygon([(1, 0), (0, 1), (-1, a), (0, -1)])


def quadric_cone() -> Fan:
    """Affine fan of the rank-one quadric singularity: one cone (1,0),(1,2)."""
    return fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (1, 2)])])


def weighted_projective_112() -> Fan:
    """Complete fan with rays (1,0),(0,1),(-1,-2); coordinate weights (1,2,1)."""
    return _complete_polygon([(1, 0), (0, 1), (-1, -2)])


def blowup_origin_affine_plane() -> Fan:
    """Quadrant subdivided along (1,1); ray order (1,0),(1,1),(0,1)."""
    return fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (1, 1)]),
                                  cone_from_rays(2, [(1, 1), (0, 1)])])


CORPUS = {
    "a1": lambda: affine_space(1),
    "a2": lambda: affine_space(2),
    "a3": lambda: affine_space(3),
    "p1": projective_line,
    "p2": projective_plane,
    "p1xp1": p1_times_p1,
    "f0": lambda: hirzebruch(0),
    "f1": lambda: hirzebruch(1),
    "f2": lambda: hirzebruch(2),
    "f3": lambda: hirzebruch(3),
    "quadric_cone": quadric_cone,
    "p112": weighted_projective_112,
    "bl0_a2": blowup_origin_affine_plane,
}


def corpus_fans() -> dict[str, Fan]:
    return {name: make() for name, make in CORPUS.items()}
