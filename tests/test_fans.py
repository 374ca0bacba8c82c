import ast
import random
import re
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtoric import cones, fans, intlin
from coxtoric.cones import Cone, cone_from_rays
from coxtoric.corpus import affine_space, corpus_fans
from coxtoric.errors import (
    FanValidationError,
    InvalidRayError,
    ShapeError,
    StrongConvexityError,
    UnsupportedShapeError,
)
from coxtoric.fans import fan_from_dict, fan_from_max_cones, fan_to_dict, is_map_of_fans
from coxtoric.intlin import IntMatrix, dot
from fangen import random_complete_simplicial_fan, random_simplicial_fan
from oracles import cone_contains_lp


def cone_of(fan, idx):
    """The cone of `fan` with ray indices `idx`."""
    return cone_from_rays(fan.rank, [fan.rays[i] for i in idx])


def punctured_plane_style_fan():
    """All four axis rays as maximal cones, no 2-dimensional cones."""
    return fan_from_max_cones(2, [cone_from_rays(2, [r])
                                  for r in [(1, 0), (0, 1), (-1, 0), (0, -1)]])


def three_quadrants():
    return fan_from_max_cones(2, [
        cone_from_rays(2, [(1, 0), (0, 1)]),
        cone_from_rays(2, [(0, 1), (-1, 0)]),
        cone_from_rays(2, [(-1, 0), (0, -1)]),
    ])


def boundary_walls_lie_in_hull_facets(fan):
    """Convex support of a pure full-dimensional fan by the hull: every
    boundary wall lies in a facet of cone(all rays)."""
    normals, _ = cones.dual_constraints(fan.rank, list(fan.rays))
    return all(any(all(dot(u, r) == 0 for r in w.face.rays) for u in normals)
               for w in fan.walls() if len(w.incident) == 1)


def embed_one_rank_higher(rng, fan):
    """The image of `fan` under r -> U(r, 0) for a random unimodular U."""
    n = fan.rank + 1
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]

    def image(r):
        return tuple(dot(row, (*r, 0)) for row in u)
    return fan_from_max_cones(n, [cone_from_rays(n, [image(r) for r in c.rays])
                                  for c in fan.max_cones])


class TestConstruction:
    def test_projective_plane_face_closure(self, corpus):
        p2 = corpus["p2"]
        # 3 maximal + 3 rays + zero cone
        assert len(p2.all_cones) == 7
        assert len(p2.max_cones) == 3
        assert p2.rays == ((1, 0), (0, 1), (-1, -1))
        assert set(p2.all_cones) == {(0, 1), (1, 2), (0, 2), (0,), (1,), (2,), ()}
        dims = sorted(cone_of(p2, idx).dim for idx in p2.all_cones)
        assert dims == [0, 1, 1, 1, 2, 2, 2]

    def test_single_cone(self, corpus):
        assert len(corpus["a2"].all_cones) == 4

    def test_faces_of_faces_present(self, corpus):
        for fan in corpus.values():
            for idx in fan.all_cones:
                assert list(idx) == sorted(set(idx))
                for face in cone_of(fan, idx).faces():
                    assert tuple(sorted(fan.rays.index(r) for r in face)) in fan.all_cones
            # every listed ray is a one-dimensional cone of the fan
            for i in range(len(fan.rays)):
                assert (i,) in fan.all_cones

    def test_face_closure_matches_facet_subset_enumeration(self, corpus, rng):
        fan_list = list(corpus.values()) + [fan_from_max_cones(2, [])]
        fan_list += [random_simplicial_fan(rng, rng.randint(1, 3)) for _ in range(10)]
        fan_list += [random_complete_simplicial_fan(rng, rng.randint(1, 3)) for _ in range(10)]
        for fan in fan_list:
            expected = set()
            for c in fan.max_cones or [cone_from_rays(fan.rank, ())]:
                for k in range(len(c.facet_normals) + 1):
                    for subset in combinations(c.facet_normals, k):
                        expected.add(frozenset(
                            fan.rays.index(r) for r in c.rays
                            if all(dot(u, r) == 0 for u in subset)))
            assert len(fan.all_cones) == len(expected), fan
            assert set(map(frozenset, fan.all_cones)) == expected, fan

    def test_face_closure_builds_no_cones(self, corpus, rng, monkeypatch):
        fan_list = list(corpus.values()) + [
            random_complete_simplicial_fan(rng, 3, subdivisions=4), affine_space(8)]
        built = []
        monkeypatch.setattr(Cone, "__init__",
                            lambda c, *a, f=Cone.__init__: built.append(a) or f(c, *a))
        for module in (cones, fans):
            monkeypatch.setattr(module, "cone_from_rays",
                                lambda *a, f=module.cone_from_rays: built.append(a) or f(*a))
        counts = [len(fan.all_cones) for fan in fan_list]
        assert counts[-1] == 2 ** 8 and built == []

    def test_face_closure_is_built_on_first_read(self, corpus, monkeypatch):
        calls = []
        faces = Cone.faces
        monkeypatch.setattr(Cone, "faces", lambda c: calls.append(c) or faces(c))
        fan = fan_from_dict(fan_to_dict(corpus["p1xp1"]))
        fan.walls()
        fan.contains_point((1, 1))
        assert calls == []
        assert len(fan.all_cones) == 9
        assert len(calls) == len(fan.max_cones)
        assert len(fan.all_cones) == 9
        assert len(calls) == len(fan.max_cones)

    def test_overlap_error_names_pair(self):
        with pytest.raises(FanValidationError, match="cones 0 and 1 overlap"):
            fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (0, 1)]),
                                   cone_from_rays(2, [(1, 1), (0, 1)])])

    def test_containment_error(self):
        with pytest.raises(FanValidationError, match="contained"):
            fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (0, 1)]),
                                   cone_from_rays(2, [(1, 0)])])

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            fan_from_max_cones(3, [cone_from_rays(2, [(1, 0)])])

    def test_ray_order_is_first_appearance(self, corpus):
        assert corpus["bl0_a2"].rays == ((1, 0), (1, 1), (0, 1))


@cache
def corpus_list():
    return list(corpus_fans().values())


def reference_pairing_error(cones):
    """The start of the message fan validation must raise, found by
    intersecting every pair of maximal cones; None when they form a fan."""
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            inter = cones[i].intersect(cones[j])
            if not (inter.is_face_of(cones[i]) and inter.is_face_of(cones[j])):
                return f"cones {i} and {j} overlap"
            if inter in (cones[i], cones[j]):
                inner, outer = (i, j) if inter == cones[i] else (j, i)
                return f"maximal cone {inner} is contained in maximal cone {outer}"
    return None


@st.composite
def maximal_cone_lists(draw):
    """(rank, cones): the maximal cones of a fangen or corpus fan, kept as
    they are, with one replaced by a random cone, or with one added."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        rank = draw(st.integers(1, 3))
        make = random_complete_simplicial_fan if draw(st.booleans()) else random_simplicial_fan
        fan = make(rng, rank)
    else:
        fan = draw(st.sampled_from(corpus_list()))
    cones = list(fan.max_cones)
    mode = draw(st.sampled_from(["keep", "replace", "add"]))
    if mode == "keep":
        return fan.rank, cones
    small = st.lists(st.integers(-2, 2), min_size=fan.rank, max_size=fan.rank).filter(any)
    ray = st.sampled_from(fan.rays) | small.map(tuple) if fan.rays else small.map(tuple)
    gens = draw(st.lists(ray, min_size=1, max_size=fan.rank + 1))
    try:
        cone = cone_from_rays(fan.rank, gens)
    except StrongConvexityError:
        cone = cone_from_rays(fan.rank, gens[:1])
    if mode == "replace" and cones:
        cones[draw(st.integers(0, len(cones) - 1))] = cone
    else:
        cones.insert(draw(st.integers(0, len(cones))), cone)
    return fan.rank, cones


@st.composite
def collections_near_fans(draw):
    """(rank, cones): a `maximal_cone_lists` case, or the maximal cones of a
    complete fangen fan kept, thinned to a subset, with one ray of a cone
    moved, or with the negative of one cone added."""
    if draw(st.booleans()):
        return draw(maximal_cone_lists())
    rng = random.Random(draw(st.integers(0, 2**32)))
    rank = draw(st.integers(1, 3))
    cones = list(random_complete_simplicial_fan(rng, rank).max_cones)
    k = draw(st.integers(0, len(cones) - 1))
    mode = draw(st.sampled_from(["keep", "subset", "perturb", "negate"]))
    if mode == "subset":
        cones = [c for c in cones if draw(st.booleans())]
    elif mode == "perturb":
        rays = list(cones[k].rays)
        j = draw(st.integers(0, len(rays) - 1))
        step = draw(st.lists(st.integers(-1, 1), min_size=rank, max_size=rank))
        rays[j] = tuple(a + b for a, b in zip(rays[j], step))
        try:
            cones[k] = cone_from_rays(rank, rays)
        except (InvalidRayError, StrongConvexityError):
            pass
    elif mode == "negate":
        negated = cone_from_rays(rank, [tuple(-x for x in r) for r in cones[k].rays])
        cones.insert(draw(st.integers(0, len(cones))), negated)
    return rank, cones


def polygon_fan(rays):
    """The complete rank-2 fan of consecutive pairs of `rays`, which are
    listed counterclockwise."""
    k = len(rays)
    return fan_from_max_cones(2, [cone_from_rays(2, [rays[i], rays[(i + 1) % k]])
                                  for i in range(k)])


class TestLocalCertificate:
    @given(collections_near_fans(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_a_certified_collection_is_a_fan_with_convex_support(self, case, rnd):
        rank, cones = case
        if not fans._locally_certified(rank, cones):
            return
        assert reference_pairing_error(cones) is None
        fan = fan_from_max_cones(rank, cones)
        assert fan.has_convex_support()
        for _ in range(10):
            point = tuple(rnd.randint(-3, 3) for _ in range(rank))
            assert fan.contains_point(point) == cone_contains_lp(point, list(fan.rays))

    def test_collection_winding_twice_has_paired_walls_but_is_rejected(self):
        rays = [(1, 0), (-1, 2), (-1, -3), (2, 1), (-2, 1), (-1, -2)]
        cones = [cone_from_rays(2, [rays[i], rays[(i + 1) % 6]]) for i in range(6)]
        walls = fans._facet_incidence(2, cones)
        assert len(walls) == 6
        for (_, _, u), (_, _, v) in walls.values():
            assert u == tuple(-x for x in v)
        # the sum of the rays of cone 0, (0, 2), lies in cone 3 too
        assert not fans._locally_certified(2, cones)
        with pytest.raises(FanValidationError, match=r"^cones 0 and 2 overlap"):
            fan_from_max_cones(2, cones)

    def test_walls_shared_on_one_side_are_rejected(self):
        # the quadrants, plus a wedge covered twice more: three cones on the
        # rays (3, 1), (1, 1), (1, 3), two of them on the same side of
        # (3, 1) and of (1, 3); the rays of cone 0 sum to a point covered once
        quadrants = [[(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)], [(1, 0), (0, 1)]]
        wedge = [[(3, 1), (1, 1)], [(3, 1), (1, 3)], [(1, 1), (1, 3)]]
        cones = [cone_from_rays(2, c) for c in quadrants + wedge]
        assert all(len(e) == 2 for e in fans._facet_incidence(2, cones).values())
        assert not fans._locally_certified(2, cones)
        expected = reference_pairing_error(cones)
        with pytest.raises(FanValidationError, match=f"^{expected}"):
            fan_from_max_cones(2, cones)

    def test_fans_with_convex_support_take_no_separation(self, corpus, rng, count_calls):
        polygon = polygon_fan([(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1),
                               (-1, 0), (-1, -1), (0, -1), (1, -1)])
        stellar = random_complete_simplicial_fan(rng, 3, subdivisions=6)
        fan_list = [*corpus.values(), affine_space(4), polygon, stellar]
        assert polygon.is_complete() and stellar.is_complete()
        calls = count_calls(fans, "_separation")
        for fan in fan_list:
            assert fan_from_dict(fan_to_dict(fan)).max_cones == fan.max_cones
        assert calls == {"_separation": 0}
        # two quadrants meeting at the origin: a boundary normal is negative
        # on a ray, so the pair is separated
        fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (0, 1)]),
                               cone_from_rays(2, [(-1, 0), (0, -1)])])
        assert calls == {"_separation": 1}


class TestSeparation:
    @given(maximal_cone_lists())
    @settings(max_examples=120)
    def test_accepts_and_rejects_as_pairwise_intersection_does(self, case):
        rank, cones = case
        expected = reference_pairing_error(cones)
        if expected is None:
            assert fan_from_max_cones(rank, cones).max_cones == tuple(cones)
            return
        with pytest.raises(FanValidationError) as err:
            fan_from_max_cones(rank, cones)
        message = str(err.value)
        assert message.startswith(expected)
        if "overlap" in expected:
            # the evidence: u >= 0 on cone i, <= 0 on cone j, with different zero sets
            i, j = map(int, re.match(r"cones (\d+) and (\d+)", message).groups())
            u, cut_i, cut_j = map(ast.literal_eval, re.search(
                r"u = (\(.*?\)) cuts out rays (\[.*?\]) of cone \d+ but rays (\[.*?\])",
                message).groups())
            assert all(dot(u, r) >= 0 for r in cones[i].rays)
            assert all(dot(u, r) <= 0 for r in cones[j].rays)
            assert cut_i == [r for r in cones[i].rays if dot(u, r) == 0]
            assert cut_j == [r for r in cones[j].rays if dot(u, r) == 0]
            assert set(cut_i) != set(cut_j)

    def test_overlap_error_carries_the_separating_functional(self):
        with pytest.raises(FanValidationError) as err:
            fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (0, 1)]),
                                   cone_from_rays(2, [(1, 1), (0, 1)])])
        assert str(err.value) == (
            "cones 0 and 1 overlap: u = (0, 0) cuts out rays [(1, 0), (0, 1)] "
            "of cone 0 but rays [(1, 1), (0, 1)] of cone 1")

    def test_one_facet_search_per_pair(self, count_calls):
        # collections that the local certificate refuses: each pair takes
        # the facet search of cone(sigma, -tau) and no other
        rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
        wedges = [cone_from_rays(2, pair) for pair in zip(rays, rays[1:])]
        for collection, pairs in [(three_quadrants().max_cones, 3), (wedges, 15)]:
            assert not fans._locally_certified(2, collection)
            calls = count_calls(fans, "dual_constraints")
            assert fan_from_max_cones(2, collection).max_cones == tuple(collection)
            assert calls == {"dual_constraints": pairs}

    def test_validation_intersects_no_cones(self, corpus, rng, monkeypatch):
        calls = []
        for name in ("intersect", "is_face_of"):
            original = getattr(Cone, name)
            monkeypatch.setattr(Cone, name, lambda c, d, f=original, n=name:
                                calls.append(n) or f(c, d))
        stellar = random_complete_simplicial_fan(rng, 3, subdivisions=4)
        for fan in list(corpus.values()) + [stellar]:
            assert fan_from_dict(fan_to_dict(fan)).max_cones == fan.max_cones
        assert calls == []

    def test_convex_support_builds_no_wall_cones(self, corpus, monkeypatch):
        fan_list = [corpus["p2"], corpus["bl0_a2"], three_quadrants()]
        calls = []
        monkeypatch.setattr(fans, "cone_from_rays",
                            lambda *a, f=fans.cone_from_rays: calls.append(a) or f(*a))
        assert [f.has_convex_support() for f in fan_list] == [True, True, False]
        assert fan_list[2].convex_support_witness() is not None
        assert calls == []

    def test_inconsistent_dual_data_raises_arithmetic_error(self, monkeypatch):
        pinched = fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (0, 1)]),
                                         cone_from_rays(2, [(-1, 0), (0, -1)])])
        # a summed normal negative on a ray of the first cone is no
        # separating functional
        monkeypatch.setattr(fans, "dual_constraints", lambda rank, gens: ([(1, -1)], []))
        with pytest.raises(ArithmeticError, match="does not separate"):
            fan_from_max_cones(2, pinched.max_cones)


class TestNondegenerate:
    def test_cases(self, corpus):
        assert corpus["p2"].is_nondegenerate()
        single = fan_from_max_cones(2, [cone_from_rays(2, [(1, 0)])])
        assert not single.is_nondegenerate()
        only_zero = fan_from_max_cones(1, [])
        assert not only_zero.is_nondegenerate()


class TestWallsAndCompleteness:
    def test_projective_plane(self, corpus):
        walls = corpus["p2"].walls()
        assert len(walls) == 3
        assert all(len(w.incident) == 2 for w in walls)
        assert corpus["p2"].is_complete()

    def test_quadrant_not_complete(self, corpus):
        assert not corpus["a2"].is_complete()
        assert [len(w.incident) for w in corpus["a2"].walls()] == [1, 1]

    def test_three_quadrants_not_complete(self):
        fan = three_quadrants()
        assert not fan.is_complete()
        boundary = [w for w in fan.walls() if len(w.incident) == 1]
        assert sorted(w.face.rays[0] for w in boundary) == [(0, -1), (1, 0)]

    def test_complete_corpus(self, corpus):
        for name in ["p1", "p2", "p1xp1", "f0", "f1", "f2", "f3", "p112"]:
            assert corpus[name].is_complete(), name
        for name in ["a1", "a2", "a3", "quadric_cone", "bl0_a2"]:
            assert not corpus[name].is_complete(), name

    def test_walls_are_the_codimension_one_cones_in_closure_order(self, corpus, rng):
        fans = list(corpus.values()) + [punctured_plane_style_fan(), three_quadrants(),
                                        fan_from_max_cones(1, [])]
        fans += [random_simplicial_fan(rng, rng.randint(1, 3)) for _ in range(10)]
        for fan in fans:
            expected = [idx for idx in fan.all_cones if cone_of(fan, idx).dim == fan.rank - 1]
            walls = fan.walls()
            assert [tuple(sorted(fan.cone_ray_indices(w.face))) for w in walls] == expected, fan
            for w in walls:
                assert w.incident == tuple(i for i, mc in enumerate(fan.max_cones)
                                           if w.face.is_face_of(mc))

    def test_walls_and_completeness_read_the_wall_map_directly(self, corpus, count_calls):
        # one map from facet ray sets to cones, read with no wrapper between
        for method in (fans.Fan.walls, fans.Fan.is_complete):
            assert "_facet_incidence" in method.__code__.co_names
        calls = count_calls(fans, "_facet_incidence")
        assert corpus["p2"].is_complete() and len(corpus["p2"].walls()) == 3
        assert calls == {"_facet_incidence": 2}

    def test_non_pure_returns_false(self):
        assert not punctured_plane_style_fan().is_complete()


class TestConvexSupport:
    def test_affine_fans_true(self, corpus):
        for name in ["a1", "a2", "a3", "quadric_cone"]:
            assert corpus[name].has_convex_support()

    def test_blowup_true(self, corpus):
        assert corpus["bl0_a2"].has_convex_support()

    def test_complete_true(self, corpus):
        assert corpus["p2"].has_convex_support()

    def test_three_quadrants_false_with_witness(self):
        fan = three_quadrants()
        assert not fan.has_convex_support()
        w = fan.convex_support_witness()
        # the witness lies in cone(all rays) = the plane but in no cone
        assert not fan.contains_point(w)
        assert cone_contains_lp(w, list(fan.rays))

    def test_punctured_plane_not_certified(self):
        with pytest.raises(UnsupportedShapeError):
            punctured_plane_style_fan().has_convex_support()

    def test_low_dimensional_support_reduced(self):
        # two opposite rays in rank 2: support is a line, convex after reduction
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 1)]),
                                     cone_from_rays(2, [(-1, -1)])])
        assert fan.has_convex_support()
        half = fan_from_max_cones(2, [cone_from_rays(2, [(1, 1)])])
        assert half.has_convex_support()

    def test_reduced_fan_is_not_validated_again(self, monkeypatch):
        octagon = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0),
                   (-1, 0, 0), (-1, -1, 0), (0, -1, 0), (1, -1, 0)]
        fan = fan_from_max_cones(3, [cone_from_rays(3, [octagon[i], octagon[(i + 1) % 8]])
                                     for i in range(8)])
        calls = []
        monkeypatch.setattr(fans, "_separation",
                            lambda *a, f=fans._separation: calls.append(a) or f(*a))
        assert fan.has_convex_support()
        assert calls == []
        # three of the plane cones: the witness found on the span lies in z = 0
        three = fan_from_max_cones(3, [cone_from_rays(3, [octagon[i], octagon[i + 1]])
                                       for i in (0, 2, 4)])
        calls.clear()
        assert not three.has_convex_support()
        w = three.convex_support_witness()
        assert w[2] == 0 and not three.contains_point(w)
        assert cone_contains_lp(w, list(three.rays))
        assert calls == []

    def test_half_plane_support(self):
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (0, 1)]),
                                     cone_from_rays(2, [(0, 1), (-1, 0)])])
        assert fan.has_convex_support()

    def test_pinched_quadrants_detected(self):
        # two full cones meeting only at the origin form a valid fan whose
        # support is not convex; the hull is the whole plane with no facets,
        # so the boundary walls betray the pinch
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 0), (0, 1)]),
                                     cone_from_rays(2, [(-1, 0), (0, -1)])])
        assert not fan.has_convex_support()
        w = fan.convex_support_witness()
        assert cone_contains_lp(w, list(fan.rays))
        assert not fan.contains_point(w)

    def test_pinched_along_ray_detected(self):
        # two 3-dimensional wedges sharing only the ray e1: every wall
        # through the pinch ray pokes into the interior of the hull
        fan = fan_from_max_cones(3, [
            cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            cone_from_rays(3, [(1, 0, 0), (0, -1, 0), (0, 0, -1)]),
        ])
        assert not fan.has_convex_support()
        w = fan.convex_support_witness()
        assert cone_contains_lp(w, list(fan.rays))
        assert not fan.contains_point(w)

    def test_agrees_with_the_hull_facet_criterion(self, rng):
        # complete fans, their subsets, and each embedded one rank higher,
        # which is linearly isomorphic to it and so keeps its verdict
        for _ in range(40):
            rank = rng.randint(1, 3)
            complete = random_complete_simplicial_fan(rng, rank)
            kept = [c for c in complete.max_cones if rng.random() < 0.6]
            for fan in (complete, fan_from_max_cones(rank, kept or complete.max_cones[:1])):
                verdict = boundary_walls_lie_in_hull_facets(fan)
                embedded = embed_one_rank_higher(rng, fan)
                for f in (fan, embedded):
                    assert f.has_convex_support() is verdict, f
                    w = f.convex_support_witness()
                    if verdict:
                        assert w is None
                    else:
                        assert cone_contains_lp(w, list(f.rays))
                        assert not f.contains_point(w)

    def test_takes_no_hull(self, corpus, rng, count_calls):
        stellar = random_complete_simplicial_fan(rng, 3, subdivisions=4)
        fan_list = [*corpus.values(), stellar, three_quadrants()]
        calls = count_calls(fans, "dual_constraints")
        verdicts = [f.has_convex_support() for f in fan_list]
        assert verdicts == [True] * (len(fan_list) - 1) + [False]
        assert calls == {"dual_constraints": 0}

    def test_verdict_builds_no_witness(self, count_calls):
        # only convex_support_witness steps across the failing wall, also
        # for a fan that spans a proper subspace
        flat = fan_from_max_cones(3, [cone_from_rays(3, [(*r, 0) for r in c.rays])
                                      for c in three_quadrants().max_cones])
        calls = count_calls(fans.Fan, "_boundary_witness")
        for fan in (three_quadrants(), flat):
            assert not fan.has_convex_support()
        assert calls == {"_boundary_witness": 0}
        # the wall on the ray (1, 0), one step toward the ray (0, -1)
        assert three_quadrants().convex_support_witness() == (1, -1)
        assert flat.convex_support_witness() == (1, -1, 0)
        assert calls == {"_boundary_witness": 2}

    def test_span_coordinates_take_one_hermite_form(self, count_calls):
        # four rays in the plane z = 0 are solved against the saturated span
        # with one Hermite elimination per analysis, not one per ray
        fan = fan_from_max_cones(3, [cone_from_rays(3, [(1, 0, 0), (1, 1, 0)]),
                                     cone_from_rays(3, [(1, 1, 0), (0, 1, 0)]),
                                     cone_from_rays(3, [(0, 1, 0), (-1, 0, 0)])])
        calls = count_calls(intlin, "_column_hermite")
        assert fan.has_convex_support()
        assert calls == {"_column_hermite": 1}
        assert fan.convex_support_witness() is None
        assert calls == {"_column_hermite": 2}

    def test_span_basis_that_misses_a_ray_raises_arithmetic_error(self, monkeypatch):
        # twice the saturated basis holds only twice each ray
        real = fans.saturation_basis
        monkeypatch.setattr(fans, "saturation_basis", lambda a: IntMatrix.from_rows(
            [[2 * x for x in row] for row in real(a).entries]))
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 1)])])
        with pytest.raises(ArithmeticError, match="no coordinates in their saturated span"):
            fan.has_convex_support()

    def test_witness_search_gives_up_with_arithmetic_error(self, monkeypatch):
        fan = three_quadrants()
        monkeypatch.setattr(fans.Fan, "contains_point", lambda self, point: True)
        with pytest.raises(ArithmeticError, match="no witness found"):
            fan.convex_support_witness()

    def test_sampling_soundness_random(self, rng):
        for _ in range(25):
            fan = random_simplicial_fan(rng, rng.randint(2, 3))
            try:
                convex = fan.has_convex_support()
            except UnsupportedShapeError:
                continue
            if convex:
                for _ in range(20):
                    coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 3))
                              for _ in fan.rays]
                    point = tuple(sum(c * r[k] for c, r in zip(coeffs, fan.rays))
                                  for k in range(fan.rank))
                    assert fan.contains_point(point)
            else:
                w = fan.convex_support_witness()
                assert not fan.contains_point(w)
                assert cone_contains_lp(w, list(fan.rays))


class TestMapOfFans:
    def test_identity(self, corpus):
        for fan in corpus.values():
            assert is_map_of_fans(IntMatrix.identity(fan.rank), fan, fan)

    def test_non_map(self, corpus):
        neg = fan_from_max_cones(2, [cone_from_rays(2, [(-1, 0), (0, -1)])])
        assert not is_map_of_fans(IntMatrix.identity(2), corpus["a2"], neg)

    def test_shape_error(self, corpus):
        with pytest.raises(ShapeError):
            is_map_of_fans(IntMatrix.identity(3), corpus["a2"], corpus["a2"])

    def test_empty_fan_holds_only_the_origin(self, corpus):
        empty = fan_from_max_cones(1, [])
        assert empty.contains_point((0,)) and not empty.contains_point((1,))
        assert is_map_of_fans(IntMatrix.zero(1, 2), corpus["a2"], empty)
        assert not is_map_of_fans(IntMatrix.from_rows([[1, 0]]), corpus["a2"], empty)
        assert is_map_of_fans(IntMatrix.zero(2, 1), empty, corpus["a2"])

    def test_refinement_map(self, corpus):
        # blowup fan refines the quadrant: identity is a map of fans one way only
        assert is_map_of_fans(IntMatrix.identity(2), corpus["bl0_a2"], corpus["a2"])
        assert not is_map_of_fans(IntMatrix.identity(2), corpus["a2"], corpus["bl0_a2"])


class TestJsonSchema:
    def test_roundtrip(self, corpus):
        for name, fan in corpus.items():
            again = fan_from_dict(fan_to_dict(fan))
            assert again.rays == fan.rays
            assert [c.rays for c in again.max_cones] == [c.rays for c in fan.max_cones]

    @pytest.mark.parametrize("data", [
        {"rank": 2, "rays": [[0, 1], [1, 0]], "max_cones": [[1, 0]]},
        {"rank": 3, "rays": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, -1, -1]],
         "max_cones": [[1, 2, 0], [3, 1]]},
    ])
    def test_dict_roundtrip_keeps_the_files_ray_order(self, data):
        assert fan_to_dict(fan_from_dict(data)) == data

    def test_primitivity_hint(self):
        data = {"rank": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}
        with pytest.raises(FanValidationError, match=r"not primitive; use \[1, 0\]"):
            fan_from_dict(data)

    def test_unused_ray_rejected(self):
        data = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0]]}
        with pytest.raises(FanValidationError, match="not used"):
            fan_from_dict(data)

    def test_non_extreme_listed_ray_rejected(self):
        data = {"rank": 2, "rays": [[1, 0], [1, 1], [0, 1]], "max_cones": [[0, 1, 2]]}
        with pytest.raises(FanValidationError, match="not extreme"):
            fan_from_dict(data)

    def test_bad_indices(self):
        data = {"rank": 2, "rays": [[1, 0]], "max_cones": [[0, 5]]}
        with pytest.raises(FanValidationError, match="valid ray indices"):
            fan_from_dict(data)

    def test_repeated_index_in_a_cone_rejected(self):
        data = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1], [1, 0, 1]]}
        with pytest.raises(FanValidationError,
                           match=r"max_cones\[1\] lists a ray index more than once"):
            fan_from_dict(data)

    def test_roundtrip_random_fans(self, rng):
        for _ in range(10):
            fan = random_simplicial_fan(rng, rng.randint(1, 3))
            again = fan_from_dict(fan_to_dict(fan))
            assert again.rays == fan.rays
            assert [c.rays for c in again.max_cones] == [c.rays for c in fan.max_cones]

    def test_duplicate_rays_rejected(self):
        data = {"rank": 2, "rays": [[1, 0], [1, 0]], "max_cones": [[0], [1]]}
        with pytest.raises(FanValidationError, match="duplicate"):
            fan_from_dict(data)

    def test_float_ray_rejected(self):
        data = {"rank": 2, "rays": [[1.0, 0]], "max_cones": [[0]]}
        with pytest.raises(FanValidationError, match="integers"):
            fan_from_dict(data)

    def test_rank_of_a_fan_without_rays_is_bounded(self):
        # the one size that the file's length does not bound
        limit = fans.MAX_RAYLESS_RANK
        assert fan_from_dict({"rank": limit, "rays": [], "max_cones": [[]]}).rank == limit
        for rank in (limit + 1, 2 ** 63, 10 ** 20):
            with pytest.raises(FanValidationError, match=f"no rays may have rank at most {limit}$"):
                fan_from_dict({"rank": rank, "rays": [], "max_cones": []})


class TestRandomFans:
    def test_complete_generator_is_complete_and_convex(self, rng):
        for _ in range(10):
            fan = random_complete_simplicial_fan(rng, rng.randint(1, 3))
            assert fan.is_complete()
            assert fan.has_convex_support()
            assert all(c.is_simplicial() for c in fan.max_cones)

    def test_subset_generator_is_valid(self, rng):
        for _ in range(10):
            fan = random_simplicial_fan(rng, rng.randint(1, 3))
            assert fan.max_cones
            assert all(c.is_simplicial() for c in fan.max_cones)

    def test_wall_incidence_bounds_on_pure_fans(self, rng):
        for _ in range(10):
            fan = random_simplicial_fan(rng, rng.randint(2, 3))
            for w in fan.walls():
                assert 1 <= len(w.incident) <= 2
                for i in w.incident:
                    assert w.face.is_face_of(fan.max_cones[i])
