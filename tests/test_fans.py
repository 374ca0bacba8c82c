import random
from fractions import Fraction

import pytest

from coxtoric.cones import Cone, cone_from_rays, zero_cone
from coxtoric.errors import FanValidationError, ShapeError, UnsupportedShapeError
from coxtoric.fans import fan_from_dict, fan_from_max_cones, fan_to_dict, is_map_of_fans
from coxtoric.intlin import IntMatrix
from fangen import random_complete_simplicial_fan, random_simplicial_fan
from oracles import cone_contains_lp


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


class TestConstruction:
    def test_projective_plane_face_closure(self, corpus):
        p2 = corpus["p2"]
        # 3 maximal + 3 rays + zero cone
        assert len(p2.all_cones) == 7
        assert len(p2.max_cones) == 3
        assert p2.rays == ((1, 0), (0, 1), (-1, -1))
        dims = sorted(c.dim for c in p2.all_cones)
        assert dims == [0, 1, 1, 1, 2, 2, 2]

    def test_single_cone(self, corpus):
        assert len(corpus["a2"].all_cones) == 4

    def test_faces_of_faces_present(self, corpus):
        for fan in corpus.values():
            for c in fan.all_cones:
                for f in c.faces():
                    assert f in fan.all_cones
            # every listed ray is a one-dimensional cone of the fan
            for r in fan.rays:
                assert cone_from_rays(fan.rank, [r]) in fan.all_cones

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
            expected = [c for c in fan.all_cones if c.dim == fan.rank - 1]
            walls = fan.walls()
            assert [w.face.rays for w in walls] == [c.rays for c in expected], fan
            for w in walls:
                assert w.incident == tuple(i for i, mc in enumerate(fan.max_cones)
                                           if w.face.is_face_of(mc))

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
