from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtoric.cones import Cone, cone_from_rays, zero_cone
from coxtoric.errors import InvalidRayError, ShapeError, StrongConvexityError
from coxtoric.intlin import dot
from oracles import cone_contains_lp


def quadrant():
    return cone_from_rays(2, [(1, 0), (0, 1)])


ray_vectors = st.lists(st.integers(-5, 5), min_size=2, max_size=4).filter(any)


def _draw_cone(draw, rank):
    k = draw(st.integers(1, 6))
    gens = draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=rank, max_size=rank).filter(any),
        min_size=k, max_size=k))
    try:
        return cone_from_rays(rank, gens)
    except StrongConvexityError:
        return zero_cone(rank)


@st.composite
def pointed_cones(draw):
    return _draw_cone(draw, draw(st.integers(2, 4)))


@st.composite
def pointed_cone_triples(draw):
    rank = draw(st.integers(2, 3))
    return tuple(_draw_cone(draw, rank) for _ in range(3))


class TestConstruction:
    def test_quadrant(self):
        c = quadrant()
        assert c.rays == ((1, 0), (0, 1))
        assert set(c.facet_normals) == {(1, 0), (0, 1)}
        assert c.span_equations == ()

    def test_dedupe_primitivize_extremality(self):
        c = cone_from_rays(2, [(2, 0), (1, 0), (0, 1)])
        assert set(c.rays) == {(1, 0), (0, 1)}
        # (1,1) is interior, dropped by the membership oracle
        c2 = cone_from_rays(2, [(1, 0), (1, 1), (0, 1)])
        assert set(c2.rays) == {(1, 0), (0, 1)}

    def test_line_rejected(self):
        with pytest.raises(StrongConvexityError):
            cone_from_rays(2, [(1, 0), (-1, 0)])
        with pytest.raises(StrongConvexityError):
            cone_from_rays(2, [(1, 0), (-1, 1), (0, -1)])

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidRayError):
            cone_from_rays(2, [(0, 0)])

    def test_zero_cone(self):
        z = zero_cone(3)
        assert z.rays == ()
        assert z.dim == 0
        assert z.is_simplicial() and z.is_smooth()


class TestDualDescription:
    def test_quadrant_normals(self):
        c = quadrant()
        assert set(c.facet_normals) == {(1, 0), (0, 1)} and c.span_equations == ()

    def test_singular_cone_normals(self):
        c = cone_from_rays(2, [(1, 0), (1, 2)])
        # each normal is nonnegative on both rays and vanishes on exactly one
        assert set(c.facet_normals) == {(0, 1), (2, -1)}
        for u in c.facet_normals:
            values = [dot(u, r) for r in c.rays]
            assert all(v >= 0 for v in values) and values.count(0) == 1

    def test_single_ray_has_span_equation(self):
        c = cone_from_rays(2, [(1, 1)])
        assert [tuple(abs(x) for x in e) for e in c.span_equations] == [(1, 1)]
        assert dot(c.span_equations[0], (1, 1)) == 0
        [u] = c.facet_normals
        assert dot(u, (1, 1)) > 0
        # membership oracle on sample points of the line x = y
        assert c.contains_point((3, 3))
        assert not c.contains_point((-1, -1))
        assert not c.contains_point((1, 2))

    @given(pointed_cones())
    def test_dual_of_dual_roundtrip(self, c):
        again = cone_from_rays(c.ambient_rank, c.rays) if c.rays else zero_cone(c.ambient_rank)
        assert again == c
        assert set(again.facet_normals) == set(c.facet_normals)


class TestContainsPoint:
    def test_examples(self):
        assert quadrant().contains_point((1, 1))
        assert not quadrant().contains_point((-1, 0))
        c = cone_from_rays(2, [(1, 0), (1, 2)])
        # (1,1) = 1/2 (1,0) + 1/2 (1,2)
        assert c.contains_point((1, 1))
        assert c.contains_point((Fraction(1, 3), Fraction(1, 10)))

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            quadrant().contains_point((1, 2, 3))

    @given(pointed_cones(), st.randoms(use_true_random=False))
    @settings(max_examples=12)
    def test_agrees_with_lp_oracle(self, c, rnd):
        gens = list(c.rays)
        for _ in range(50):
            point = tuple(Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                          for _ in range(c.ambient_rank))
            assert c.contains_point(point) == cone_contains_lp(point, gens)
        # boundary points must agree too
        for r in gens:
            assert c.contains_point(r) and cone_contains_lp(r, gens)


class TestIntersect:
    def test_idempotent(self):
        c = quadrant()
        assert c.intersect(c) == c

    def test_wedge(self):
        # oracle-derived: (0,1) = 1/2 (1,1) + 1/2 (-1,1) lies in both cones,
        # so the intersection is the 2-dimensional wedge between (0,1) and (1,1)
        w = cone_from_rays(2, [(1, 1), (-1, 1)])
        for ray in [(0, 1), (1, 1)]:
            assert cone_contains_lp(ray, [(1, 0), (0, 1)])
            assert cone_contains_lp(ray, [(1, 1), (-1, 1)])
        inter = quadrant().intersect(w)
        assert set(inter.rays) == {(0, 1), (1, 1)}

    def test_zero_intersection(self):
        neg = cone_from_rays(2, [(-1, 0), (-1, -1)])
        assert quadrant().intersect(neg) == zero_cone(2)

    def test_common_facet(self):
        upper = cone_from_rays(2, [(0, 1), (-1, 0)])
        assert quadrant().intersect(upper) == cone_from_rays(2, [(0, 1)])

    @given(pointed_cone_triples())
    @settings(max_examples=25)
    def test_commutative_associative(self, triple):
        a, b, c = triple
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    @given(pointed_cone_triples())
    @settings(max_examples=15)
    def test_agrees_with_pointwise_oracle(self, triple):
        # the intersection contains exactly the points both cones contain
        a, b, _ = triple
        inter = a.intersect(b)
        for r in inter.rays:
            assert a.contains_point(r) and b.contains_point(r)
        for r in a.rays:
            assert inter.contains_point(r) == b.contains_point(r)


class TestFaces:
    def test_counts(self):
        assert len(quadrant().faces()) == 4
        assert len(cone_from_rays(2, [(1, 0)]).faces()) == 2
        c3 = cone_from_rays(3, [(2, 1, 3), (1, 1, 0), (0, 0, 1)])
        assert c3.is_simplicial()
        assert len(c3.faces()) == 8

    def test_face_relation(self):
        q = quadrant()
        assert zero_cone(2).is_face_of(q)
        assert cone_from_rays(2, [(1, 0)]).is_face_of(q)
        assert not cone_from_rays(2, [(1, 1)]).is_face_of(q)
        assert q.is_face_of(q)
        assert not q.is_face_of(cone_from_rays(2, [(1, 0)]))

    def test_non_simplicial_face_lattice(self):
        c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
        faces = c.faces()
        by_dim = sorted(f.dim for f in faces)
        # zero cone, 4 rays, 4 facets, the cone itself
        assert by_dim == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
        facet_ray_sets = {f.rays for f in faces if f.dim == 2}
        assert frozenset(map(frozenset, facet_ray_sets)) == frozenset({
            frozenset({(1, 0, 0), (0, 0, 1)}),
            frozenset({(0, 1, 0), (0, 0, 1)}),
            frozenset({(1, 0, 0), (1, 1, -1)}),
            frozenset({(0, 1, 0), (1, 1, -1)}),
        })

    @given(pointed_cones())
    @settings(max_examples=25)
    def test_faces_are_faces_and_antisymmetry(self, c):
        faces = c.faces()
        assert len({f for f in faces}) == len(faces)
        if c.is_simplicial():
            assert len(faces) == 2 ** c.dim
        for f in faces:
            assert f.is_face_of(c)
            assert not (f.is_face_of(c) and c.is_face_of(f)) or f == c


class TestPredicates:
    def test_examples(self):
        q = quadrant()
        assert (q.dim, q.is_simplicial(), q.is_smooth()) == (2, True, True)
        c = cone_from_rays(2, [(1, 0), (1, 2)])
        assert (c.dim, c.is_simplicial(), c.is_smooth()) == (2, True, False)
        c4 = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
        assert len(c4.rays) == 4
        assert (c4.dim, c4.is_simplicial()) == (3, False)

    @given(pointed_cones())
    def test_smooth_implies_simplicial(self, c):
        if c.is_smooth():
            assert c.is_simplicial()
