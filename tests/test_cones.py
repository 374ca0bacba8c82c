import inspect
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxtoric import cones
from coxtoric.cones import Cone, cone_from_rays
from coxtoric.errors import InvalidRayError, ShapeError, StrongConvexityError
from coxtoric.intlin import IntMatrix, dot, lattice_canonical_form
from oracles import (
    cone_by_subset_search,
    cone_contains_lp,
    facets_by_subset_search,
    is_hermite_basis_of_the_annihilator,
    rank_fraction_gauss,
)


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
        return cone_from_rays(rank, ())


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

    def test_line_message_names_the_lineality_vector(self):
        with pytest.raises(StrongConvexityError) as err:
            cone_from_rays(2, [(1, 0), (-1, 0)])
        assert str(err.value) == "cone of [(1, 0), (-1, 0)] contains the line through (1, 0)"

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidRayError):
            cone_from_rays(2, [(0, 0)])

    def test_generator_of_wrong_length_rejected(self):
        with pytest.raises(ShapeError, match="generator of length 3 in rank 2"):
            cone_from_rays(2, [(1, 0), (0, 1, 0)])

    def test_zero_cone(self):
        for rank in range(6):
            z = cone_from_rays(rank, ())
            assert z.rays == ()
            assert z.facet_normals == ()
            assert z.span_equations == tuple(tuple(int(i == j) for j in range(rank))
                                             for i in range(rank))
            assert z.facet_rays == ()
            assert z.dim == 0
            assert z.is_simplicial() and z.is_smooth()


@st.composite
def cones_with_redundant_generators(draw):
    """A pointed cone and its rays with nonnegative integer combinations of
    them inserted at random places.  A combination may equal a ray (1*e_1
    inserted before e_3, say), which moves that ray's first occurrence
    forward: a cone built from the list can hold the same rays in another
    order."""
    c = draw(pointed_cones())
    assume(c.rays)
    gens = [list(r) for r in c.rays]
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(st.integers(0, 3), min_size=len(c.rays), max_size=len(c.rays)))
        combo = [sum(k * r[i] for k, r in zip(coeffs, c.rays)) for i in range(c.ambient_rank)]
        if any(combo):
            gens.insert(draw(st.integers(0, len(gens))), combo)
    return c, gens


def _distinct_primitive(gens):
    out = []
    for g in gens:
        p = tuple(x // gcd(*g) for x in g)
        if p not in out:
            out.append(p)
    return out


class TestRedundantGenerators:
    @given(cones_with_redundant_generators())
    @settings(max_examples=30, deadline=None)
    def test_keeps_the_generators_outside_the_cone_of_the_others(self, case):
        c, gens = case
        distinct = _distinct_primitive(gens)
        outside = [g for g in distinct
                   if not cone_contains_lp(g, [h for h in distinct if h != g])]
        assert list(cone_from_rays(c.ambient_rank, gens).rays) == outside

    @given(cones_with_redundant_generators())
    @settings(max_examples=30, deadline=None)
    def test_dual_description_ignores_redundant_generators(self, case):
        c, gens = case
        again = cone_from_rays(c.ambient_rank, gens)
        assert (again.facet_normals, again.span_equations) == (c.facet_normals, c.span_equations)
        # the incidence holds the extreme rays only
        assert list(map(set, again.facet_rays)) == list(map(set, c.facet_rays))

    @pytest.mark.parametrize("gens", [
        [(1, 0), (0, 1)],
        [(1, 0), (1, 1), (0, 1)],
        [(1, 0, 0), (0, 1, 0)],
        [(1, 0, 0), (1, 1, 0), (0, 1, 0)],
    ])
    def test_dual_description_is_computed_once(self, gens, monkeypatch):
        # the dual description of the generators is the cone's own, also
        # after redundant generators are dropped
        seen = []
        real = cones.dual_constraints

        def counting(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(cones, "dual_constraints", counting)
        cone_from_rays(len(gens[0]), gens)
        assert len(seen) == 1

    @given(cones_with_redundant_generators())
    @settings(max_examples=30, deadline=None)
    def test_one_rank_per_cone(self, case):
        # a combination can deduplicate to a ray, which leaves independent
        # generators: they take no rank, and any other generators take one
        c, gens = case
        distinct = _distinct_primitive(gens)
        independent = rank_fraction_gauss(distinct, c.ambient_rank) == len(distinct)
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            mp.setattr(IntMatrix, "rank", lambda m, f=IntMatrix.rank: calls.append(m) or f(m))
            assert cone_from_rays(c.ambient_rank, gens) == c
            assert len(calls) == (0 if independent else 1)
            calls.clear()
            with pytest.raises(StrongConvexityError):
                cone_from_rays(c.ambient_rank, gens + [[-x for x in gens[0]]])
        # the cone that contains a line takes one
        assert len(calls) == 1


@st.composite
def generating_sets(draw):
    """(rank, generators): integer combinations of up to rank random
    vectors, so the cone is often lower-dimensional, and it may contain
    lines."""
    rank = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    span = draw(st.lists(vector, min_size=1, max_size=rank))
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span)))
        g = [sum(k * b[i] for k, b in zip(coeffs, span)) for i in range(rank)]
        if any(g):
            gens.append(g)
    assume(gens)
    return rank, gens


class TestDualDescription:
    @given(generating_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_result_is_a_function_of_the_cone(self, case, rnd):
        rank, gens = case
        normals, equations = cones.dual_constraints(rank, gens)
        shuffled = gens[:]
        rnd.shuffle(shuffled)
        padded = gens[:]
        for _ in range(rnd.randint(1, 3)):
            coeffs = [rnd.randint(0, 3) for _ in gens]
            combo = [sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(rank)]
            if any(combo):
                padded.insert(rnd.randint(0, len(padded)), combo)
        assert cones.dual_constraints(rank, shuffled) == (normals, equations)
        assert cones.dual_constraints(rank, padded) == (normals, equations)
        # the normals lie in the span, and the equations are in Hermite form
        assert all(dot(u, e) == 0 for u in normals for e in equations)
        if equations:
            eq_matrix = IntMatrix.from_columns(equations, rows=rank)
            assert lattice_canonical_form(eq_matrix) == eq_matrix

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

    @pytest.mark.parametrize("gens", [
        [(1, 0), (1, 2)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, -1, 1), (-1, 1, 1, 1)],
    ])
    def test_full_dimensional_cone_takes_one_kernel(self, gens, monkeypatch):
        # the span equations take one kernel; the C(k, d-1) candidate
        # normals come from minors, not from kernels
        calls = []
        real = cones.kernel_basis

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(cones, "kernel_basis", counting)
        normals, equations = cones.dual_constraints(len(gens[0]), gens)
        assert len(calls) == 1 and equations == [] and normals

    @given(pointed_cones())
    def test_dual_of_dual_roundtrip(self, c):
        again = cone_from_rays(c.ambient_rank, c.rays)
        assert again == c
        assert set(again.facet_normals) == set(c.facet_normals)


@st.composite
def independent_sets(draw):
    """(rank, generators): 1 to rank linearly independent integer vectors in
    rank 1 to 6, so the cone is simplicial, full-dimensional or not."""
    rank = draw(st.integers(1, 6))
    k = draw(st.integers(1, rank))
    vector = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
    gens = draw(st.lists(vector, min_size=k, max_size=k))
    assume(rank_fraction_gauss(gens, rank) == k)
    return rank, gens


def _survivor_test_runs(rank, gens):
    """Whether `cone_from_rays(rank, gens)` runs its extreme-ray test: a call
    tracer looks for the generator expression that compares zero sets."""
    lines, start = inspect.getsourcelines(cones.cone_from_rays)
    line = start + next(i for i, text in enumerate(lines) if "zeros[h] >= zeros[g]" in text)
    seen = []

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename == cones.__file__ and code.co_firstlineno == line:
            seen.append(code.co_name)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        cone_from_rays(rank, gens)
    finally:
        sys.settrace(previous)
    return "<genexpr>" in seen


class TestSimplicialCones:
    @staticmethod
    def _fields(c):
        return c.ambient_rank, c.rays, c.facet_normals, c.span_equations, c.facet_rays

    @given(independent_sets())
    @settings(max_examples=150)
    def test_same_cone_as_with_an_interior_generator(self, case):
        # the sum of two or more independent generators is interior and
        # dependent, so the second call takes the rank and the extreme-ray
        # test; one generator is its own sum
        rank, gens = case
        total = [sum(column) for column in zip(*gens)]
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            mp.setattr(IntMatrix, "rank", lambda m, f=IntMatrix.rank: calls.append(m) or f(m))
            simplicial = cone_from_rays(rank, gens)
            assert calls == []
            padded = cone_from_rays(rank, gens + [total])
            assert len(calls) == (len(gens) > 1)
        assert self._fields(simplicial) == self._fields(padded)
        assert simplicial.is_simplicial() and simplicial.dim == len(gens)

    @pytest.mark.parametrize("rank, gens", [
        (2, [(1, 0), (1, 2)]),
        (3, [(1, 0, 0), (0, 1, 0), (1, 1, 3)]),
        (3, [(1, 2, 0), (0, 1, 1)]),
        (4, [(2, 0, 0, 4)]),
        (5, [(1, 0, 0, 0, 1), (0, 1, 0, 0, -1), (0, 0, 1, 2, 0)]),
    ], ids=["full-2", "full-3", "plane-3", "ray-4", "span-3-in-5"])
    def test_simplicial_cone_takes_no_rank_and_no_survivor_test(self, rank, gens, count_calls):
        # the subset search takes one minors elimination per generator; the
        # interior sum of two or more generators brings the test back
        total = [sum(column) for column in zip(*gens)]
        assert not _survivor_test_runs(rank, gens)
        assert _survivor_test_runs(rank, gens + [total]) == (len(gens) > 1)
        calls = count_calls(cones, "dual_constraints", "kernel_basis", "kernel_generator")
        ranks = count_calls(IntMatrix, "rank")
        assert cone_from_rays(rank, gens).is_simplicial()
        assert calls == {"dual_constraints": 1, "kernel_basis": 1, "kernel_generator": len(gens)}
        assert ranks == {"rank": 0}


@st.composite
def oracle_generating_sets(draw):
    """(rank, generators) in rank 1 to 5: nonnegative combinations of up to
    rank random vectors, whose cone is pointed when they are independent, or
    combinations of any sign, whose cone often contains a line; often with a
    repeated generator (a multiple of one) and a redundant one (a sum of two)."""
    rank = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    span = draw(st.lists(vector, min_size=1, max_size=rank))
    coefficient = st.integers(0, 2) if draw(st.booleans()) else st.integers(-2, 2)
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.lists(coefficient, min_size=len(span), max_size=len(span)))
        g = [sum(k * b[i] for k, b in zip(coeffs, span)) for i in range(rank)]
        if any(g):
            gens.append(g)
    assume(gens)
    if draw(st.booleans()):
        gens.append([draw(st.integers(1, 3)) * x for x in draw(st.sampled_from(gens))])
    total = [a + b for a, b in zip(gens[0], gens[-1])]
    if draw(st.booleans()) and any(total):
        gens.insert(draw(st.integers(0, len(gens))), total)
    return rank, gens


class TestSubsetSearchOracle:
    """`tests/oracles.py` searches the (d-1)-subsets over fraction-Gauss
    kernels, and decides pointedness and extremality by ranks, sharing no
    code with the package."""

    @given(oracle_generating_sets())
    @settings(max_examples=150)
    def test_dual_constraints_agree(self, case):
        rank, gens = case
        normals, equations = cones.dual_constraints(rank, gens)
        assert normals == facets_by_subset_search(rank, gens)[0]
        assert is_hermite_basis_of_the_annihilator(equations, gens, rank)

    @given(oracle_generating_sets())
    @settings(max_examples=150)
    def test_cone_from_rays_agrees(self, case):
        rank, gens = case
        expected = cone_by_subset_search(rank, gens)
        if expected is None:
            with pytest.raises(StrongConvexityError):
                cone_from_rays(rank, gens)
            return
        c = cone_from_rays(rank, gens)
        assert (list(c.rays), list(c.facet_normals), list(c.facet_rays)) == expected
        assert is_hermite_basis_of_the_annihilator(list(c.span_equations), gens, rank)

    def test_oracle_examples(self):
        # the quadrant with an interior generator; a line; a ray in rank 3
        assert cone_by_subset_search(2, [(1, 0), (1, 1), (0, 2)]) == (
            [(1, 0), (0, 1)], [(0, 1), (1, 0)], [((1, 0),), ((0, 1),)])
        assert cone_by_subset_search(2, [(1, 0), (-2, 0)]) is None
        assert cone_by_subset_search(3, [(0, 2, 2)]) == ([(0, 1, 1)], [(0, 1, 1)], [()])
        assert is_hermite_basis_of_the_annihilator([(1, 0, 0), (0, 1, -1)], [(0, 1, 1)], 3)
        # a basis of the lattice, but not its Hermite form; and a non-saturated one
        assert not is_hermite_basis_of_the_annihilator([(1, 1, -1), (0, 1, -1)], [(0, 1, 1)], 3)
        assert not is_hermite_basis_of_the_annihilator([(1, 0, 0), (0, 2, -2)], [(0, 1, 1)], 3)


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
        assert quadrant().intersect(neg) == cone_from_rays(2, ())

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


    @given(pointed_cone_triples(), st.randoms(use_true_random=False))
    @settings(max_examples=25)
    def test_lower_dimensional_pairs_agree_with_lp_oracle(self, triple, rnd):
        def in_both(p):
            return cone_contains_lp(p, list(a.rays)) and cone_contains_lp(p, list(b.rays))

        for a, b in combinations(triple, 2):
            rank = a.ambient_rank
            if a.dim == rank and b.dim == rank:
                continue
            inter = a.intersect(b)
            assert all(in_both(r) for r in inter.rays)
            for gens in (a.rays, b.rays, a.rays + b.rays):
                for _ in range(8):
                    coeffs = [rnd.randint(0, 3) for _ in gens]
                    point = tuple(sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(rank))
                    assert inter.contains_point(point) == in_both(point)

    def test_one_dual_description_of_the_sum_in_the_ambient_lattice(self, monkeypatch):
        plane = cone_from_rays(3, [(1, 0, 0), (0, 1, 0)])
        wall = cone_from_rays(3, [(1, 1, 0), (0, 0, 1)])
        diagonal = cone_from_rays(3, [(1, 1, 0)])
        seen = []
        real = cones.dual_constraints
        monkeypatch.setattr(cones, "dual_constraints",
                            lambda rank, gens: seen.append(rank) or real(rank, gens))
        assert plane.intersect(wall) == diagonal
        # the sum of the two duals, then the intersection's own in cone_from_rays
        assert seen == [3, 3]


class TestFaces:
    def test_counts(self):
        assert len(quadrant().faces()) == 4
        assert len(cone_from_rays(2, [(1, 0)]).faces()) == 2
        c3 = cone_from_rays(3, [(2, 1, 3), (1, 1, 0), (0, 0, 1)])
        assert c3.is_simplicial()
        assert len(c3.faces()) == 8

    def test_face_relation(self):
        q = quadrant()
        assert cone_from_rays(2, ()).is_face_of(q)
        assert cone_from_rays(2, [(1, 0)]).is_face_of(q)
        assert not cone_from_rays(2, [(1, 1)]).is_face_of(q)
        assert q.is_face_of(q)
        assert not q.is_face_of(cone_from_rays(2, [(1, 0)]))

    def test_non_simplicial_face_lattice(self):
        c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
        faces = [cone_from_rays(3, rays) for rays in c.faces()]
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
        faces = [cone_from_rays(c.ambient_rank, rays) for rays in c.faces()]
        assert [f.rays for f in faces] == c.faces()
        assert len({f for f in faces}) == len(faces)
        if c.is_simplicial():
            assert len(faces) == 2 ** c.dim
        for f in faces:
            assert f.is_face_of(c)
            assert not (f.is_face_of(c) and c.is_face_of(f)) or f == c

    @given(pointed_cones())
    @settings(max_examples=40)
    def test_faces_match_facet_subset_enumeration(self, c):
        assert face_ray_sets(c) == subset_face_ray_sets(c)

    def test_faces_match_facet_subset_enumeration_on_corpus(self, corpus):
        for fan in corpus.values():
            for c in fan.max_cones:
                assert face_ray_sets(c) == subset_face_ray_sets(c)

    def test_incidence_faces_and_face_relation_take_no_dot_product(self, count_calls):
        # the incidence is kept from the extreme-ray test of cone_from_rays,
        # and the face relation looks the rays up in the face lattice
        c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
        facet = cone_from_rays(3, [(1, 0, 0), (0, 0, 1)])
        diagonal = cone_from_rays(3, [(1, 0, 0), (0, 1, 0)])
        calls = count_calls(cones, "dot")
        assert len(c.facet_rays) == 4 and len(c.faces()) == 10
        assert facet.is_face_of(c) and not diagonal.is_face_of(c)
        assert calls == {"dot": 0}

    @given(pointed_cone_triples())
    @settings(max_examples=30)
    def test_face_relation_agrees_with_dot_products(self, triple):
        def by_dot_products(sigma, tau):
            # sigma lies in tau and is the face of tau cut out by every
            # facet normal of tau vanishing on sigma
            if not all(tau.contains_point(r) for r in sigma.rays):
                return False
            active = [u for u in tau.facet_normals if all(dot(u, r) == 0 for r in sigma.rays)]
            return frozenset(sigma.rays) == frozenset(
                r for r in tau.rays if all(dot(u, r) == 0 for u in active))

        for tau in triple:
            rank = tau.ambient_rank
            faces = [cone_from_rays(rank, rays) for rays in tau.faces()]
            # cones on leading rays lie in tau but are seldom faces
            inside = [cone_from_rays(rank, tau.rays[:k]) for k in range(2, len(tau.rays))]
            for sigma in faces + inside + list(triple):
                assert sigma.is_face_of(tau) == by_dot_products(sigma, tau)
            assert all(f.is_face_of(tau) for f in faces)

    def test_facet_rays_are_the_zero_sets_of_the_normals(self):
        c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
        assert len(c.facet_rays) == len(c.facet_normals) == 4
        for u, rays in zip(c.facet_normals, c.facet_rays):
            assert rays == tuple(r for r in c.rays if dot(u, r) == 0)
            assert len(rays) == 2


def face_ray_sets(c):
    faces = c.faces()
    assert faces[0] == c.rays and () in faces
    assert all(set(f) <= set(c.rays) for f in faces)
    ray_sets = [frozenset(f) for f in faces]
    assert len(set(ray_sets)) == len(ray_sets)
    return set(ray_sets)


def subset_face_ray_sets(c):
    """The faces as the zero sets of every subset of the facet normals."""
    return {frozenset(r for r in c.rays if all(dot(u, r) == 0 for u in subset))
            for k in range(len(c.facet_normals) + 1)
            for subset in combinations(c.facet_normals, k)}


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
