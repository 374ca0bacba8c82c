import pytest

from coxtoric.cox import (
    acts_freely,
    class_group,
    complement_codim,
    cox_presentation,
    degree_of_monomial,
    lift_subtorus,
    ray_degrees,
    variety_is_smooth,
)
from coxtoric.errors import HypothesisError
from coxtoric.fans import fan_from_max_cones, is_map_of_fans
from coxtoric.cones import cone_from_rays
from coxtoric.groups import decompose_subgroup
from coxtoric.intlin import IntMatrix, lattice_canonical_form
from fangen import random_complete_simplicial_fan, random_simplicial_fan


def iota(*rows):
    return IntMatrix.from_rows(rows)


def _unit(i, m):
    return tuple(1 if k == i else 0 for k in range(m))


def orthant_fan(p):
    """Sigma as a validated fan of orthant faces in Z^m, built from its
    index sets."""
    m = p.num_coordinates
    return fan_from_max_cones(m, [cone_from_rays(m, [_unit(i, m) for i in s])
                                  for s in p.sigma])


def check_sigma(p):
    """Sigma is the fan of Delta's index sets, its orthant fan keeps the
    coordinate order, and Q maps it into Delta."""
    m = p.num_coordinates
    sigma = orthant_fan(p)
    assert p.sigma == tuple(p.delta.cone_ray_indices(mc) for mc in p.delta.max_cones)
    assert sigma.rays == tuple(_unit(i, m) for i in range(m))
    assert [sigma.cone_ray_indices(c) for c in sigma.max_cones] == list(p.sigma)
    assert is_map_of_fans(p.q_matrix, sigma, p.delta)


class TestPresentation:
    def test_projective_plane(self, corpus):
        p = cox_presentation(corpus["p2"])
        assert p.num_coordinates == 3
        assert p.q_matrix == IntMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
        assert p.sigma == ((0, 1), (1, 2), (2, 0))
        assert decompose_subgroup(p.kernel_group) == (1, ())

    def test_affine_plane_is_identity(self, corpus):
        p = cox_presentation(corpus["a2"])
        assert p.q_matrix == IntMatrix.identity(2)
        assert decompose_subgroup(p.kernel_group) == (0, ())
        assert p.sigma == ((0, 1),)

    def test_quadric_cone(self, corpus):
        p = cox_presentation(corpus["quadric_cone"])
        assert p.q_matrix == IntMatrix.from_rows([[1, 1], [0, 2]])
        # H = {(e, e) : e^2 = 1}: both characters z1 z2 and z2^2 vanish on it
        assert decompose_subgroup(p.kernel_group) == (0, (2,))
        assert lattice_canonical_form(p.kernel_group.relations) == \
            lattice_canonical_form(IntMatrix.from_columns([(1, 1), (0, 2)], rows=2))

    def test_invariants_on_corpus(self, corpus):
        for name, fan in corpus.items():
            p = cox_presentation(fan)
            check_sigma(p)
            m = p.num_coordinates
            orthant = cone_from_rays(m, [_unit(i, m) for i in range(m)])
            for c in orthant_fan(p).all_cones:
                assert c.is_face_of(orthant), name
            # relation lattice of H is the image of Q^T
            assert lattice_canonical_form(p.kernel_group.relations) == \
                lattice_canonical_form(p.q_matrix.transpose()), name

    def test_sigma_on_random_fans(self, rng):
        for _ in range(10):
            check_sigma(cox_presentation(random_simplicial_fan(rng, rng.randint(1, 3))))
            check_sigma(cox_presentation(random_complete_simplicial_fan(rng, rng.randint(1, 3))))


class TestComplementCodim:
    def test_examples(self, corpus):
        assert complement_codim(cox_presentation(corpus["p2"])) == 3
        # affine space: no orthant face is missing, sentinel m + 1
        p = cox_presentation(corpus["a2"])
        assert complement_codim(p) == p.num_coordinates + 1
        assert complement_codim(cox_presentation(corpus["p1xp1"])) == 2

    def test_at_least_two_on_corpus(self, corpus):
        for name, fan in corpus.items():
            assert complement_codim(cox_presentation(fan)) >= 2, name


class TestFreenessSmoothness:
    def test_spot_values(self, corpus):
        assert acts_freely(cox_presentation(corpus["p2"])) is True
        assert acts_freely(cox_presentation(corpus["quadric_cone"])) is False
        assert acts_freely(cox_presentation(corpus["a2"])) is True
        assert variety_is_smooth(corpus["p2"]) is True
        assert variety_is_smooth(corpus["quadric_cone"]) is False
        assert variety_is_smooth(corpus["f2"]) is True
        assert variety_is_smooth(corpus["p112"]) is False

    def test_equivalence_on_corpus(self, corpus):
        for name, fan in corpus.items():
            assert acts_freely(cox_presentation(fan)) == variety_is_smooth(fan), name

    def test_equivalence_on_random_fans(self, rng):
        for _ in range(20):
            fan = random_simplicial_fan(rng, rng.randint(1, 3))
            assert acts_freely(cox_presentation(fan)) == variety_is_smooth(fan)


class TestClassGroup:
    def test_regressions(self, corpus):
        assert class_group(cox_presentation(corpus["p2"])) == (1, ())
        assert class_group(cox_presentation(corpus["quadric_cone"])) == (0, (2,))
        assert class_group(cox_presentation(corpus["p1xp1"])) == (2, ())
        assert class_group(cox_presentation(corpus["p112"])) == (1, ())

    def test_weighted_degrees(self, corpus):
        p = cox_presentation(corpus["p112"])
        degrees = ray_degrees(p)
        values = [d.free_part[0] for d in degrees]
        assert values in ([1, 2, 1], [-1, -2, -1])

    def test_projective_plane_degrees_equal(self, corpus):
        p = cox_presentation(corpus["p2"])
        degrees = ray_degrees(p)
        assert len({d.free_part for d in degrees}) == 1
        assert abs(degrees[0].free_part[0]) == 1

    def test_quadric_cone_degrees(self, corpus):
        p = cox_presentation(corpus["quadric_cone"])
        degrees = ray_degrees(p)
        assert all(d.free_part == () for d in degrees)
        assert all(d.torsion_part == (1,) and d.moduli == (2,) for d in degrees)

    def test_additivity(self, corpus):
        p = cox_presentation(corpus["p112"])
        a, b = (1, -2, 3), (0, 4, -1)
        total = tuple(x + y for x, y in zip(a, b))
        assert degree_of_monomial(p, a) + degree_of_monomial(p, b) == \
            degree_of_monomial(p, total)

    def test_degenerate_fan_rejected(self):
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 0)])])
        with pytest.raises(HypothesisError):
            class_group(cox_presentation(fan))

    def test_ray_degrees_generate_class_group(self, corpus):
        # the coordinate degrees generate the grading group: stacking them
        # with the torsion relations must give a surjection onto it
        from coxtoric.intlin import cokernel_invariants
        for name, fan in corpus.items():
            p = cox_presentation(fan)
            free, torsion = class_group(p)
            degrees = ray_degrees(p)
            size = free + len(torsion)
            cols = [list(d.torsion_part) + list(d.free_part) for d in degrees]
            for i, d in enumerate(torsion):
                cols.append([d if k == i else 0 for k in range(size)])
            stacked = IntMatrix.from_columns(cols, rows=size)
            assert cokernel_invariants(stacked) == (0, ()), name

    def test_kernel_group_decomposition_matches_class_group(self, corpus):
        for name, fan in corpus.items():
            p = cox_presentation(fan)
            assert decompose_subgroup(p.kernel_group) == class_group(p), name


class TestLiftSubtorus:
    def test_projective_plane_degree_one(self, corpus):
        p = cox_presentation(corpus["p2"])
        result = lift_subtorus(p, iota([1], [0]))
        assert result.degree == 1
        assert p.q_matrix @ result.weights.transpose() == iota([1], [0])
        assert result.weights == IntMatrix.from_rows([[1, 0, 0]])
        assert result.effective

    def test_quadric_cone_degree_two(self, corpus):
        p = cox_presentation(corpus["quadric_cone"])
        result = lift_subtorus(p, iota([0], [1]))
        assert result.degree == 2
        assert p.q_matrix @ result.weights.transpose() == iota([0], [2])
        assert result.effective

    def test_column_of_q_lifts_trivially(self, corpus):
        for name in ["p2", "a2", "quadric_cone", "bl0_a2", "p112"]:
            p = cox_presentation(corpus[name])
            first_ray = IntMatrix.from_columns([p.q_matrix.column(0)],
                                               rows=p.delta.rank)
            result = lift_subtorus(p, first_ray)
            assert result.degree == 1, name
            e1 = tuple(1 if i == 0 else 0 for i in range(p.num_coordinates))
            assert result.weights.row(0) == e1, name

    def test_degree_one_for_fans_with_smooth_max_cone(self, corpus, rng):
        for name in ["a1", "a2", "a3", "p1", "p2", "p1xp1", "f0", "f1", "f2",
                     "f3", "p112", "bl0_a2"]:
            fan = corpus[name]
            assert any(c.is_smooth() and c.dim == fan.rank for c in fan.max_cones), name
            p = cox_presentation(fan)
            for _ in range(3):
                col = [rng.randint(-3, 3) for _ in range(fan.rank)]
                if not any(col):
                    continue
                m = IntMatrix.from_columns([col], rows=fan.rank)
                if m.rank() != 1:
                    continue
                assert lift_subtorus(p, m).degree == 1, name

    def test_full_torus_lift(self, corpus):
        p = cox_presentation(corpus["p2"])
        result = lift_subtorus(p, IntMatrix.identity(2))
        assert result.degree == 1
        assert result.effective

    def test_non_injective_rejected(self, corpus):
        p = cox_presentation(corpus["p2"])
        with pytest.raises(HypothesisError):
            lift_subtorus(p, iota([1, 2], [2, 4]))

    def test_effectivity_failure_is_reported(self):
        # with the lcm-combined degree the lifted weights can fail to be
        # effective: here the unique solution has column lattice of index 2
        fan = fan_from_max_cones(3, [cone_from_rays(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1)])])
        p = cox_presentation(fan)
        result = lift_subtorus(p, iota([1, 0], [1, 0], [0, 1]))
        assert result.degree == 2
        assert not result.effective

    def test_degree_is_minimal_on_random_inputs(self, corpus, rng):
        from coxtoric.intlin import lattice_membership
        for name in ["quadric_cone", "p112", "p2", "f2"]:
            p = cox_presentation(corpus[name])
            for _ in range(5):
                cols = [[rng.randint(-3, 3) for _ in range(p.delta.rank)]]
                m = IntMatrix.from_columns(cols, rows=p.delta.rank)
                if m.rank() != 1:
                    continue
                result = lift_subtorus(p, m)
                assert p.q_matrix @ result.weights.transpose() == m.scale(result.degree)
                # no smaller degree admits an integral solution for the column
                for smaller in range(1, result.degree):
                    target = [smaller * x for x in m.column(0)]
                    assert not lattice_membership(p.q_matrix, target)
