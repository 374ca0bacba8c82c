import json
from itertools import combinations
from math import comb, lcm

import pytest

from coxtoric import cli, cox, intlin
from coxtoric.cox import (
    ClassGroupElement,
    acts_freely,
    class_group,
    complement_codim,
    cox_presentation,
    degree_of_monomial,
    lift_subtorus,
    ray_degrees,
    variety_is_smooth,
)
from coxtoric.corpus import affine_space
from coxtoric.errors import HypothesisError, ShapeError
from coxtoric.fans import fan_from_max_cones, fan_to_dict, is_map_of_fans
from coxtoric.cones import cone_from_rays
from coxtoric.groups import decompose_subgroup
from coxtoric.intlin import IntMatrix, lattice_canonical_form
from coxtoric.pipeline import presentation_summary
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
            sigma = orthant_fan(p)
            for idx in sigma.all_cones:
                c = cone_from_rays(m, [sigma.rays[i] for i in idx])
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

    @staticmethod
    def _unbounded(p):
        """The search over every subset size, up to m."""
        m = p.num_coordinates
        faces = [set(s) for s in p.sigma] or [set()]
        for size in range(m + 1):
            for subset in combinations(range(m), size):
                if not any(set(subset) <= t for t in faces):
                    return size
        return m + 1

    def test_bounded_search_agrees_with_the_full_one(self, corpus, rng):
        for name, fan in corpus.items():
            p = cox_presentation(fan)
            assert complement_codim(p) == self._unbounded(p), name
        for _ in range(30):
            rank = rng.randint(1, 3)
            fan = (random_simplicial_fan(rng, rank) if rng.random() < 0.5
                   else random_complete_simplicial_fan(rng, rank))
            p = cox_presentation(fan)
            assert complement_codim(p) == self._unbounded(p)

    def _count_subsets(self, monkeypatch):
        seen = []

        def counting(pool, size):
            for subset in combinations(pool, size):
                seen.append(subset)
                yield subset

        monkeypatch.setattr(cox, "combinations", counting)
        return seen

    def test_affine_space_answers_without_a_search(self, monkeypatch):
        seen = self._count_subsets(monkeypatch)
        assert complement_codim(cox_presentation(affine_space(16))) == 17
        assert seen == []

    def test_search_stops_at_the_largest_index_set_size(self, corpus, monkeypatch):
        # the index sets of P^2 have size 2 and every 2-set is a face, so
        # only the sizes 0, 1 and 2 are searched before the answer 3
        seen = self._count_subsets(monkeypatch)
        assert complement_codim(cox_presentation(corpus["p2"])) == 3
        assert len(seen) == comb(3, 0) + comb(3, 1) + comb(3, 2)


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

    def test_exponent_vector_of_wrong_length_is_a_shape_error(self, corpus):
        with pytest.raises(ShapeError, match="length 3"):
            degree_of_monomial(cox_presentation(corpus["p2"]), (1, 0))

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

    def test_kernel_group_decomposition_matches_class_group(self, corpus, rng):
        # the cox and pipeline requests read the class group off H's
        # decomposition, relying on this identity
        fans = list(corpus.values())
        for _ in range(10):
            fans.append(random_simplicial_fan(rng, rng.randint(1, 3)))
            fans.append(random_complete_simplicial_fan(rng, rng.randint(1, 3)))
        for fan in fans:
            assert fan.is_nondegenerate()
            p = cox_presentation(fan)
            assert decompose_subgroup(p.kernel_group) == class_group(p), fan

    def test_class_group_takes_no_rank(self, corpus, count_calls):
        # nondegeneracy is read off the grading Smith form's own rank
        p = cox_presentation(corpus["p112"])
        calls = count_calls(IntMatrix, "rank")
        assert class_group(p) == (1, ())
        assert calls == {"rank": 0}

    def test_ray_degrees_use_one_smith_form(self, corpus, monkeypatch):
        calls = []
        real = cox.smith_row_transform
        monkeypatch.setattr(cox, "smith_row_transform",
                            lambda a: calls.append(a) or real(a))
        p = cox_presentation(corpus["p112"])
        degrees = ray_degrees(p)
        assert calls == [p.q_matrix.transpose()]
        # the same degrees as one monomial at a time
        assert degrees == [degree_of_monomial(p, _unit(i, 3)) for i in range(3)]

    def test_classgroup_request_takes_one_smith_form_of_q_transpose(
            self, corpus, tmp_path, monkeypatch, capsys):
        path = tmp_path / "p112.json"
        path.write_text(json.dumps(fan_to_dict(corpus["p112"])))
        qt = cox_presentation(corpus["p112"]).q_matrix.transpose()
        calls, transforms = [], []
        for module in (intlin, cox):
            monkeypatch.setattr(module, "smith_row_transform",
                                lambda a, real=module.smith_row_transform: calls.append(a) or real(a))
        monkeypatch.setattr(intlin, "smith_normal_form",
                            lambda a, real=intlin.smith_normal_form: transforms.append(a) or real(a))
        assert cli.main(["classgroup", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["free"] == 1
        # class group and ray degrees read the same Smith form, whose V is not built
        assert calls == [qt]
        assert transforms == []

    def test_class_group_and_subgroup_decomposition_take_one_elimination(
            self, corpus, count_calls, monkeypatch):
        # the grading Smith form is taken of H's relation matrix, the one Q^T
        # instance of the presentation, and class group and ray degrees read
        # it; H's decomposition reads Q^T's invariant factors off its Bareiss
        # record, whose pivot minor 1 leaves nothing to eliminate; the second
        # Bareiss is of the one row of U that the grading reads, which the
        # grading's certificate shows to map onto Z
        p = cox_presentation(corpus["p112"])
        qt = p.kernel_group.relations
        seen = []
        real = intlin._smith_elimination
        monkeypatch.setattr(intlin, "_smith_elimination",
                            lambda a, modulus=0: seen.append((a, modulus)) or real(a, modulus))
        ranks = count_calls(intlin, "_bareiss")
        assert class_group(p) == (1, ())
        assert len(ray_degrees(p)) == 3
        assert presentation_summary(p)[2] == {"free": 1, "torsion": []}
        assert [(a is qt, modulus) for a, modulus in seen] == [(True, 0)]
        assert ranks == {"_bareiss": 2}

    def test_bad_element_arguments_raise_shape_error(self):
        with pytest.raises(ShapeError, match="2 torsion residues for 1 moduli"):
            ClassGroupElement((1,), (0, 1), (2,))
        for residue in (2, -1):
            with pytest.raises(ShapeError, match="not reduced modulo"):
                ClassGroupElement((), (residue,), (2,))

    def test_adding_degrees_of_different_gradings_raises_hypothesis_error(self):
        z2 = ClassGroupElement((1,), (1,), (2,))
        for other in (ClassGroupElement((1,), (1,), (3,)), ClassGroupElement((1, 0), (1,), (2,))):
            with pytest.raises(HypothesisError, match="different gradings"):
                z2 + other


class TestLiftSubtorus:
    def test_wrong_hermite_transform_fails_substitution(self, corpus, monkeypatch):
        # Q * W^T = d * iota is the solver's substitution check; an empty
        # column log replays to V = I
        real = intlin._column_hermite

        def identity_transform(a):
            h, pivots, _ = real(a)
            return h, pivots, []

        p = cox_presentation(corpus["quadric_cone"])
        monkeypatch.setattr(intlin, "_column_hermite", identity_transform)
        with pytest.raises(ArithmeticError, match="fails substitution"):
            lift_subtorus(p, iota([0], [1]))

    def test_takes_one_hermite_form(self, corpus, count_calls):
        # d and every column of W come from one Hermite elimination of Q,
        # whose log is replayed onto the solutions: no V is formed
        p = cox_presentation(corpus["a3"])
        calls = count_calls(intlin, "column_hermite_normal_form", "_column_hermite",
                            "divisibility_index")
        result = lift_subtorus(p, iota([1, 0], [1, 2], [0, 1]))
        assert p.q_matrix @ result.weights.transpose() == iota([1, 0], [1, 2], [0, 1])
        assert calls == {"column_hermite_normal_form": 0, "_column_hermite": 1,
                         "divisibility_index": 0}

    def test_same_weights_as_solving_for_each_scaled_column(self, corpus, rng):
        # the lcm-scaled back-substitution is the solution for d * iota_j
        from coxtoric.intlin import divisibility_index, solve_integer
        for name in ["quadric_cone", "p112", "a3", "bl0_a2"]:
            p = cox_presentation(corpus[name])
            n = p.delta.rank
            for _ in range(5):
                m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(2)]
                                         for _ in range(n)])
                if m.rank() != 2:
                    continue
                result = lift_subtorus(p, m)
                d = lcm(*(divisibility_index(p.q_matrix, c) for c in m.columns()))
                assert result.degree == d, name
                assert result.weights.entries == tuple(
                    solve_integer(p.q_matrix, [d * x for x in c]) for c in m.columns()), name

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
            assert result.weights.entries[0] == e1, name

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
                assert p.q_matrix.apply(result.weights.entries[0]) == tuple(
                    result.degree * x for x in m.column(0))
                # no smaller degree admits an integral solution for the column
                for smaller in range(1, result.degree):
                    target = [smaller * x for x in m.column(0)]
                    assert not lattice_membership(p.q_matrix, target)
