"""Acceptance suite: one test per criterion, at the stated bounds.

Each test prints a single ACCEPTANCE line (PASS on success, FAIL before the
exception propagates), so running `pytest -s tests/test_acceptance.py` gives
one line per criterion.  All assertions are exact; there are no tolerances
anywhere because all arithmetic is integer or rational.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from math import gcd

import pytest

from coxtoric.cli import main
from coxtoric.corpus import corpus_fans
from coxtoric.cox import (
    acts_freely,
    class_group,
    complement_codim,
    cox_presentation,
    lift_subtorus,
    ray_degrees,
    variety_is_smooth,
)
from coxtoric.errors import UnsupportedShapeError
from coxtoric.fans import fan_to_dict
from coxtoric.groups import (
    DiagonalizableSubgroup,
    MonomialMatrix,
    centralizes_torus,
    character_root_isogeny,
    classify_quotient,
    commutes_with_torus,
    hyperplane_permutation_report,
)
from coxtoric.intlin import IntMatrix, smith_normal_form
from fangen import random_simplicial_fan
from oracles import cone_contains_lp, det_cofactor, smith_diagonal_by_minors


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def corpus():
    return corpus_fans()


@pytest.fixture(scope="module")
def random_fan_set():
    rng = random.Random(0xC0FFEE)
    return [random_simplicial_fan(rng, rng.randint(1, 3)) for _ in range(100)]


def test_criterion_1_snf_suite():
    with criterion(1, "SNF suite, 200 random matrices"):
        rng = random.Random(1)
        for _ in range(200):
            rows = rng.randint(0, 6)
            cols = rng.randint(0, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)],
                cols=cols)
            s = smith_normal_form(a)
            assert s.U @ a @ s.V == s.D
            assert abs(det_cofactor(s.U.entries)) == 1
            assert abs(det_cofactor(s.V.entries)) == 1
            d = s.invariant_factors()
            assert all(x > 0 for x in d)
            assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
            expected = smith_diagonal_by_minors([list(r) for r in a.entries],
                                                (rows, cols))
            assert [list(r) for r in s.D.entries] == expected


def test_criterion_2_complement_codim(corpus, random_fan_set):
    with criterion(2, "complement codimension >= 2"):
        for name, fan in corpus.items():
            assert complement_codim(cox_presentation(fan)) >= 2, name
        for fan in random_fan_set:
            assert complement_codim(cox_presentation(fan)) >= 2


def test_criterion_3_freeness_smoothness_equivalence(corpus, random_fan_set):
    with criterion(3, "free action <=> smooth variety"):
        spot = {"p2": True, "quadric_cone": False, "f2": True}
        for name, expected in spot.items():
            assert variety_is_smooth(corpus[name]) is expected
            assert acts_freely(cox_presentation(corpus[name])) is expected
        for name, fan in corpus.items():
            assert acts_freely(cox_presentation(fan)) == variety_is_smooth(fan), name
        for fan in random_fan_set:
            assert acts_freely(cox_presentation(fan)) == variety_is_smooth(fan)


def test_criterion_4_class_group_regressions(corpus):
    with criterion(4, "class group regressions"):
        assert class_group(cox_presentation(corpus["p2"])) == (1, ())
        assert class_group(cox_presentation(corpus["quadric_cone"])) == (0, (2,))
        assert class_group(cox_presentation(corpus["p1xp1"])) == (2, ())
        p = cox_presentation(corpus["p112"])
        assert class_group(p) == (1, ())
        values = [d.free_part[0] for d in ray_degrees(p)]
        # fixed up to the isomorphism of the cokernel (global sign)
        assert values in ([1, 2, 1], [-1, -2, -1])


def test_criterion_5_isogeny_and_lifting(corpus):
    with criterion(5, "isogeny identity and minimal lifting degrees"):
        rng = random.Random(5)
        for _ in range(500):
            r = rng.randint(1, 4)
            xi = tuple(rng.randint(-9, 9) for _ in range(r))
            d = rng.randint(1, 12)
            kappa, xi0 = character_root_isogeny(xi, d)
            assert kappa.transpose().apply(xi) == tuple(d * x for x in xi0)
            g = gcd(*xi)
            assert abs(det_cofactor(kappa.entries)) == (1 if g == 0 else d // gcd(d, g))
        quadric = cox_presentation(corpus["quadric_cone"])
        assert lift_subtorus(quadric, IntMatrix.from_rows([[0], [1]])).degree == 2
        for name, fan in corpus.items():
            if not any(c.dim == fan.rank and c.is_smooth() for c in fan.max_cones):
                continue
            p = cox_presentation(fan)
            for _ in range(5):
                col = [rng.randint(-4, 4) for _ in range(fan.rank)]
                if not any(col):
                    continue
                iota = IntMatrix.from_columns([col], rows=fan.rank)
                assert lift_subtorus(p, iota).degree == 1, name


def test_criterion_6_diagonal_suite_exhaustive():
    with criterion(6, "corank-one diagonal subgroups, exhaustive m <= 5"):
        sample_scalars = {
            m: [(Fraction(0),) * m,
                tuple(Fraction(1, 2 + (i % 5)) for i in range(m))]
            for m in range(1, 6)
        }
        for m in range(1, 6):
            perms = list(permutations(range(m)))
            for a in product(range(-3, 4), repeat=m):
                if not any(a) or gcd(*a) != 1:
                    continue
                if next(x for x in a if x) < 0:
                    continue  # a and -a define the same subgroup
                group = DiagonalizableSubgroup(
                    m, IntMatrix.from_columns([a], rows=m))
                result = classify_quotient(group)
                one_signed = all(x >= 0 for x in a) or all(x <= 0 for x in a)
                assert (result is not None) == one_signed, a
                if result is None:
                    continue
                assert gcd(*result) == 1
                for perm in perms:
                    mats = [MonomialMatrix(perm, s) for s in sample_scalars[m]]
                    reports = [hyperplane_permutation_report(g, result) for g in mats]
                    # the report depends only on the permutation part
                    assert all(r == reports[0] for r in reports)
                    g = mats[0]
                    if commutes_with_torus(g, group):
                        # normalizing matrices permute the positive support
                        assert reports[0].permutes_positive_support, (a, perm)
                    if centralizes_torus(g, group):
                        # elementwise commutation pins every hyperplane
                        assert reports[0].fixes_zero_support
                        assert reports[0].permutes_positive_support


def test_criterion_7_convex_support_soundness(corpus):
    with criterion(7, "convex support vs rational sampling"):
        rng = random.Random(7)
        fans = list(corpus.values())
        fans += [random_simplicial_fan(rng, rng.randint(2, 3)) for _ in range(50)]
        for fan in fans:
            try:
                convex = fan.has_convex_support()
            except UnsupportedShapeError:
                continue
            if convex:
                for _ in range(100):
                    coeffs = [Fraction(rng.randint(0, 6), rng.randint(1, 4))
                              for _ in fan.rays]
                    point = tuple(sum(c * r[k] for c, r in zip(coeffs, fan.rays))
                                  for k in range(fan.rank))
                    assert fan.contains_point(point)
            else:
                witness = fan.convex_support_witness()
                assert witness is not None
                assert cone_contains_lp(witness, list(fan.rays))
                assert not fan.contains_point(witness)


def test_criterion_8_pipeline_end_to_end(corpus, tmp_path, capsys):
    with criterion(8, "pipeline end to end"):
        files = {}
        for name in ["bl0_a2", "a2", "p2"]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(fan_to_dict(corpus[name])))
            files[name] = str(path)
        weight_files = {}
        for name, w in [("bl0", [[1, 0, 0]]), ("a2", [[1, 0]]), ("p2", [[1, 1, 1]])]:
            path = tmp_path / f"w_{name}.json"
            path.write_text(json.dumps({"rank": 1, "weights": w}))
            weight_files[name] = str(path)

        assert main(["pipeline", files["bl0_a2"], "--weights", weight_files["bl0"],
                     "--json"]) == 0
        bl0 = json.loads(capsys.readouterr().out)
        assert bl0["hypotheses_met"] is True
        assert bl0["embedding"] == [[1], [0]]

        assert main(["pipeline", files["a2"], "--weights", weight_files["a2"],
                     "--json"]) == 0
        a2 = json.loads(capsys.readouterr().out)
        assert a2["embedding"] == [[1], [0]]

        assert main(["pipeline", files["p2"], "--weights", weight_files["p2"],
                     "--json"]) == 1
        p2 = json.loads(capsys.readouterr().out)
        assert p2["hypotheses_met"] is False
        assert p2["diagnostic"] == "wrong-dimension"

        for fan_key, weight_key in [("bl0_a2", "bl0"), ("a2", "a2"), ("p2", "p2")]:
            runs = []
            for _ in range(2):
                main(["pipeline", files[fan_key], "--weights",
                      weight_files[weight_key], "--json"])
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1]
            assert runs[0].encode("utf-8") == runs[1].encode("utf-8")
