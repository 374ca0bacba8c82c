import argparse
import contextlib
import copy
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coxtoric
from coxtoric.cli import InputError, _emit, _json, _load_json, build_parser, main
from coxtoric.cones import cone_from_rays
from coxtoric.corpus import affine_space, corpus_fans
from coxtoric.fans import MAX_RAYLESS_RANK, fan_from_max_cones, fan_to_dict
from coxtoric.groups import DiagonalizableSubgroup, WeightAction, classify_quotient
from coxtoric.intlin import IntMatrix, cokernel_invariants, kernel_basis
from coxtoric.pipeline import theorem_pipeline
from fangen import random_simplicial_fan
from oracles import det_fraction_gauss, rank_fraction_gauss


@pytest.fixture(scope="module")
def fan_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fans")
    paths = {}
    for name, fan in corpus_fans().items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(fan_to_dict(fan)))
        paths[name] = str(path)
    return paths


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def random_weights(m):
    """The (m-1) x m weights of `random.Random(m)`, entries in [-5, 5]."""
    rng = random.Random(m)
    return [[rng.randint(-5, 5) for _ in range(m)] for _ in range(m - 1)]


class TestTheoremPipeline:
    def test_blowup_succeeds(self, corpus):
        report = theorem_pipeline(corpus["bl0_a2"],
                                  WeightAction(1, IntMatrix.from_rows([[1, 0, 0]])))
        assert report.hypotheses_met
        assert report.diagnostic is None
        assert report.combined_dimension == 2  # m - 1
        assert report.embedding == IntMatrix.from_rows([[1], [0]])
        assert report.embedding_saturation == IntMatrix.from_rows([[1], [0]])
        assert report.isogeny_degree == 1
        assert report.embedding.rank() == corpus["bl0_a2"].rank - 1

    def test_affine_plane_succeeds(self, corpus):
        report = theorem_pipeline(corpus["a2"],
                                  WeightAction(1, IntMatrix.from_rows([[1, 0]])))
        assert report.hypotheses_met
        assert report.embedding == IntMatrix.from_rows([[1], [0]])

    def test_takes_one_rank_unless_no_maximal_cone_spans(self, corpus, count_calls):
        # the embedding's rank alone: rank Q is read off H's decomposition,
        # and every corpus fan has a full-dimensional maximal cone, whose rays
        # span, so the convex-support check takes none
        calls = count_calls(IntMatrix, "rank")
        reductions = count_calls(coxtoric.fans, "saturation_basis")
        for name, fan in corpus.items():
            assert any(c.dim == fan.rank for c in fan.max_cones), name
            action = WeightAction(0, IntMatrix.zero(0, len(fan.rays)))
            calls["rank"] = 0
            assert theorem_pipeline(fan, action).nondegenerate, name
            assert calls == {"rank": 1}, name
        assert reductions == {"saturation_basis": 0}
        # one ray in rank 2: the check takes the rays' rank and reduces the
        # fan to their span, where the ray is full-dimensional
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 1)])])
        calls["rank"] = 0
        report = theorem_pipeline(fan, WeightAction(0, IntMatrix.zero(0, 1)))
        assert report.no_small_holes_certified is True and not report.nondegenerate
        assert calls == {"rank": 2}
        assert reductions == {"saturation_basis": 1}

    def test_projective_plane_diagonal_torus_rejected(self, corpus):
        # W = [1,1,1] lands inside the kernel subgroup: the group generated by
        # the lifted torus and H is too small, never reported as success
        report = theorem_pipeline(corpus["p2"],
                                  WeightAction(1, IntMatrix.from_rows([[1, 1, 1]])))
        assert not report.hypotheses_met
        assert report.diagnostic == "wrong-dimension"
        assert report.embedding is None
        assert report.combined_dimension == 1

    def test_degenerate_fan_diagnostic(self, count_calls):
        # the chain stops at the first failed hypothesis
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 0)])])
        calls = count_calls(coxtoric.pipeline, "is_effective")
        report = theorem_pipeline(fan, WeightAction(1, IntMatrix.from_rows([[1]])))
        assert report.diagnostic == "degenerate-fan"
        assert calls == {"is_effective": 0}

    def test_holes_not_certified_diagnostic(self, count_calls):
        fan = fan_from_max_cones(2, [cone_from_rays(2, [r])
                                     for r in [(1, 0), (0, 1), (-1, 0), (0, -1)]])
        calls = count_calls(coxtoric.pipeline, "is_effective")
        report = theorem_pipeline(fan, WeightAction(1, IntMatrix.from_rows([[1, 0, 0, 0]])))
        assert report.diagnostic == "holes-not-certified"
        assert report.no_small_holes_certified == "not-certified"
        assert calls == {"is_effective": 0}

    def test_nonconvex_support_diagnostic(self, corpus):
        fan = fan_from_max_cones(2, [
            cone_from_rays(2, [(1, 0), (0, 1)]),
            cone_from_rays(2, [(0, 1), (-1, 0)]),
            cone_from_rays(2, [(-1, 0), (0, -1)]),
        ])
        report = theorem_pipeline(fan, WeightAction(1, IntMatrix.from_rows([[1, 0, 0, 0]])))
        assert report.diagnostic == "holes-not-certified"
        assert report.no_small_holes_certified is False

    def test_ineffective_diagnostic(self, corpus):
        report = theorem_pipeline(corpus["a2"],
                                  WeightAction(1, IntMatrix.from_rows([[2, 0]])))
        assert report.diagnostic == "ineffective-action"

    def test_wrong_rank_diagnostic(self, corpus):
        report = theorem_pipeline(corpus["a3"],
                                  WeightAction(1, IntMatrix.from_rows([[1, 0, 0]])))
        assert report.diagnostic == "wrong-dimension"

    def test_quadric_cone_succeeds(self, corpus):
        report = theorem_pipeline(corpus["quadric_cone"],
                                  WeightAction(1, IntMatrix.from_rows([[0, 1]])))
        assert report.hypotheses_met
        assert report.embedding == IntMatrix.from_rows([[1], [2]])
        assert report.embedding_saturation.column(0) in [(1, 2), (-1, -2)]

    def test_rank_one_fan_with_zero_rank_torus(self, corpus):
        # n = 1 means the acting torus has rank 0; the kernel subgroup alone
        # must already have dimension m - 1
        report = theorem_pipeline(corpus["p1"], WeightAction(0, IntMatrix.zero(0, 2)))
        assert report.hypotheses_met
        assert report.combined_dimension == 1
        assert report.embedding.cols == 0

    @given(st.randoms(use_true_random=False), st.data())
    @settings(max_examples=30)
    def test_combined_dimension_is_the_kernel_and_span_formula(self, rnd, data):
        fan = random_simplicial_fan(rnd, data.draw(st.integers(1, 3)))
        m = len(fan.rays)
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                                  max_size=3))
        if len(rows) > 1 and data.draw(st.booleans()):
            rows[-1] = [2 * x for x in rows[0]]  # rank-deficient W
        w = IntMatrix.from_rows(rows, cols=m)
        report = theorem_pipeline(fan, WeightAction(len(rows), w))
        # m - dim(ker W meet span Q^T), the meet's dimension taken as
        # dim ker W + dim span Q^T - dim of the two spanning sets side by side
        ker_w = kernel_basis(w)
        stacked = [[k[i] for k in ker_w] + list(ray) for i, ray in enumerate(fan.rays)]
        n = fan.rank
        meet = (len(ker_w) + rank_fraction_gauss([list(r) for r in fan.rays], n)
                - rank_fraction_gauss(stacked, len(ker_w) + n))
        assert report.combined_dimension == m - meet

    def test_kernel_basis_calls_are_the_fan_checks_own(self, monkeypatch):
        # the combined dimension comes from two ranks; no kernel of W is taken
        fan, fresh = corpus_fans()["bl0_a2"], corpus_fans()["bl0_a2"]
        seen = []
        real = sys.modules["coxtoric.intlin"].kernel_basis
        for name, mod in list(sys.modules.items()):
            if name.startswith("coxtoric") and getattr(mod, "kernel_basis", None) is real:
                monkeypatch.setattr(mod, "kernel_basis", lambda a: seen.append(a) or real(a))
        fresh.has_convex_support()
        own = len(seen)
        action = WeightAction(1, IntMatrix.from_rows([[1, 0, 0]]))
        assert theorem_pipeline(fan, action).hypotheses_met
        assert len(seen) == 2 * own
        assert action.weights not in seen


class TestCliCommands:
    def test_validate_ok(self, fan_files, capsys):
        assert main(["validate", fan_files["p2"]]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out

    def test_validate_counts_every_face_of_a12(self, tmp_path, capsys):
        path = write(tmp_path, "a12.json", fan_to_dict(affine_space(12)))
        assert main(["validate", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "valid": True, "rank": 12, "rays": 12, "max_cones": 1, "cones": 4096}

    def test_properties(self, fan_files, capsys):
        assert main(["properties", fan_files["p2"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"nondegenerate": True, "complete": True,
                        "convex_support": True, "smooth": True}

    def test_properties_not_certified(self, tmp_path, capsys):
        path = write(tmp_path, "rays_only.json", {
            "rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
            "max_cones": [[0], [1], [2], [3]]})
        assert main(["properties", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["convex_support"] == "not-certified"

    def test_cox_json(self, fan_files, capsys):
        assert main(["cox", fan_files["quadric_cone"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class_group"] == {"free": 0, "torsion": [2]}
        assert data["m"] == 2
        assert data["subgroup"] == {"torus_rank": 0, "cyclic_orders": [2]}

    @pytest.mark.parametrize("command", ["cox", "pipeline"])
    def test_request_puts_q_transpose_in_smith_form_once(
            self, command, fan_files, tmp_path, corpus, monkeypatch, capsys):
        # Q^T has full column rank, so its invariant factors come from Q^T, or
        # from Q when Q^T is not square, modulo Q^T's Bareiss pivot minor D:
        # with no elimination at D = 1 (P(1,1,2), 3 rays), with one Smith
        # elimination of the square Q^T at D = 2 (the quadric cone); no request
        # takes a Smith form with transforms
        intlin = sys.modules["coxtoric.intlin"]
        seen, smith = [], []
        real, real_snf = intlin._smith_elimination, intlin.smith_normal_form
        monkeypatch.setattr(intlin, "_smith_elimination",
                            lambda a, modulus=0: seen.append((a, modulus)) or real(a, modulus))
        for name, mod in list(sys.modules.items()):
            if name.startswith("coxtoric") and getattr(mod, "smith_normal_form", None) is real_snf:
                monkeypatch.setattr(mod, "smith_normal_form",
                                    lambda a: smith.append(a) or real_snf(a))
        for fan, eliminations, class_group in [
                ("p112", [], {"free": 1, "torsion": []}),
                ("quadric_cone", [(False, 2)], {"free": 0, "torsion": [2]})]:
            seen.clear()
            m = len(corpus[fan].rays)
            args = [command, fan_files[fan], "--json"]
            if command == "pipeline":
                weights = {"rank": 1, "weights": [[1] + [0] * (m - 1)]}
                args += ["--weights", write(tmp_path, "w.json", weights)]
            main(args)
            q = IntMatrix.from_columns(corpus[fan].rays)
            assert [(a == q, modulus) for a, modulus in seen
                    if a in (q, q.transpose())] == eliminations, fan
            assert smith == [], fan
            data = json.loads(capsys.readouterr().out)
            summary = data["cox"] if command == "pipeline" else data
            assert summary["class_group"] == class_group, fan

    def test_cox_keeps_the_files_ray_order(self, tmp_path, capsys):
        path = write(tmp_path, "swapped.json",
                     {"rank": 2, "rays": [[0, 1], [1, 0]], "max_cones": [[1, 0]]})
        assert main(["cox", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["q_matrix"] == [[0, 1], [1, 0]]
        assert data["sigma_max_cones"] == [[1, 0]]

    def test_classgroup(self, fan_files, capsys):
        assert main(["classgroup", fan_files["p112"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["free"] == 1 and data["torsion"] == []
        values = [d["free"][0] for d in data["ray_degrees"]]
        assert values in ([1, 2, 1], [-1, -2, -1])

    def test_classgroup_degenerate_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "line.json",
                     {"rank": 2, "rays": [[1, 0]], "max_cones": [[0]]})
        assert main(["classgroup", path]) == 1
        assert capsys.readouterr().err == (
            "hypothesis not met: class group requires a nondegenerate fan\n")

    def test_lift(self, fan_files, tmp_path, capsys):
        iota = write(tmp_path, "iota.json", [[0], [1]])
        assert main(["lift", fan_files["quadric_cone"], "--iota", iota, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degree"] == 2
        assert data["effective"] is True

    def test_diag(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", {
            "rank": 1, "weights": [[1, -1]],
            "monomial_matrices": [{"perm": [1, 0], "scalars": ["1/2", "0"]}]})
        assert main(["diag", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["quotient"] == "monomial"
        assert data["monomial_exponents"] == [1, 1]
        entry = data["monomial_matrices"][0]
        assert entry["commutes"] is True
        assert entry["fixes_zero_support"] is True
        assert entry["permutes_positive_support"] is True

    @pytest.mark.parametrize("scalar", ["1/2", "-1/3", "+2/4", "0", 0, -3,
                                        pytest.param("1/" + "7" * 4300, id="1/<4300 digits>")])
    def test_diag_accepts_integers_and_fractions(self, scalar, tmp_path, capsys):
        path = write(tmp_path, "w.json", {
            "rank": 1, "weights": [[1, -1]],
            "monomial_matrices": [{"perm": [1, 0], "scalars": [scalar, "0"]}]})
        assert main(["diag", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["monomial_matrices"][0]["commutes"]

    @pytest.mark.parametrize("scalar", ["1e-4000000", "0.5", "1/2.0", " 1/2", "1 / 2",
                                        "1_0", "", "/2", "1/",
                                        pytest.param("1/" + "7" * 300000, id="1/<300000 digits>")])
    def test_diag_scalar_outside_p_over_q_exits_2_at_once(self, scalar, tmp_path, capsys):
        # Fraction would take "1e-4000000" too, as an exact 4,000,000-digit
        # denominator, in seconds
        path = write(tmp_path, "w.json", {
            "rank": 1, "weights": [[1, -1]],
            "monomial_matrices": [{"perm": [1, 0], "scalars": [scalar, "0"]}]})
        start = time.perf_counter()
        assert main(["diag", path]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            'error: scalars must be a list of strings "p/q" or integers\n')

    def test_diag_zero_denominator_names_the_fraction(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", {
            "rank": 1, "weights": [[1, -1]],
            "monomial_matrices": [{"perm": [1, 0], "scalars": ["1/0", "0"]}]})
        assert main(["diag", path]) == 2
        assert capsys.readouterr().err == "error: bad scalar exponent: Fraction(1, 0)\n"

    def test_diag_takes_no_rank(self, tmp_path, capsys, count_calls):
        # the quotient's classification already requires dimension m - 1
        path = write(tmp_path, "w.json", {"rank": 2, "weights": [[1, 0, -1], [0, 1, -2]]})
        calls = count_calls(IntMatrix, "rank")
        assert main(["diag", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["subgroup_dimension"] == 2
        assert calls == {"rank": 0}

    def test_diag_point_quotient(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 1]]})
        assert main(["diag", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["quotient"] == "point"

    def test_diag_hypothesis_error_exits_1(self, tmp_path, capsys):
        # image closure has dimension 1 in (K*)^3, not the required 2
        path = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 1, 1]]})
        assert main(["diag", path]) == 1

    @pytest.mark.parametrize("command", ["properties", "cox"])
    def test_one_cone_rank_35_fan_takes_under_two_seconds(self, command, tmp_path, capsys):
        # smoothness and the class group are cokernel invariants of the 35
        # rays, read modulo their determinant: no Smith transform is built
        rng = random.Random(35)
        rays = []
        for _ in range(35):
            ray = [rng.randint(-5, 5) for _ in range(35)]
            rays.append([x // math.gcd(*ray) for x in ray])
        det = abs(det_fraction_gauss(rays))
        path = write(tmp_path, "fan.json", {"rank": 35, "rays": rays, "max_cones": [list(range(35))]})
        start = time.perf_counter()
        assert main([command, path, "--json"]) == 0
        assert time.perf_counter() - start < 2
        data = json.loads(capsys.readouterr().out)
        if command == "properties":
            assert data["smooth"] == (det == 1)
        else:
            assert data["class_group"]["free"] == 0
            assert math.prod(data["class_group"]["torsion"]) == det

    def test_diag_on_45_coordinates_takes_under_a_second(self, tmp_path, capsys):
        # the weights of ROADMAP item 3: over 120 s through a Smith form
        path = write(tmp_path, "w.json", {"rank": 44, "weights": random_weights(45)})
        start = time.perf_counter()
        assert main(["diag", path, "--json"]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["subgroup_dimension"] == 44

    @pytest.mark.parametrize("m", [20, 25, 30])
    def test_diag_equals_the_general_path(self, m, tmp_path, capsys):
        # relations from a Smith kernel basis, effectivity from the cokernel
        rows = random_weights(m)
        path = write(tmp_path, "w.json", {"rank": m - 1, "weights": rows})
        w = IntMatrix.from_rows(rows)
        exponents = classify_quotient(
            DiagonalizableSubgroup(m, IntMatrix.from_columns(kernel_basis(w), rows=m)))
        expected = {
            "effective": cokernel_invariants(w) == (0, ()),
            "subgroup_dimension": m - 1,
            "quotient": "point" if exponents is None else "monomial",
            "monomial_exponents": None if exponents is None else list(exponents),
            "monomial_matrices": [],
        }
        assert main(["diag", path, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_snf(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [[2, 0], [0, 3]])
        assert main(["snf", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["D"] == [[1, 0], [0, 6]]
        assert data["invariant_factors"] == [1, 6]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no limit on int <-> str conversion before Python 3.10.7")
    def test_integers_past_the_str_conversion_limit(self, tmp_path, capsys):
        # the Smith transforms of this matrix reach about 24,500 digits, past
        # Python's default limit of 4300 digits for int <-> str conversion
        rng = random.Random(28)
        rows = [[rng.randint(-10, 10) for _ in range(28)] for _ in range(26)]
        limit = sys.get_int_max_str_digits()
        assert main(["snf", write(tmp_path, "m.json", rows), "--json"]) == 0
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        try:
            data = json.loads(out)
        finally:
            sys.set_int_max_str_digits(limit)
        U, D, V = (IntMatrix.from_rows(data[k]) for k in "UDV")
        assert U @ IntMatrix.from_rows(rows) @ V == D
        assert max(abs(x) for row in U.entries + V.entries for x in row) > 10 ** 4300
        # an input literal past that limit stops at parse time, with a message
        path = write(tmp_path, "fan.json",
                     '{"rank": 1, "rays": [[' + "7" * 5000 + ']], "max_cones": [[0]]}')
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sys.get_int_max_str_digits() == limit

    def test_long_integer_literal_exits_2_at_parse_time(self, fan_files, tmp_path, capsys):
        # decimal parsing is quadratic in the digits: 100,000 of them are
        # refused by their count, before any is converted
        w = write(tmp_path, "w.json", '{"rank": 1, "weights": [[-' + "7" * 100000 + ', 0]]}')
        limit = sys.get_int_max_str_digits()
        assert main(["pipeline", fan_files["a2"], "--weights", w]) == 2
        assert capsys.readouterr().err == (
            f"error: {w}: an integer has 100000 digits, more than 4300\n")
        assert sys.get_int_max_str_digits() == limit
        # 4300 digits are still read
        w = write(tmp_path, "w.json", '{"rank": 1, "weights": [[' + "7" * 4300 + ', 0]]}')
        assert main(["pipeline", fan_files["a2"], "--weights", w, "--json"]) == 1

    @pytest.mark.parametrize("text", ["7" * 4301, '{"rank": 1, "weights": [[-' + "7" * 4301 + "]]}"],
                             ids=["bare", "in-weights"])
    def test_a_4301_digit_literal_just_past_4300_characters_exits_2(
            self, text, fan_files, tmp_path, capsys):
        w = write(tmp_path, "w.json", text)
        assert 4300 < len(text) <= 4330
        assert main(["pipeline", fan_files["a2"], "--weights", w]) == 2
        assert capsys.readouterr().err == (
            f"error: {w}: an integer has 4301 digits, more than 4300\n")

    @given(doc=st.recursive(
        st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=5)
        | st.integers(-10 ** 60, 10 ** 60),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=3), children, max_size=4), max_leaves=8),
        length=st.integers(1, 4300), wrapper=st.sampled_from(["{}", "-{}", '{{"rank": [-{}]}}']))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_file_of_at_most_4300_characters_reads_as_json_load_reads_it(
            self, tmp_path, doc, length, wrapper):
        # a document, and an integer literal that fills its text to `length`
        # characters, up to 4300 digits
        digits = max(1, length - len(wrapper.format("")))
        for text in (json.dumps(doc), wrapper.format("9" * digits)):
            assert len(text) <= 4300
            path = write(tmp_path, "doc.json", text)
            with open(path, encoding="utf-8") as fh:
                expected = json.load(fh)
            assert _load_json(path) == expected

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_pipeline_success_and_failure_exit_codes(self, as_json, fan_files, tmp_path, capsys):
        # a failing report is still written in full, in either format
        flag = ["--json"] if as_json else []
        w = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 0, 0]]})
        assert main(["pipeline", fan_files["bl0_a2"], "--weights", w] + flag) == 0
        out = capsys.readouterr().out
        if as_json:
            data = json.loads(out)
            assert data["hypotheses_met"] is True
            assert data["embedding"] == [[1], [0]]
        else:
            assert "hypotheses_met: True\n" in out and "embedding: [[1], [0]]\n" in out
        w2 = write(tmp_path, "w2.json", {"rank": 1, "weights": [[1, 1, 1]]})
        assert main(["pipeline", fan_files["p2"], "--weights", w2] + flag) == 1
        out = capsys.readouterr().out
        if as_json:
            data = json.loads(out)
            assert data["hypotheses_met"] is False
            assert data["diagnostic"] == "wrong-dimension"
        else:
            assert "hypotheses_met: False\n" in out and "diagnostic: wrong-dimension\n" in out

    @pytest.mark.parametrize("name", ["a1", "p1"])
    def test_pipeline_reads_a_rank_0_weights_file_on_a_rank_1_fan(
            self, name, fan_files, tmp_path, capsys):
        w = write(tmp_path, "w.json", {"rank": 0, "weights": []})
        assert main(["pipeline", fan_files[name], "--weights", w, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["hypotheses_met"] is True and data["input_torus_rank"] == 0


class TestCliErrors:
    def test_malformed_json_exit_2_with_position(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", "{bad json")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_invalid_fan_exit_2_names_pair(self, tmp_path, capsys):
        path = write(tmp_path, "overlap.json", {
            "rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
            "max_cones": [[0, 1], [2, 1]]})
        assert main(["validate", path]) == 2
        assert "overlap" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_float_matrix_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [[1.5, 0], [0, 1]])
        assert main(["snf", path]) == 2

    def test_bad_weights_shape(self, fan_files, tmp_path, capsys):
        w = write(tmp_path, "w.json", {"rank": 2, "weights": [[1, 0]]})
        assert main(["pipeline", fan_files["a2"], "--weights", w]) == 2

    def test_weights_with_a_column_per_ray_too_many_exits_2(self, fan_files, tmp_path, capsys):
        w = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 0, 0]]})
        assert main(["pipeline", fan_files["a2"], "--weights", w]) == 2
        assert capsys.readouterr().err == "error: weight matrix has 3 columns, fan has 2 rays\n"

    def test_lift_iota_off_the_span_of_the_rays_exits_2(self, tmp_path, capsys):
        fan = write(tmp_path, "ray.json", {"rank": 2, "rays": [[1, 0]], "max_cones": [[0]]})
        iota = write(tmp_path, "iota.json", [[0], [1]])
        assert main(["lift", fan, "--iota", iota]) == 2
        assert "iota leaves the rational span" in capsys.readouterr().err

    def test_line_cone_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", {
            "rank": 2, "rays": [[1, 0], [-1, 0]], "max_cones": [[0, 1]]})
        assert main(["validate", path]) == 2
        assert "line" in capsys.readouterr().err

    def test_lift_non_injective_exits_1(self, fan_files, tmp_path, capsys):
        iota = write(tmp_path, "iota.json", [[1, 2], [2, 4]])
        assert main(["lift", fan_files["p2"], "--iota", iota]) == 1

    @pytest.mark.parametrize("command", ["validate", "properties", "cox", "classgroup"])
    @pytest.mark.parametrize("rank", [2 ** 63, 10 ** 20, MAX_RAYLESS_RANK + 1])
    def test_fan_without_rays_above_the_rank_limit_exits_2(self, command, rank, tmp_path, capsys):
        path = write(tmp_path, "f.json", {"rank": rank, "rays": [], "max_cones": []})
        assert main([command, path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: a fan with no rays may have rank at most {MAX_RAYLESS_RANK}\n")

    def test_fan_without_rays_at_the_rank_limit_takes_under_a_second(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", {"rank": MAX_RAYLESS_RANK, "rays": [], "max_cones": []})
        # the class group of a degenerate fan is an unmet hypothesis, not malformed input
        for command, code in [("validate", 0), ("properties", 0), ("cox", 0), ("classgroup", 1)]:
            start = time.perf_counter()
            assert main([command, path]) == code
            assert time.perf_counter() - start < 1, command

    def test_validate_of_a_fan_without_rays_takes_no_rank_of_the_zero_cone(self, tmp_path, capsys):
        # the zero cone contains no line, so it takes no rank x rank Bareiss:
        # 0.41 s at rank 200 with one
        path = write(tmp_path, "f.json", {"rank": MAX_RAYLESS_RANK, "rays": [], "max_cones": []})
        start = time.perf_counter()
        assert main(["validate", path, "--json"]) == 0
        assert time.perf_counter() - start < 0.1
        assert json.loads(capsys.readouterr().out)["cones"] == 1

    def test_lift_iota_with_wrong_row_count_exits_2(self, fan_files, tmp_path, capsys):
        iota = write(tmp_path, "iota.json", [[1], [0], [0]])
        assert main(["lift", fan_files["p2"], "--iota", iota]) == 2
        assert capsys.readouterr().err == "error: iota must have 2 rows\n"

    MALFORMED = [
        ("validate", {"rank": 2, "rays": 5, "max_cones": [[0]]},
         "rays and max_cones must be lists"),
        ("validate", {"rank": 2, "rays": [[1, 0]], "max_cones": 3},
         "rays and max_cones must be lists"),
        ("validate", {"rank": True, "rays": [[1]], "max_cones": [[0]]},
         "rank must be a nonnegative integer"),
        ("diag", {"rank": 1, "weights": [[1, -1]], "monomial_matrices": 3},
         "monomial_matrices must be a list"),
        ("diag", {"rank": 1, "weights": [[1, -1]],
                  "monomial_matrices": [{"perm": [1, 0], "scalars": "12"}]},
         "scalars must be a list of strings"),
        ("diag", {"rank": 1, "weights": [[1, -1]],
                  "monomial_matrices": [{"perm": [1, 0], "scalars": [0.5, True]}]},
         "scalars must be a list of strings"),
        ("validate", {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 0, 1]]},
         "max_cones[0] lists a ray index more than once"),
        ("diag", {"rank": 0, "weights": []}, "weights matrix has no columns"),
        ("diag", {"rank": 1, "weights": [[]]}, "weights matrix has no columns"),
        ("diag", {"rank": 2, "weights": [[1, 0], [1]]}, "weights has rows of unequal length"),
        ("diag", {"rank": -1, "weights": []}, "weights rank must be a nonnegative integer"),
        ("diag", {"rank": 1, "weights": [[1, -1]], "monomial_matrices": [3]},
         'monomial matrix must be {"perm": [..], "scalars": ["p/q", ..]}'),
        ("diag", {"rank": 1, "weights": [[1, -1]],
                  "monomial_matrices": [{"perm": [0.5, 1], "scalars": [0, 0]}]},
         "perm must be a list of integers"),
        ("diag", {"rank": 1, "weights": [[1, -1]],
                  "monomial_matrices": [{"perm": [0, 0], "scalars": [0, 0]}]},
         "(0, 0) is not a permutation of 0..1"),
        ("validate", {"rank": 0, "rays": [[]], "max_cones": [[0]]}, "ray 0 is zero"),
        ("diag", {"rank": 1, "weights": [[1, -1]],
                  "monomial_matrices": [{"perm": [1, 0], "scalars": ["1/0", 0]}]},
         "bad scalar exponent"),
    ]

    @pytest.mark.parametrize("command, payload, message", MALFORMED,
                             ids=[f"{c}-payload{i}" for i, (c, _, _) in enumerate(MALFORMED)])
    def test_malformed_schema_exits_2(self, command, payload, message, tmp_path, capsys):
        path = write(tmp_path, "bad.json", payload)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "too-deep"])
    def test_unreadable_input_exits_2(self, kind, tmp_path, capsys):
        if kind == "directory":
            path = str(tmp_path)
        elif kind == "not-utf8":
            path = tmp_path / "bad.json"
            path.write_bytes(b"\xff\xfe\x00")
        else:
            # deeper than the recursion limit of the JSON decoder
            path = tmp_path / "deep.json"
            path.write_text("[" * 1100)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if kind == "too-deep":
            assert err == f"error: {path}: JSON nested too deeply\n"

    def test_empty_fan_validates(self, tmp_path, capsys):
        path = write(tmp_path, "torus.json", {"rank": 1, "rays": [], "max_cones": []})
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["properties", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nondegenerate"] is False


class TestDeterminism:
    def test_byte_identical_json_output(self, fan_files, tmp_path, capsys):
        w = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 0, 0]]})
        outputs = []
        for _ in range(2):
            assert main(["pipeline", fan_files["bl0_a2"], "--weights", w, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for cmd in (["properties", fan_files["p112"], "--json"],
                    ["cox", fan_files["p1xp1"], "--json"],
                    ["classgroup", fan_files["p2"], "--json"]):
            assert main(cmd) == 0
            first = capsys.readouterr().out
            assert main(cmd) == 0
            assert capsys.readouterr().out == first


# str keys and leaves with quotes, backslashes, control characters and
# non-ASCII text, ints past the 4300-digit str cap, and a float or a dict
# with int keys, which the writer leaves to json.dumps
writer_strings = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€😀\u2028') | st.characters(),
                         max_size=6)
writer_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | writer_strings | st.floats()
    | st.integers(10 ** 4300, 10 ** 4400) | st.integers(-10 ** 4400, -10 ** 4300),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(writer_strings, children, max_size=4)
    | st.dictionaries(st.integers(-3, 3), children, max_size=2),
    max_leaves=16)


class TestJsonWriter:
    """--json writes the bytes of json.dumps(payload, indent=2, sort_keys=True)."""

    @given(writer_payloads)
    @settings(max_examples=300)
    def test_writes_what_json_dumps_writes(self, payload):
        # with the cap on int <-> str conversion lifted, as main does
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                _emit(payload, True)
            assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("payload", [
        0.0, -1.5, float("inf"), [0.0], {"a": [1, {"b": 0.0}]}, {2: "x", 1: [True]},
        {"a": [{1: {"b": [0.5]}, 0: []}], "c": {}}, {"t": {True: 1, False: [None]}}, (), [[], {}],
        {"q": ("x", None)}])
    def test_floats_and_int_keys_are_json_dumps_output(self, payload):
        assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("payload", [Fraction(1, 2), {"a": [1, Fraction(1, 3)]}, {"a": 1, 1: 2}])
    def test_a_fraction_or_mixed_keys_raise_json_dumps_type_error(self, payload):
        with pytest.raises(TypeError) as expected:
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as raised:
            _json(payload)
        assert str(raised.value) == str(expected.value)


def exit_and_streams(run, argv):
    """(exit code, stdout, stderr) of `run(argv)`, an exit by SystemExit
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


SUBCOMMAND_NAMES = ["validate", "properties", "cox", "classgroup", "lift", "diag",
                    "pipeline", "snf"]


class TestParser:
    """One parser, with every subcommand, is built when `coxtoric.cli` is
    imported.  A well-formed request is parsed by its subcommand's parser
    alone, any other by the full parser; what it prints and how it exits are
    those of a freshly built parser, however many requests it has parsed."""

    @pytest.mark.parametrize("argv", [[name, flag] for name in SUBCOMMAND_NAMES
                                      for flag in ("--help", "--json")])
    def test_help_and_missing_argument_match_the_full_parser(self, argv):
        expected = exit_and_streams(lambda a: build_parser().parse_args(a), argv)
        assert expected[0] in (0, 2)
        assert [exit_and_streams(main, argv) for _ in range(2)] == [expected] * 2

    @pytest.mark.parametrize("argv", [[], ["--help"], ["--json"], ["bogus"], ["co", "x"],
                                      ["cox", "x", "y"], ["lift", "x"], ["-h", "cox"],
                                      ["cox", "x", "--no-such-flag"], ["pipeline", "x", "--weights"],
                                      ["--json", "cox", "x"], ["cox", "--", "x", "--json"], ["snf"]])
    def test_other_requests_match_the_full_parser(self, argv):
        expected = exit_and_streams(lambda a: build_parser().parse_args(a), argv)
        assert [exit_and_streams(main, argv) for _ in range(2)] == [expected] * 2

    def test_well_formed_requests_skip_the_full_parser(self, fan_files, tmp_path, monkeypatch):
        w = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 0, 0]]})
        requests = [
            ["validate", fan_files["p2"]], ["properties", fan_files["p2"], "--json"],
            ["cox", "--json", fan_files["p2"]], ["classgroup", fan_files["p112"]],
            ["lift", fan_files["quadric_cone"], "--iota", write(tmp_path, "i.json", [[0], [1]])],
            ["diag", write(tmp_path, "d.json", {"rank": 1, "weights": [[1, -1]]}), "--json"],
            ["pipeline", "--weights", w, fan_files["bl0_a2"], "--json"],
            ["snf", write(tmp_path, "m.json", [[2, 4], [6, 8]])]]
        assert sorted(argv[0] for argv in requests) == sorted(SUBCOMMAND_NAMES)
        expected = [exit_and_streams(main, argv) for argv in requests]
        assert all(code == 0 for code, _, _ in expected)

        def refuse(*args, **kwargs):
            raise AssertionError("the full parser parsed a well-formed request")

        monkeypatch.setattr(coxtoric.cli._PARSER, "parse_args", refuse)
        assert [exit_and_streams(main, argv) for argv in requests] == expected

    def test_double_dash_before_the_file_answers_as_without_it(self, fan_files):
        plain = exit_and_streams(main, ["cox", fan_files["p2"]])
        assert plain[0] == 0
        assert exit_and_streams(main, ["cox", "--", fan_files["p2"]]) == plain

    def test_the_parser_is_built_once_per_process(self, fan_files, monkeypatch):
        built = []
        real = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda self, name, **kw: built.append(name) or real(self, name, **kw))
        # import a fresh copy of the module; the original is put back afterwards
        monkeypatch.delitem(sys.modules, "coxtoric.cli")
        monkeypatch.setattr(coxtoric, "cli", coxtoric.cli)
        cli = importlib.import_module("coxtoric.cli")
        assert built == SUBCOMMAND_NAMES
        built.clear()
        assert exit_and_streams(cli.main, ["validate", fan_files["p2"]])[0] == 0
        assert exit_and_streams(cli.main, ["--help"])[0] == 0
        assert built == []

    def test_python_m_coxtoric_answers_like_main(self, fan_files, tmp_path, monkeypatch):
        # a pipeline request of tests/golden/cli_pipeline.json, and an
        # argparse error
        golden = json.loads((Path(__file__).parent / "golden" / "cli_pipeline.json").read_text())
        weights = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 0, 0]]})
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(coxtoric.__file__).parent.parent)}
        pipeline = ["pipeline", fan_files["bl0_a2"], "--weights", weights, "--json"]
        expected = [exit_and_streams(main, argv) for argv in (pipeline, ["cox"])]
        assert expected[0][:2] == (0, golden["bl0_a2"]["stdout"])
        assert expected[1][0] == 2
        for argv, streams in zip((pipeline, ["cox"]), expected):
            child = subprocess.run([sys.executable, "-m", "coxtoric", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (child.returncode, child.stdout, child.stderr) == streams

    def test_no_argv_reads_the_command_line(self, fan_files, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["coxtoric", "validate", fan_files["p2"]])
        assert main() == 0
        assert "valid: True" in capsys.readouterr().out


JSON_KEYS = ["rank", "rays", "max_cones", "weights", "monomial_matrices", "perm", "scalars"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2, width=16)
    | st.sampled_from(["", "1/2", "0", "x", "1/0"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=2), children, max_size=4),
    max_leaves=12)


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    return draw(st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def fan_like(draw):
    """A fan file with distinct nonzero rays of the stated rank and indices
    in range, which is often, but not always, a valid fan."""
    rank = draw(st.integers(1, 3))
    ray = st.lists(st.integers(-1, 1), min_size=rank, max_size=rank).filter(any)
    rays = draw(st.lists(ray, min_size=1, max_size=4, unique_by=tuple))
    index = st.integers(0, len(rays) - 1)
    cones = draw(st.lists(st.lists(index, min_size=1, max_size=rank, unique=True),
                          max_size=3))
    if draw(st.booleans()):
        used = {i for c in cones for i in c}
        cones += [[i] for i in range(len(rays)) if i not in used]
    return {"rank": rank, "rays": rays, "max_cones": cones}


# a drawn rank of 0 is kept, whatever the rows; any other rank is replaced
# by the row count, so that most actions parse
action_like = st.fixed_dictionaries(
    {"rank": st.integers(0, 2), "weights": small_matrices()},
    optional={"monomial_matrices": st.lists(st.fixed_dictionaries({
        "perm": st.permutations(range(3)) | st.lists(st.integers(-1, 3), max_size=4),
        "scalars": st.lists(st.sampled_from([0, 1, "1/2", "-1/3", "0/0", 2.5]), max_size=4),
    }), max_size=2)}).map(lambda d: {**d, "rank": len(d["weights"])} if d["rank"] else d)

# argv of each subcommand, with the shape its input files usually take;
# each file is as often arbitrary JSON instead
FUZZ_COMMANDS = {
    "validate": (["validate", "{0}"], fan_like()),
    "properties": (["properties", "{0}"], fan_like()),
    "cox": (["cox", "{0}"], fan_like()),
    "classgroup": (["classgroup", "{0}"], fan_like()),
    "lift": (["lift", "{0}", "--iota", "{1}"], fan_like(), small_matrices()),
    "diag": (["diag", "{0}"], action_like),
    "pipeline": (["pipeline", "{0}", "--weights", "{1}"], fan_like(), action_like),
    "snf": (["snf", "{0}"], small_matrices()),
}


class TestCliFuzz:
    """Random JSON, raw or shaped like a fan, a matrix or a weight action,
    fed to every subcommand: it exits 0, 1 or 2, no exception escapes, and
    exit 2 comes with an error message."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
    @given(data=st.data())
    @settings(max_examples=25)
    def test_random_json_exits_0_1_or_2(self, command, workdir, data):
        argv, *shapes = FUZZ_COMMANDS[command]
        paths = []
        for k, shape in enumerate(shapes):
            path = workdir / f"{command}{k}.json"
            path.write_text(json.dumps(data.draw(shape | json_values, label=f"file {k}")))
            paths.append(str(path))
        argv = [a.format(*paths) for a in argv]
        if data.draw(st.booleans(), label="--json"):
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert (code == 2) == err.getvalue().startswith("error: ")


def _paths(doc, path=()):
    """Path (a tuple of keys and indices) of every node of a JSON document."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, path + (key,))


# huge integers and deep nesting go into the file text as is: json.dumps
# writes no integer past Python's 4300-digit str cap, nor nests 1,100 deep
HUGE = [2 ** 64, -10 ** 30, "1" + "0" * 4301]
NESTING = [2, 40, 1100]
MUTATIONS = ["drop", "swap", "resize", "index", "huge", "nest"]


@st.composite
def mutated(draw, seed):
    """The JSON text of `seed` after one to three mutations, each at a drawn
    node: drop it, swap its type, resize it as a list, set an index that may
    be out of range, set a huge integer, or nest it deeply."""
    doc, raw = {"root": copy.deepcopy(seed)}, {}
    for _ in range(draw(st.integers(1, 3), label="mutations")):
        *path, key = ("root",) + draw(st.sampled_from(list(_paths(doc["root"]))), label="node")
        parent = doc
        for k in path:
            parent = parent[k]
        value = parent[key]
        kind = draw(st.sampled_from(MUTATIONS), label="mutation")
        if kind == "drop":
            if key == "root":
                doc["root"] = None
            else:
                del parent[key]
            continue
        if kind == "swap":
            new = draw(st.sampled_from([None, True, 0, 1.5, "x", "1/2", [], {}]))
        elif kind == "resize":
            items = value if isinstance(value, list) and value else [value]
            new = copy.deepcopy((items * 3)[:draw(st.integers(0, len(items) + 2))])
        elif kind == "index":
            new = draw(st.integers(-3, 40))
        else:
            new = f"raw{len(raw)}"
            if kind == "huge":
                raw[new] = str(draw(st.sampled_from(HUGE)))
            else:
                depth = draw(st.sampled_from(NESTING))
                raw[new] = "[" * depth + json.dumps(value) + "]" * depth
        parent[key] = new
    text = json.dumps(doc["root"])
    # later raw text may hold an earlier marker: expand the later first
    for marker in reversed(raw):
        text = text.replace(json.dumps(marker), raw[marker])
    return text


def _seed_files(fan):
    """The well-formed files of each subcommand on a corpus fan."""
    m = len(fan["rays"])
    return {
        "fan": fan,
        "iota": [[1]] + [[0]] * (fan["rank"] - 1),
        "weights": {"rank": 1, "weights": [[1] + [0] * (m - 1)]},
        "matrix": [[2, 4, 4], [-6, 6, 12]],
        "diag": {"rank": 1, "weights": [[1, -1]],
                 "monomial_matrices": [{"perm": [1, 0], "scalars": ["1/2", "0"]}]},
    }


# the files each subcommand reads, in the order of its argv
MUTATED_COMMANDS = {
    "validate": ["fan"], "properties": ["fan"], "cox": ["fan"], "classgroup": ["fan"],
    "lift": ["fan", "iota"], "diag": ["diag"], "pipeline": ["fan", "weights"], "snf": ["matrix"],
}
OPTIONS = {"iota": "--iota", "weights": "--weights"}


class TestCliMutationFuzz:
    """Corpus requests of every subcommand with mutated input files, and
    now and then a mangled command line: each exits 0, 1 or 2, within 5 s,
    with no exception escaping main."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated")

    @given(data=st.data())
    @settings(max_examples=200)
    def test_mutated_corpus_requests_exit_0_1_or_2(self, corpus, workdir, data):
        command = data.draw(st.sampled_from(sorted(MUTATED_COMMANDS)), label="command")
        fan = data.draw(st.sampled_from(sorted(corpus)), label="fan")
        seeds = _seed_files(fan_to_dict(corpus[fan]))
        argv = [command]
        for kind in MUTATED_COMMANDS[command]:
            path = workdir / f"{kind}.json"
            if data.draw(st.booleans(), label=f"mutate {kind}"):
                path.write_text(data.draw(mutated(seeds[kind]), label=kind))
            else:
                path.write_text(json.dumps(seeds[kind]))
            argv += [OPTIONS[kind], str(path)] if kind in OPTIONS else [str(path)]
        edit = data.draw(st.sampled_from(["", "", "", "--json", "--json", "--bogus", "pop"]))
        if edit == "pop":
            argv.pop()
        elif edit:
            argv.append(edit)
        start = time.perf_counter()
        code, _, err = exit_and_streams(main, argv)
        assert time.perf_counter() - start < 5
        assert code in (0, 1, 2)
        assert code != 2 or err
