import json

import pytest

from coxtoric.cli import main
from coxtoric.cones import cone_from_rays
from coxtoric.corpus import corpus_fans
from coxtoric.fans import fan_from_max_cones, fan_to_dict
from coxtoric.groups import WeightAction
from coxtoric.intlin import IntMatrix
from coxtoric.pipeline import theorem_pipeline


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

    def test_projective_plane_diagonal_torus_rejected(self, corpus):
        # W = [1,1,1] lands inside the kernel subgroup: the group generated by
        # the lifted torus and H is too small, never reported as success
        report = theorem_pipeline(corpus["p2"],
                                  WeightAction(1, IntMatrix.from_rows([[1, 1, 1]])))
        assert not report.hypotheses_met
        assert report.diagnostic == "wrong-dimension"
        assert report.embedding is None
        assert report.combined_dimension == 1

    def test_degenerate_fan_diagnostic(self):
        fan = fan_from_max_cones(2, [cone_from_rays(2, [(1, 0)])])
        report = theorem_pipeline(fan, WeightAction(1, IntMatrix.from_rows([[1]])))
        assert report.diagnostic == "degenerate-fan"

    def test_holes_not_certified_diagnostic(self):
        fan = fan_from_max_cones(2, [cone_from_rays(2, [r])
                                     for r in [(1, 0), (0, 1), (-1, 0), (0, -1)]])
        report = theorem_pipeline(fan, WeightAction(1, IntMatrix.from_rows([[1, 0, 0, 0]])))
        assert report.diagnostic == "holes-not-certified"
        assert report.no_small_holes_certified == "not-certified"

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


class TestCliCommands:
    def test_validate_ok(self, fan_files, capsys):
        assert main(["validate", fan_files["p2"]]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out

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

    def test_diag_point_quotient(self, tmp_path, capsys):
        path = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 1]]})
        assert main(["diag", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["quotient"] == "point"

    def test_diag_hypothesis_error_exits_1(self, tmp_path, capsys):
        # image closure has dimension 1 in (K*)^3, not the required 2
        path = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 1, 1]]})
        assert main(["diag", path]) == 1

    def test_snf(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", [[2, 0], [0, 3]])
        assert main(["snf", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["D"] == [[1, 0], [0, 6]]
        assert data["invariant_factors"] == [1, 6]

    def test_pipeline_success_and_failure_exit_codes(self, fan_files, tmp_path, capsys):
        w = write(tmp_path, "w.json", {"rank": 1, "weights": [[1, 0, 0]]})
        assert main(["pipeline", fan_files["bl0_a2"], "--weights", w, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["hypotheses_met"] is True
        assert data["embedding"] == [[1], [0]]
        w2 = write(tmp_path, "w2.json", {"rank": 1, "weights": [[1, 1, 1]]})
        assert main(["pipeline", fan_files["p2"], "--weights", w2, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["diagnostic"] == "wrong-dimension"


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

    def test_line_cone_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", {
            "rank": 2, "rays": [[1, 0], [-1, 0]], "max_cones": [[0, 1]]})
        assert main(["validate", path]) == 2
        assert "line" in capsys.readouterr().err

    def test_lift_non_injective_exits_1(self, fan_files, tmp_path, capsys):
        iota = write(tmp_path, "iota.json", [[1, 2], [2, 4]])
        assert main(["lift", fan_files["p2"], "--iota", iota]) == 1

    @pytest.mark.parametrize("command, payload", [
        ("validate", {"rank": 2, "rays": 5, "max_cones": [[0]]}),
        ("validate", {"rank": 2, "rays": [[1, 0]], "max_cones": 3}),
        ("validate", {"rank": True, "rays": [[1]], "max_cones": [[0]]}),
        ("diag", {"rank": 1, "weights": [[1, -1]], "monomial_matrices": 3}),
    ])
    def test_malformed_schema_exits_2(self, command, payload, tmp_path, capsys):
        path = write(tmp_path, "bad.json", payload)
        assert main([command, path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
