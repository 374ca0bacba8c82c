"""Byte-for-byte regression of the CLI's --json output.

`golden/cli_corpus.json` holds, for each corpus fan (written with
`fan_to_dict`) and for the empty rank-1 fan, the exit code and the stdout
of `validate`, `properties`, `cox` and `classgroup` with `--json`.  The
file was produced before Sigma became a tuple of index sets and before the
face closure became lazy; this test only compares against it.

`golden/cli_pipeline.json` holds, for each corpus fan of rank n >= 2, the
exit code and the stdout of `pipeline --json`, with the weights file
{"rank": n-1, "weights": [e_0, ..., e_{n-2}]} of unit rows of length m.  It
was produced before `Cone.intersect` and `cone_from_rays` shared one facet
search; the test only compares against it.
"""

import json
from pathlib import Path

import pytest

from coxtoric.cli import main
from coxtoric.corpus import corpus_fans
from coxtoric.fans import fan_to_dict

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "cli_corpus.json").read_text())
GOLDEN_PIPELINE = json.loads((GOLDEN_DIR / "cli_pipeline.json").read_text())
EMPTY_FAN = {"rank": 1, "rays": [], "max_cones": []}
COMMANDS = ("validate", "properties", "cox", "classgroup")


def _fan_payloads():
    payloads = {name: fan_to_dict(fan) for name, fan in corpus_fans().items()}
    payloads["empty"] = EMPTY_FAN
    return payloads


def test_golden_covers_the_corpus_and_the_empty_fan():
    assert set(GOLDEN) == set(_fan_payloads())
    assert all(set(entry) == set(COMMANDS) for entry in GOLDEN.values())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_fan_payloads()[name]))
    for command in COMMANDS:
        code = main([command, str(path), "--json"])
        expected = GOLDEN[name][command]
        assert (code, capsys.readouterr().out) == (expected["exit"], expected["stdout"]), command


def test_pipeline_golden_covers_the_corpus_of_rank_at_least_two():
    assert set(GOLDEN_PIPELINE) == {name for name, fan in corpus_fans().items()
                                    if fan.rank >= 2}


@pytest.mark.parametrize("name", sorted(GOLDEN_PIPELINE))
def test_pipeline_output_matches_golden(name, tmp_path, capsys):
    fan = corpus_fans()[name]
    fan_path = tmp_path / f"{name}.json"
    fan_path.write_text(json.dumps(fan_to_dict(fan)))
    m = len(fan.rays)
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps({
        "rank": fan.rank - 1,
        "weights": [[int(j == i) for j in range(m)] for i in range(fan.rank - 1)]}))
    code = main(["pipeline", str(fan_path), "--weights", str(weights_path), "--json"])
    expected = GOLDEN_PIPELINE[name]
    assert (code, capsys.readouterr().out) == (expected["exit"], expected["stdout"])
