"""Byte-for-byte regression of the CLI's --json output.

`golden/cli_corpus.json` holds, for each corpus fan (written with
`fan_to_dict`) and for the empty rank-1 fan, the exit code and the stdout
of `validate`, `properties`, `cox` and `classgroup` with `--json`.  The
file was produced before Sigma became a tuple of index sets and before the
face closure became lazy; this test only compares against it.
"""

import json
from pathlib import Path

import pytest

from coxtoric.cli import main
from coxtoric.corpus import corpus_fans
from coxtoric.fans import fan_to_dict

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())
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
