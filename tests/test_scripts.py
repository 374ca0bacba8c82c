import json
import os
import pathlib
import subprocess
import sys

from coxtoric.corpus import corpus_fans
from coxtoric.fans import fan_from_dict, fan_to_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=300)


def test_survey_prints_one_row_per_corpus_fan():
    result = run_script("survey_corpus.py")
    assert result.returncode == 0, result.stderr
    survey = result.stdout.split("\n\n")[0].splitlines()[2:]
    assert [line.split()[0] for line in survey] == list(corpus_fans())


def test_export_round_trips_every_corpus_fan(tmp_path):
    result = run_script("export_corpus.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    fans = corpus_fans()
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(fans)
    assert len(fans) == 13
    for name, fan in fans.items():
        data = json.loads((tmp_path / f"{name}.json").read_text())
        assert fan_to_dict(fan_from_dict(data)) == fan_to_dict(fan), name


def test_export_refuses_an_option_like_argument(tmp_path):
    result = run_script("export_corpus.py", "--help", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("usage: ")
    assert list(tmp_path.iterdir()) == []
