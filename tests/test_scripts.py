import importlib.util
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(pair, side, seed, ops, p50, digest="d", failed=0):
    metrics = {"ops_per_s": ops, "latency_p50_ms": p50}
    return {"pair": pair, "side": side, "workload": "w", "seed": seed, "outputs_sha256": digest,
            "result": {"failed": failed,
                       "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}}


def test_bench_pairs_summary_counts_wins_and_quartiles():
    runs = []
    for pair, (parent, change) in enumerate([(100, 120), (110, 118), (105, 105), (90, 130)]):
        runs += [canned_run(pair, "parent", 1 + pair % 2, parent, 1000 / parent),
                 canned_run(pair, "change", 1 + pair % 2, change, 1000 / change)]
    runs.append(canned_run(4, "parent", 1, 1, 1))            # an unfinished pair is left out
    summary = load_bench_pairs().summarize(
        runs, {"ops_per_s": "higher", "latency_p50_ms": "lower"},
        {"ops_per_s": 0.25, "latency_p50_ms": 0.25})["w"]
    assert summary["pairs"] == 4
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["outputs_equal"] is True
    ops = summary["metrics"]["ops_per_s"]
    # the tie (105, 105) counts for neither side
    assert ops["wins"] == 3
    assert ops["parent"] == {"q1": 97.5, "median": 102.5, "q3": 106.25}
    assert ops["change"]["median"] == 119
    assert ops["median_gain_exceeds_parent_iqr"] is True
    assert summary["metrics"]["latency_p50_ms"]["wins"] == 3


def test_bench_pairs_summary_flags_different_outputs_and_failures():
    runs = [canned_run(0, "parent", 1, 100, 10), canned_run(0, "change", 1, 101, 10, digest="e"),
            canned_run(1, "parent", 2, 100, 10), canned_run(1, "change", 2, 99, 11, failed=2)]
    summary = load_bench_pairs().summarize(runs, {"ops_per_s": "higher"}, {"ops_per_s": 0.25})["w"]
    assert summary["outputs_equal"] is False
    assert summary["failed"] == {"parent": 0, "change": 2}
    ops = summary["metrics"]["ops_per_s"]
    assert ops["wins"] == 1
    # a median gain of 0 does not exceed the parent's spread of 0
    assert ops["median_gain_exceeds_parent_iqr"] is False


def canned_pairs(ops):
    """Canned runs of one workload, a (parent, change) ops_per_s per pair;
    the latency is the inverse, so it falls as ops_per_s rises."""
    runs = []
    for pair, (parent, change) in enumerate(ops):
        runs += [canned_run(pair, "parent", 1 + pair % 3, parent, 1000 / parent),
                 canned_run(pair, "change", 1 + pair % 3, change, 1000 / change)]
    return load_bench_pairs().summarize(
        runs, {"ops_per_s": "higher", "latency_p50_ms": "lower"},
        {"ops_per_s": 0.25, "latency_p50_ms": 0.1})["w"]["metrics"]


def test_bench_pairs_claim_needs_nine_wins_in_ten_and_a_gain_past_the_iqr():
    # 9 wins of 10, gain 20 against a parent IQR of 2: met
    ten = [(100 + k % 3, 120) for k in range(9)] + [(100, 90)]
    assert canned_pairs(ten)["ops_per_s"]["wins"] == 9
    assert canned_pairs(ten)["ops_per_s"]["claim_met"] is True
    # 8 wins of 10: not met, though the median gain is past the IQR
    eight = ten[:8] + [(100, 90), (100, 90)]
    ops = canned_pairs(eight)["ops_per_s"]
    assert ops["median_gain_exceeds_parent_iqr"] is True
    assert ops["claim_met"] is False
    # every pair won, but by less than the parent's spread: not met
    narrow = [(90, 91), (110, 111), (95, 96), (105, 106)]
    ops = canned_pairs(narrow)["ops_per_s"]
    assert ops["wins"] == 4
    assert ops["claim_met"] is False


def test_bench_pairs_bound_is_a_fraction_of_the_parent_median():
    # ops_per_s 100 -> 76 is 24% worse (bound 25%); latency 10 -> 13.2 ms is
    # 32% worse (bound 10%)
    metrics = canned_pairs([(100, 76)] * 3)
    assert metrics["ops_per_s"]["within_bound"] is True
    assert metrics["latency_p50_ms"]["within_bound"] is False
    metrics = canned_pairs([(100, 74)] * 3)
    assert metrics["ops_per_s"]["within_bound"] is False
    # a lower latency is never out of bound, nor a higher ops_per_s
    metrics = canned_pairs([(100, 200)] * 3)
    assert metrics["ops_per_s"]["within_bound"] is True
    assert metrics["latency_p50_ms"]["within_bound"] is True
    assert metrics["latency_p50_ms"]["claim_met"] is True


def test_bench_pairs_keeps_the_fields_of_the_progress_line():
    # the line as perfbench/run.py prints it for a --trace 0 run
    lines = ["passes 10.28 over 108 ops; every op as timed, unscaled: 1.275e+03 ops/s; kernel "
             "median 0.5123 ms over 412 probes; scaled set-ups 0.0531 0.0502 0.0499 0.0512 "
             "0.0620 0.0507 0.0498 s",
             "outputs_sha256 pipeline_ladder seed=1 ops=108 abc", "{}"]
    assert load_bench_pairs().progress(lines) == {
        "passes": 10.28, "pool_ops": 108, "unscaled_ops_per_s": 1275.0, "kernel_median_ms": 0.5123,
        "probes": 412, "scaled_setups_s": [0.0531, 0.0502, 0.0499, 0.0512, 0.062, 0.0507, 0.0498]}
    assert load_bench_pairs().progress(lines[1:]) is None


FAKE_RUN = """
import os, shutil, tempfile, time

def load_package():
    pass

if __name__ == "__main__":
    work = tempfile.mkdtemp(prefix=".work-", dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.environ["FAKE_RUN_LOG"], "a") as log:
            log.write(f"{os.getpid()} {work}\\n")
        time.sleep(120)
    finally:
        shutil.rmtree(work)
"""


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_bench_pairs_stops_its_run_on_sigterm(tmp_path):
    # a checkout whose perfbench/run.py records its pid and work directory,
    # then sleeps until interrupted; SIGTERM bench_pairs.py while the run sleeps
    checkout = tmp_path / "checkout"
    (checkout / "scripts").mkdir(parents=True)
    (checkout / "perfbench").mkdir()
    shutil.copy(ROOT / "scripts" / "bench_pairs.py", checkout / "scripts")
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "fake checkout"]):
        subprocess.run(git + args, cwd=checkout, check=True, capture_output=True)
    temp, log = tmp_path / "tmp", tmp_path / "runs.txt"
    temp.mkdir()
    env = {**os.environ, "TMPDIR": str(temp), "FAKE_RUN_LOG": str(log)}
    script = subprocess.Popen(
        [sys.executable, "scripts/bench_pairs.py", "--parent", "HEAD",
         "--out", str(tmp_path / "out.json"), "w:1"],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    pid = None
    try:
        deadline = time.monotonic() + 60
        while pid is None and time.monotonic() < deadline and script.poll() is None:
            if log.exists() and log.read_text().endswith("\n"):
                pid, work = log.read_text().split()
                pid, work = int(pid), pathlib.Path(work)
            time.sleep(0.05)
        assert pid is not None and work.is_dir(), script.stderr.read() if script.poll() is not None else ""
        script.send_signal(signal.SIGTERM)
        _, stderr = script.communicate(timeout=60)
        assert not alive(pid)
        assert not work.exists()
        assert list(temp.iterdir()) == []
        assert script.returncode == 128 + signal.SIGTERM, stderr
    finally:
        if script.poll() is None:
            script.kill()
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
