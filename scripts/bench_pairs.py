#!/usr/bin/env python3
"""Run the benchmark in parent/change pairs and summarise the pairs.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py --parent REV --out BENCH_label.json \\
        lattice_ladder:10 pipeline_ladder:3 diag_suite:3

Each WORKLOAD:PAIRS argument asks for that many pairs of
`perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0` runs,
with S taken in turn from 1, 2, 3 and T the `run_seconds` of BENCHMARK.json,
the same on both sides.  Neither side runs in the working tree: the parent
side runs in a copy of revision REV and the change side in a copy of HEAD, or
of the commit that `git stash create` makes of the tracked files when they
hold uncommitted changes (untracked files are left out).  Both are extracted
with `git archive` into sibling directories of one temporary directory, with
paths of equal length.  The side that runs first alternates from pair to
pair.  Every run compiles the source it imports, as a fresh checkout does:
it gets PYTHONDONTWRITEBYTECODE=1 and a PYTHONPYCACHEPREFIX of its own,
empty, so that no bytecode, stale or warm, is read and `setup_s` times the
compilation of the package.  The output file holds every run's final JSON
line, its `outputs_sha256` line and the fields of its progress line
(passes over the pool, unscaled ops/s, the reference kernel's median and
the scaled set-up times, so that host drift can be told from program
cost); the git
revisions, the Python version and the machine; and per workload and
end-to-end metric the medians and quartiles of each side, the number of
pairs the change won, whether the change stayed inside the metric's bound
and whether it met a claimed gain's test.  It is
rewritten after every pair.  SIGTERM or SIGINT to this script stops the
running side with SIGINT, and with SIGKILL after GRACE seconds, so that no
run and no .work-* or bench-pairs-* directory is left.  Standard library only.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
GRACE = 10
PROGRESS = re.compile(r"passes (?P<passes>\S+) over (?P<ops>\d+) ops; every op as timed, "
                      r"unscaled: (?P<unscaled>\S+) ops/s; kernel median (?P<kernel>\S+) ms "
                      r"over (?P<probes>\d+) probes; scaled set-ups (?P<setups>[\d. ]*) s")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def machine():
    model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), model)
    return f"{os.cpu_count()} CPUs ({model}), {platform.platform()}"


def quartiles(values):
    """(first quartile, median, third quartile), interpolating linearly
    between order statistics as perfbench/run.py's percentile does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, better, bounds):
    """Per workload: for each metric in `better` ("higher" or "lower"), each
    side's median and quartiles and the change's wins over the pairs (ties
    count for neither side); whether the change's median is worse than the
    parent's by no more than the metric's fraction in `bounds`
    (`within_bound`); and whether the change won at least 9 pairs in 10
    with a median gain past the parent's interquartile range (`claim_met`).
    Plus failures and whether both sides printed the same outputs_sha256 for
    every seed."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        digests = {}
        for p in pairs:
            for side, r in p.items():
                digests.setdefault(r["seed"], set()).add(r["outputs_sha256"])
        summary = {"pairs": len(pairs),
                   "failed": {side: sum(p[side]["result"]["failed"] for p in pairs)
                              for side in ("parent", "change")},
                   "outputs_equal": all(len(d) == 1 for d in digests.values()),
                   "metrics": {}}
        for metric, direction in better.items() if pairs else ():
            values = {side: [p[side]["result"]["metrics"][metric]["value"] for p in pairs]
                      for side in ("parent", "change")}
            sign = 1 if direction == "higher" else -1
            entry = {side: dict(zip(("q1", "median", "q3"), quartiles(v)))
                     for side, v in values.items()}
            entry["wins"] = sum(sign * (c - p) > 0
                                for p, c in zip(values["parent"], values["change"]))
            parent = entry["parent"]
            gain = sign * (entry["change"]["median"] - parent["median"])
            entry["median_gain_exceeds_parent_iqr"] = gain > parent["q3"] - parent["q1"]
            entry["within_bound"] = -gain <= bounds[metric] * abs(parent["median"])
            entry["claim_met"] = (entry["wins"] >= 0.9 * len(pairs)
                                  and entry["median_gain_exceeds_parent_iqr"])
            summary["metrics"][metric] = entry
        out[workload] = summary
    return out


def progress(lines):
    """The fields of run.py's progress line among `lines`, or None without one."""
    found = next(filter(None, map(PROGRESS.fullmatch, lines)), None)
    if found is None:
        return None
    return {"passes": float(found["passes"]), "pool_ops": int(found["ops"]),
            "unscaled_ops_per_s": float(found["unscaled"]),
            "kernel_median_ms": float(found["kernel"]), "probes": int(found["probes"]),
            "scaled_setups_s": [float(t) for t in found["setups"].split()]}


def stop(child):
    """Send SIGINT to the process group of the run `child`, so that the
    `finally` blocks of run.py and of its --setup-only children remove their
    .work-* directories; SIGKILL the group if the run has not ended after GRACE s."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(child.pid, signal.SIGINT)
        try:
            child.communicate(timeout=GRACE)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()


def run_side(root, env, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    # a session of its own, so that stop() reaches the run and its children alone
    child = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=10 * seconds + 600)
    except BaseException:
        stop(child)
        raise
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {root}:\n{stderr}")
    lines = stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("outputs_sha256"))
    return {"outputs_sha256": digest, "progress": progress(lines), "result": json.loads(lines[-1])}


def extract(revision, root):
    """Extract `git archive` of the revision into the new directory `root`."""
    root.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", revision))) as tar:
        # the "data" filter where this Python has it, so that extraction
        # does not depend on the version's default
        if hasattr(tarfile, "data_filter"):
            tar.extractall(root, filter="data")
        else:
            tar.extractall(root)


def terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # SIGTERM unwinds like an interrupt: the running side is stopped and the
    # parent copy's temporary directory removed
    signal.signal(signal.SIGTERM, terminated)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    args = parser.parse_args(argv)
    plan = [(w, int(n)) for w, n in (item.split(":") for item in args.plan)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    head = git("rev-parse", "HEAD").decode().strip()
    # with a clean tracked tree `git stash create` prints nothing
    change = git("stash", "create").decode().strip() or head
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "parent_revision": git("rev-parse", args.parent).decode().strip(),
        "change_revision": change,
        "python": platform.python_version(),
        "machine": machine(),
        "runs": [],
    }
    if change != head:
        report["change_base_revision"] = head
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # "parent" and "change" have the same length, so the two paths do
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        extract(report["parent_revision"], sides["parent"])
        extract(change, sides["change"])
        pair = 0
        for workload, count in plan:
            for k in range(count):
                seed = SEEDS[k % len(SEEDS)]
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                           "PYTHONPYCACHEPREFIX": tempfile.mkdtemp(prefix="pycache-", dir=tmp)}
                    run = run_side(sides[side], env, workload, seed, seconds)
                    report["runs"].append({"pair": pair, "side": side, "first": position == 0,
                                           "workload": workload, "seed": seed, **run})
                    print(f"pair {pair} {workload} seed {seed} {side}: ops_per_s "
                          f"{run['result']['metrics']['ops_per_s']['value']:.1f}", flush=True)
                pair += 1
                report["summary"] = summarize(report["runs"], better, bounds)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, summary in report["summary"].items():
        print(f"{workload}: {summary['pairs']} pairs, outputs equal: {summary['outputs_equal']}")
        for metric, e in summary["metrics"].items():
            print(f"  {metric:16s} {e['parent']['median']:.4g} -> {e['change']['median']:.4g}"
                  f"  wins {e['wins']}/{summary['pairs']}  within bound {e['within_bound']}"
                  f"  claim met {e['claim_met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
