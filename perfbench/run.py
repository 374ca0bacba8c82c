"""coxtoric benchmark: one closed-loop client, one process, one thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pipeline_ladder --seed 1 --seconds 36 --trace 0

Builds its inputs from --seed (perfbench/gen.py), imports `coxtoric` from
the checkout's src/, passes over a pool of distinct ops until --seconds
have passed, checks every output with perfbench/oracle.py and
prints one JSON object as the last line of stdout.  With --trace 0 it
reports the end-to-end metrics, timing set-up in fresh child processes
(--setup-only) and scaling every time to a reference host speed
(perfbench/speed.py); with --trace 1 it wraps each layer from
outside (perfbench/tracing.py), runs traced for half of --seconds, replays
the same ops untraced to measure the overhead, and reports the per-layer
metrics.  See perfbench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import gen
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
LAYERS = ("intlin", "cones", "fans", "groups", "cox", "pipeline", "cli")
SETUP_SAMPLES = 7      # cold set-ups, each in its own child process
MIN_OPS = 100          # so that at least ten samples lie beyond the p90
# Rounds of the ladder in the pool of distinct ops that set-up generates.
# Each pool has at least MIN_OPS ops and is small enough for a run to
# pass over it three times or more (see `measure`).
POOL_ROUNDS = {"pipeline_ladder": 3, "lattice_ladder": 80, "diag_suite": 300}


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between order
    statistics, as numpy's default method computes it."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_package():
    """Import `coxtoric` afresh from the checkout's src/ and return its
    layer modules as a namespace-like object."""
    for name in [n for n in sys.modules if n == "coxtoric" or n.startswith("coxtoric.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"coxtoric.{layer}") for layer in LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"coxtoric was imported from {origin}, not from this checkout")
    return types.SimpleNamespace(**mods)


def set_up(workload, seed, workdir):
    """Import, generate, write input files and run one warm-up op."""
    cx = load_package()
    inputs = gen.generate(workload, seed, POOL_ROUNDS[workload])
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = workloads.BY_NAME[workload](cx, inputs, str(workdir))
    warm = ops[0]
    warm.check(warm.canon(warm.run()))
    return ops


def setup_times(workload, seed):
    """Time SETUP_SAMPLES cold set-ups back to back, each in a fresh
    child process that imports `coxtoric` for the first time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed in a child process:\n{child.stderr}")
        times.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return times


def canonical_bytes(out):
    """Bytes of a checked output for the digest: the captured stdout of a
    CLI request, or the sorted JSON of a library result."""
    if out is None:
        return b"<failed>"
    if isinstance(out, tuple):
        return out[1].encode()
    return json.dumps(out, sort_keys=True).encode()


class Result:
    def __init__(self):
        self.samples = []     # (pool index, start, wall seconds) of each successful run
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0       # seconds spent inside ops, failed ones included
        self.digest = hashlib.sha256()
        self.digest_ops = 0


def measure(ops, seconds=None, limit=None, min_ops=MIN_OPS, tracer=None, probes=None):
    """Run the pool of ops in order, over and over, until `seconds` of
    wall time have passed and at least `min_ops` ran, or for exactly
    `limit` ops.  Each successful run is kept in `samples`.  With
    `probes`, the reference kernel runs between ops, so that the times can
    be scaled to the reference speed.  The outputs of the first MIN_OPS
    ops feed the sha256 digest, so runs of one seed can be compared byte
    for byte."""
    res = Result()
    deadline = time.perf_counter() + (seconds or 0)
    clock = time.perf_counter_ns
    i = 0
    while True:
        if limit is not None and i >= limit:
            break
        if limit is None and i >= min_ops and time.perf_counter() >= deadline:
            break
        k = i % len(ops)
        op = ops[k]
        if probes and probes.due():
            probes.take()
        res.attempted += 1
        if tracer:
            tracer.begin_op()
        error = out = None
        t0 = clock()
        try:
            raw = op.run()
        except Exception as exc:                   # the op failed: count it, go on
            error = f"raised {exc!r}"
        t1 = clock()
        if tracer:
            tracer.end_op()
        res.busy += (t1 - t0) / 1e9
        if error is None:
            try:
                out = op.canon(raw)
                op.check(out)
            except Exception as exc:               # CheckFailed, or malformed output
                error, out = f"failed its check: {exc!r}", None
        if error is None:
            res.samples.append((k, t0 / 1e9, (t1 - t0) / 1e9))
        else:
            res.failed += 1
            print(f"op {i} {error}", file=sys.stderr)
        if i < MIN_OPS:
            res.digest.update(canonical_bytes(out) + b"\n")
            res.digest_ops += 1
        i += 1
    if probes:
        probes.take()
    return res


END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "success_rate": "ratio", "peak_rss_mb": "MB"}


def end_to_end(res, probes, setup_s):
    """Latencies and throughput are taken over the distinct ops of the
    pool, each at the median of its runs, every run scaled to the
    reference speed by `probes`."""
    ok = res.attempted - res.failed
    runs = {}
    for k, start, dt in res.samples:
        runs.setdefault(k, []).append(probes.scale(start, dt))
    lat = [statistics.median(v) for v in runs.values()] or [math.nan]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "success_rate": ok / res.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(ops, seconds, out_path):
    """Traced run, then an untraced replay of the same ops."""
    tracer = tracing.Tracer()
    tracer.install(sys.modules)
    try:
        traced = measure(ops, seconds=seconds / 2, min_ops=0, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = measure(ops, limit=traced.attempted)
    spans = tracer.spans()
    units = tracing.metric_names()
    values = tracer.metrics(spans)
    coverage = tracing.op_coverage(spans, tracer.op_start, tracer.op_end)
    values.update({
        "trace.ops_per_s": (traced.attempted - traced.failed) / traced.busy,
        "trace.untraced_ops_per_s": (plain.attempted - plain.failed) / plain.busy,
        "trace.overhead": traced.busy / plain.busy,
        "trace.coverage_p50": percentile(coverage, 50),
        "trace.coverage_p10": percentile(coverage, 10),
        "trace.coverage_min": min(coverage),
        "trace.spans": len(spans["idx"]) / traced.attempted,
    })
    tracing.write_spans(spans, out_path)
    metrics = {name: (values[name], units[name]) for name in units}
    return traced, plain, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coxtoric" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'coxtoric'} not found; run from a coxtoric checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # lattice_ladder's transforms reach over ten thousand bits; the
    # digest writes them in decimal
    sys.set_int_max_str_digits(0)

    work = BENCH / f".work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            before = speed.kernel_time()
            t0 = time.perf_counter()
            set_up(args.workload, args.seed, work)
            wall = time.perf_counter() - t0
            host = (before + speed.kernel_time()) / 2
            print(json.dumps({"setup_s": wall * speed.REF_S / host}))
            return 0
        if not args.trace:
            setups = setup_times(args.workload, args.seed)
        ops = set_up(args.workload, args.seed, work)
        if args.trace:
            (BENCH / "out").mkdir(exist_ok=True)
            spans = BENCH / "out" / f"spans-{args.workload}.tsv.gz"
            traced, plain, metrics = per_layer(ops, args.seconds, spans)
            runs = (traced, plain)
        else:
            probes = speed.Probes()
            res = measure(ops, seconds=args.seconds, min_ops=max(MIN_OPS, len(ops)),
                          probes=probes)
            print(f"passes {res.attempted / len(ops):.2f} over {len(ops)} ops; every op as "
                  f"timed, unscaled: {(res.attempted - res.failed) / res.busy:.4g} ops/s; "
                  f"kernel median {statistics.median(probes.times) * 1e3:.4f} ms over "
                  f"{len(probes.times)} probes; scaled set-ups "
                  f"{' '.join(f'{t:.4f}' for t in setups)} s")
            metrics = end_to_end(res, probes, statistics.median(setups))
            runs = (res,)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = runs[0]
    print(f"outputs_sha256 {args.workload} seed={args.seed} ops={first.digest_ops} "
          f"{first.digest.hexdigest()}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
