"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import ast
import copy
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("pipeline_ladder", "lattice_ladder", "diag_suite")


@pytest.fixture(scope="module")
def cx():
    return run.load_package()


# --- generator ------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    def dump(seed):
        return json.dumps(gen.generate(workload, seed, 2), sort_keys=True).encode()

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


def test_generator_imports_nothing_from_coxtoric():
    for name in ("gen.py", "oracle.py"):
        tree = ast.parse((BENCH / name).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not any(m and m.startswith("coxtoric") for m in imported), name


def test_generated_fans_are_valid_and_keep_ray_order(cx):
    for _, fan, _ in gen.generate("pipeline_ladder", 3, 1):
        parsed = cx.fans.fan_from_dict(fan)
        assert [list(r) for r in parsed.rays] == fan["rays"]


# --- tracing --------------------------------------------------------------

def _bindings(modules, original):
    return {(name, key) for name, mod in modules.items()
            if name == "coxtoric" or name.startswith("coxtoric.")
            for key, value in vars(mod).items() if value is original}


def test_wrappers_cover_every_binding_and_are_removed(cx):
    modules = dict(sys.modules)
    originals = {}
    traced = [(s.layer, s.name) for s in tracing.SPECS]
    traced += [(layer, name) for layer, name, _ in tracing.COUNTED]
    for layer, name in traced:
        owner, attr = tracing._target(modules, layer, name)
        originals[(layer, name)] = (owner, attr, getattr(owner, attr))
    sat = originals[("intlin", "saturation_basis")][2]
    assert {m for m, _ in _bindings(modules, sat)} == {
        "coxtoric.intlin", "coxtoric.cones", "coxtoric.fans", "coxtoric.pipeline"}

    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for owner, attr, original in originals.values():
            if isinstance(owner, type):
                assert getattr(owner, attr).__wrapped__ is original
            else:
                assert not _bindings(modules, original)
        assert cx.pipeline.saturation_basis.__wrapped__ is sat
        tracer.begin_op()
        cx.cones.cone_from_rays(2, [(1, 0), (1, 2)])
        tracer.end_op()
    finally:
        tracer.uninstall()

    spans = tracer.spans()
    names = [tracing.SPECS[k].name for k in spans["name"]]
    assert names[0] == "cone_from_rays" and spans["parent"][0] == -1
    assert "dual_constraints" in names and "kernel_basis" in names
    assert all(p < i for i, p in enumerate(spans["parent"]))
    for (layer, name), (owner, attr, original) in originals.items():
        assert getattr(owner, attr) is original
        if not isinstance(owner, type):
            assert all(getattr(modules[m], k) is original
                       for m, k in _bindings(modules, original))
    for mod in (m for n, m in modules.items() if n.startswith("coxtoric")):
        assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values())


class _FixedSpeed:
    """Probes of a host whose kernel always takes twice REF_S."""

    def due(self):
        return False

    def take(self):
        pass

    def scale(self, start, dt):
        return dt / 2


def test_measure_keeps_every_run_and_takes_each_ops_median(monkeypatch):
    # two ops, three passes: op 0 takes 50, 70, 90 ns; op 1 takes 30, 10, 20
    ticks = iter([0, 50, 100, 130, 200, 270, 300, 310, 400, 490, 500, 520])
    monkeypatch.setattr(run.time, "perf_counter_ns", lambda: next(ticks))
    ops = [workloads.Op(run=lambda: None, canon=lambda raw: {}, check=lambda out: None)
           for _ in range(2)]
    res = run.measure(ops, limit=6, probes=_FixedSpeed())
    assert res.attempted == 6 and res.failed == 0
    assert [(k, dt) for k, _, dt in res.samples] == pytest.approx(
        [(0, 50e-9), (1, 30e-9), (0, 70e-9), (1, 10e-9), (0, 90e-9), (1, 20e-9)])
    metrics = run.end_to_end(res, _FixedSpeed(), 1.0)
    # medians 70 and 20 ns, halved by the scaling
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 45e-9)
    assert metrics["latency_p50_ms"][0] == pytest.approx(22.5e-6)
    assert metrics["setup_s"][0] == 1.0


def test_scaling_uses_the_probes_around_each_run():
    probes = speed.Probes()
    probes.ends, probes.times = [1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3]
    assert probes.scale(1.5, 0.2) == pytest.approx(0.2 / 1.5)    # between probes 1 and 2
    assert probes.scale(2.1, 0.5) == pytest.approx(0.5 / 3.0)    # between probes 2 and 3
    assert probes.scale(0.5, 0.1) == pytest.approx(0.1)          # before the first probe
    assert probes.scale(3.5, 0.1) == pytest.approx(0.1 / 4.0)    # after the last probe
    assert 0 < speed.kernel_time() < 1


def test_setup_only_times_one_cold_set_up():
    times = run.setup_times("diag_suite", 3)
    assert len(times) == run.SETUP_SAMPLES and all(t > 0 for t in times)
    assert not list(BENCH.glob(".work-*"))


def test_percentile():
    assert run.percentile(range(1, 11), 50) == 5.5
    assert run.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert run.percentile([3], 90) == 3
    assert run.percentile([4, 1, 3, 2], 0) == 1


def test_self_times_and_coverage_on_a_hand_made_span_list():
    # A [0, 100] with children B [10, 40] (2 ns of wrapper bookkeeping)
    # and C [50, 90]; C has child D [60, 70] (1 ns); E is a second op.
    spans = {
        "start":  [0, 10, 50, 60, 200],
        "end":    [100, 40, 90, 70, 260],
        "overhead": [5, 2, 0, 1, 0],
        "parent": [-1, 0, 0, 2, -1],
        "op":     [0, 0, 0, 0, 1],
    }
    assert tracing.self_times(spans) == [100 - 32 - 40, 30, 40 - 11, 10, 60]
    assert tracing.op_coverage(spans, [-5, 190], [105, 270]) == [105 / 110, 60 / 80]


# --- output checks --------------------------------------------------------

def _run_first(ops):
    op = ops[0]
    out = op.canon(op.run())
    op.check(out)
    return op, out


def _rejects(op, out, corrupt):
    """`corrupt` edits a copy of a dict output in place, or returns a new
    (exit code, stdout) pair for a CLI output."""
    bad = copy.deepcopy(out)
    replaced = corrupt(bad)
    if isinstance(out, tuple):
        bad = replaced
    with pytest.raises(oracle.CheckFailed):
        op.check(bad)


def _edit_json(out, edit):
    code, text = out
    data = json.loads(text)
    edit(data)
    return code, json.dumps(data)


def test_pipeline_checks_reject_corruption(cx, tmp_path):
    inputs = [item for item in gen.generate("pipeline_ladder", 1, 1) if item[0] == "p2"]
    ops = workloads.pipeline_ops(cx, inputs, str(tmp_path))
    cox_op, cox_out = _run_first(ops)
    pipe_op, pipe_out = _run_first(ops[1:])

    _rejects(cox_op, cox_out, lambda o: (2, o[1]))
    _rejects(cox_op, cox_out, lambda o: (0, "not json"))
    _rejects(cox_op, cox_out, lambda o: _edit_json(o, lambda d: d.update(complement_codim=1)))
    _rejects(cox_op, cox_out, lambda o: _edit_json(
        o, lambda d: d["class_group"].update(free=d["class_group"]["free"] + 1)))

    _rejects(pipe_op, pipe_out, lambda o: (2, o[1]))
    _rejects(pipe_op, pipe_out, lambda o: _edit_json(
        o, lambda d: d["embedding"][0].__setitem__(0, d["embedding"][0][0] + 1)))
    _rejects(pipe_op, pipe_out, lambda o: _edit_json(
        o, lambda d: d.update(hypotheses_met=False, embedding=None)))


def test_rejected_cli_arguments_fail_the_op_without_ending_the_run(cx):
    code, _ = workloads._cli_call(cx.cli, ["pipeline", "--no-such-flag"])
    assert code == 2
    with pytest.raises(oracle.CheckFailed, match="exited 2"):
        oracle.check_pipeline({"rank": 1, "rays": [[1]], "cones": [[0]]}, None, code, "")


def test_lattice_checks_reject_corruption(cx):
    ops = workloads.lattice_ops(cx, [gen.lattice_matrix(random.Random(1), 8)], None)
    op, out = _run_first(ops)

    def bump(matrix, i, j):
        matrix[i][j] += 1

    _rejects(op, out, lambda o: bump(o["snf"][0], 0, 0))
    _rejects(op, out, lambda o: bump(o["snf"][1], 0, 1))
    _rejects(op, out, lambda o: o["snf"][1][0].__setitem__(0, -o["snf"][1][0][0] or -1))
    _rejects(op, out, lambda o: bump(o["hnf"][0], 0, 0))
    _rejects(op, out, lambda o: o["kernel"].pop())
    _rejects(op, out, lambda o: bump(o["kernel"], 0, 0))
    _rejects(op, out, lambda o: o["kernel"].__setitem__(0, [0] * len(o["kernel"][0])))
    _rejects(op, out, lambda o: o["kernel"].__setitem__(0, list(o["kernel"][1])))

    def double(matrix):
        matrix[:] = [[2 * x for x in row] for row in matrix]

    _rejects(op, out, lambda o: (double(o["snf"][0]), double(o["snf"][1])))
    _rejects(op, out, lambda o: (double(o["snf"][1]), double(o["snf"][2])))
    _rejects(op, out, lambda o: (double(o["hnf"][0]), double(o["hnf"][1])))
    _rejects(op, out, lambda o: o.update(saturation=[row[:-1] for row in o["saturation"]]))
    _rejects(op, out, lambda o: o.update(solution=None))
    _rejects(op, out, lambda o: bump([o["solution"]], 0, 0))


def test_lattice_check_rejects_a_broken_divisibility_chain():
    a = [[2, 0], [0, 3]]
    good = {"snf": [[[1, 0], [0, 1]], [[2, 0], [0, 3]], [[1, 0], [0, 1]]],
            "hnf": [a, [[1, 0], [0, 1]]], "kernel": [], "saturation": [[1, 0], [0, 1]],
            "solution": [1, 1]}
    with pytest.raises(oracle.CheckFailed, match="divisibility"):
        oracle.check_lattice(a, [2, 3], good)


def test_saturation_check_rejects_a_rank_deficient_basis():
    a = [[1, 2], [2, 4]]
    out = {"snf": [[[1, 0], [-2, 1]], [[1, 0], [0, 0]], [[1, -2], [0, 1]]],
           "hnf": [[[1, 0], [2, 0]], [[1, -2], [0, 1]]], "kernel": [[-2, 1]],
           "saturation": [[1], [2]], "solution": [1, 0]}
    oracle.check_lattice(a, [1, 2], out)
    out["saturation"] = [[0], [0]]
    with pytest.raises(oracle.CheckFailed, match="saturation rank"):
        oracle.check_lattice(a, [1, 2], out)


def test_diag_checks_reject_corruption(cx):
    rng = random.Random(2)
    reqs = [gen.diag_request(rng, 4) for _ in range(40)]
    for req in reqs:
        op, out = _run_first(workloads.diag_ops(cx, [req], None))
        if out["exponents"] is None:
            _rejects(op, out, lambda o: o.update(exponents=[1, 0, 0, 0]))
        else:
            _rejects(op, out, lambda o: o.update(exponents=None))
            _rejects(op, out, lambda o: o.update(exponents=[2 * x for x in o["exponents"]]))
        _rejects(op, out, lambda o: o["isogeny"][1].__setitem__(0, o["isogeny"][1][0] + 1))
    assert {"relations" in r for r in reqs} == {True, False}


# --- BENCHMARK.json -------------------------------------------------------

def test_benchmark_json_names_match_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.metric_names())
    assert all(m["unit"] == tracing.metric_names()[m["name"]] for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
