"""The benchmark's operations: each workload turns generated inputs into a
list of Op, each a call into `coxtoric` plus the oracle check of its output.

Library functions are looked up on their modules at call time, so that
wrappers installed by the traced run are the ones called.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import oracle


@dataclass
class Op:
    run: Callable[[], Any]            # the timed call into coxtoric
    canon: Callable[[Any], Any]       # raw result -> plain data (untimed)
    check: Callable[[Any], None]      # raises oracle.CheckFailed (untimed)


def rows(matrix):
    return [list(r) for r in matrix.entries]


def _cli_call(cli, argv):
    """(exit code, stdout) of one in-process CLI request.  A SystemExit,
    as argparse raises on rejected arguments, becomes its exit code, so
    the oracle counts it like any other failing exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue()


def pipeline_ops(cx, inputs, workdir):
    """Two CLI requests per fan, `cox --json` and `pipeline --json
    --weights`, run in process through coxtoric.cli.main."""
    ops = []
    for k, (_, fan, weights) in enumerate(inputs):
        fan_path = os.path.join(workdir, f"fan{k}.json")
        with open(fan_path, "w", encoding="utf-8") as fh:
            json.dump(fan, fh)
        ops.append(Op(lambda a=["cox", fan_path, "--json"]: _cli_call(cx.cli, a),
                      lambda raw: raw,
                      lambda out, fan=fan: oracle.check_cox(fan, *out)))
        if weights is None:
            continue
        w_path = os.path.join(workdir, f"weights{k}.json")
        with open(w_path, "w", encoding="utf-8") as fh:
            json.dump(weights, fh)
        argv = ["pipeline", fan_path, "--json", "--weights", w_path]
        ops.append(Op(lambda a=argv: _cli_call(cx.cli, a),
                      lambda raw: raw,
                      lambda out, fan=fan, w=weights: oracle.check_pipeline(fan, w, *out)))
    return ops


def _lattice_run(intlin, a, b):
    A = intlin.IntMatrix.from_rows(a)
    return (intlin.smith_normal_form(A), intlin.column_hermite_normal_form(A),
            intlin.kernel_basis(A), intlin.saturation_basis(A), intlin.solve_integer(A, b))


def _lattice_canon(raw):
    snf, (H, V, _), kernel, sat, x = raw
    return {"snf": [rows(snf.U), rows(snf.D), rows(snf.V)], "hnf": [rows(H), rows(V)],
            "kernel": [list(k) for k in kernel], "saturation": rows(sat),
            "solution": None if x is None else list(x)}


def lattice_ops(cx, inputs, workdir):
    """One op: SNF, column HNF, kernel, saturation and one integer solve."""
    return [Op(lambda a=a, b=b: _lattice_run(cx.intlin, a, b), _lattice_canon,
               lambda out, a=a, b=b: oracle.check_lattice(a, b, out))
            for a, b in inputs]


def _diag_run(cx, req):
    g = cx.groups
    if "relations" in req:
        group = g.DiagonalizableSubgroup(
            len(req["relations"]), cx.intlin.IntMatrix.from_columns([req["relations"]]))
        effective = None
    else:
        action = g.WeightAction(req["rank"], cx.intlin.IntMatrix.from_rows(req["weights"]))
        group = g.subgroup_from_weights(action)
        effective = g.is_effective(action)
    exponents = g.classify_quotient(group)
    matrices = []
    for spec in req["monomial_matrices"]:
        mm = g.MonomialMatrix(tuple(spec["perm"]), tuple(spec["scalars"]))
        report = None if exponents is None else g.hyperplane_permutation_report(mm, exponents)
        matrices.append((g.commutes_with_torus(mm, group), g.centralizes_torus(mm, group), report))
    return effective, exponents, matrices, g.character_root_isogeny(req["xi"], req["d"])


def _diag_canon(raw):
    effective, exponents, matrices, (kappa, xi0) = raw
    return {"effective": effective,
            "exponents": None if exponents is None else list(exponents),
            "monomial_matrices": [[c, z, None if r is None else
                                   [r.fixes_zero_support, r.permutes_positive_support]]
                                  for c, z, r in matrices],
            "isogeny": [rows(kappa), list(xi0)]}


def diag_ops(cx, inputs, workdir):
    """One op: a corank-one subgroup, its quotient classification, three
    monomial matrices checked against it, one character-root isogeny."""
    return [Op(lambda r=req: _diag_run(cx, r), _diag_canon,
               lambda out, r=req: oracle.check_diag(r, out))
            for req in inputs]


BY_NAME = {
    "pipeline_ladder": pipeline_ops,
    "lattice_ladder": lattice_ops,
    "diag_suite": diag_ops,
}
