"""Command-line surface over JSON inputs.

Subcommands: validate, properties, cox, classgroup, lift, diag, pipeline,
snf.  Fans are read from the shared JSON schema ({"rank", "rays",
"max_cones"}, 0-based indices); matrices are row-major lists of lists;
weight actions are {"rank": r, "weights": [[..], ..]} with an optional
"monomial_matrices" list of {"perm": [..], "scalars": ["p/q", ..]}.
Exit codes: 0 success, 1 unmet hypothesis, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cox as cox_mod
from .errors import HypothesisError, ToricError, UnsupportedShapeError
from .fans import Fan, fan_from_dict
from .groups import (
    MonomialMatrix,
    WeightAction,
    classify_quotient,
    commutes_with_torus,
    decompose_subgroup,
    hyperplane_permutation_report,
    is_effective,
    subgroup_from_weights,
)
from .intlin import IntMatrix, smith_normal_form
from .pipeline import NOT_CERTIFIED, theorem_pipeline


class InputError(Exception):
    """Malformed input file (exit code 2)."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _load_fan(path: str) -> Fan:
    data = _load_json(path)
    try:
        return fan_from_dict(data)
    except ToricError as exc:
        raise InputError(f"{path}: {exc}")


def _parse_matrix(data, what: str) -> IntMatrix:
    if (not isinstance(data, list)
            or not all(isinstance(row, list) for row in data)
            or not all(type(x) is int for row in data for x in row)):
        raise InputError(f"{what} must be a list of lists of integers")
    widths = {len(row) for row in data}
    if len(widths) > 1:
        raise InputError(f"{what} has rows of unequal length")
    return IntMatrix.from_rows(data)


def _load_matrix(path: str, what: str) -> IntMatrix:
    return _parse_matrix(_load_json(path), what)


def _parse_weight_action(data) -> WeightAction:
    if not isinstance(data, dict) or "rank" not in data or "weights" not in data:
        raise InputError('weights file must be {"rank": r, "weights": [[..], ..]}')
    rank = data["rank"]
    if type(rank) is not int or rank < 0:
        raise InputError("weights rank must be a nonnegative integer")
    weights = _parse_matrix(data["weights"], "weights")
    if weights.rows != rank:
        raise InputError(f"weights matrix has {weights.rows} rows, rank says {rank}")
    return WeightAction(rank, weights)


def _parse_monomial_matrix(data) -> MonomialMatrix:
    if not isinstance(data, dict) or "perm" not in data or "scalars" not in data:
        raise InputError('monomial matrix must be {"perm": [..], "scalars": ["p/q", ..]}')
    perm = data["perm"]
    if not isinstance(perm, list) or not all(type(i) is int for i in perm):
        raise InputError("perm must be a list of integers")
    try:
        scalars = tuple(Fraction(s) for s in data["scalars"])
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"bad scalar exponent: {exc}")
    try:
        return MonomialMatrix(tuple(perm), scalars)
    except ToricError as exc:
        raise InputError(str(exc))


def _matrix_rows(m: IntMatrix) -> list[list[int]]:
    return [list(row) for row in m.entries]


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_validate(args) -> int:
    fan = _load_fan(args.fan)
    _emit({"valid": True, "rank": fan.rank, "rays": len(fan.rays),
           "max_cones": len(fan.max_cones), "cones": len(fan.all_cones)},
          args.json)
    return 0


def _cmd_properties(args) -> int:
    fan = _load_fan(args.fan)
    try:
        convex = fan.has_convex_support()
    except UnsupportedShapeError:
        convex = NOT_CERTIFIED
    _emit({
        "nondegenerate": fan.is_nondegenerate(),
        "complete": fan.is_complete(),
        "convex_support": convex,
        "smooth": cox_mod.variety_is_smooth(fan),
    }, args.json)
    return 0


def _cmd_cox(args) -> int:
    fan = _load_fan(args.fan)
    p = cox_mod.cox_presentation(fan)
    torus_rank, orders = decompose_subgroup(p.kernel_group)
    codim = cox_mod.complement_codim(p)
    payload = {
        "m": p.num_coordinates,
        "q_matrix": _matrix_rows(p.q_matrix),
        "sigma_max_cones": [list(s) for s in p.sigma],
        "subgroup": {"torus_rank": torus_rank, "cyclic_orders": list(orders)},
        "class_group": None,
        "complement_codim": codim,
        "complement_empty": codim == p.num_coordinates + 1,
    }
    if fan.is_nondegenerate():
        free, torsion = cox_mod.class_group(p)
        payload["class_group"] = {"free": free, "torsion": list(torsion)}
    _emit(payload, args.json)
    return 0


def _cmd_classgroup(args) -> int:
    fan = _load_fan(args.fan)
    p = cox_mod.cox_presentation(fan)
    free, torsion = cox_mod.class_group(p)
    degrees = cox_mod.ray_degrees(p)
    _emit({
        "free": free,
        "torsion": list(torsion),
        "ray_degrees": [{"free": list(d.free_part), "torsion": list(d.torsion_part)}
                        for d in degrees],
    }, args.json)
    return 0


def _cmd_lift(args) -> int:
    fan = _load_fan(args.fan)
    iota = _load_matrix(args.iota, "iota")
    p = cox_mod.cox_presentation(fan)
    result = cox_mod.lift_subtorus(p, iota)
    _emit({
        "degree": result.degree,
        "weights": _matrix_rows(result.weights),
        "effective": result.effective,
    }, args.json)
    return 0


def _cmd_diag(args) -> int:
    data = _load_json(args.weights)
    action = _parse_weight_action(data)
    monomial_matrices = data.get("monomial_matrices", [])
    if not isinstance(monomial_matrices, list):
        raise InputError("monomial_matrices must be a list")
    matrices = [_parse_monomial_matrix(d) for d in monomial_matrices]
    group = subgroup_from_weights(action)
    exponents = classify_quotient(group)
    payload = {
        "effective": is_effective(action),
        "subgroup_dimension": group.dimension,
        "quotient": "point" if exponents is None else "monomial",
        "monomial_exponents": None if exponents is None else list(exponents),
        "monomial_matrices": [],
    }
    for g in matrices:
        entry = {"perm": list(g.perm),
                 "commutes": commutes_with_torus(g, group)}
        if exponents is not None:
            report = hyperplane_permutation_report(g, exponents)
            entry["fixes_zero_support"] = report.fixes_zero_support
            entry["permutes_positive_support"] = report.permutes_positive_support
        payload["monomial_matrices"].append(entry)
    _emit(payload, args.json)
    return 0


def _cmd_pipeline(args) -> int:
    fan = _load_fan(args.fan)
    action = _parse_weight_action(_load_json(args.weights))
    report = theorem_pipeline(fan, action)
    _emit(report.to_dict(), args.json)
    return 0 if report.hypotheses_met else 1


def _cmd_snf(args) -> int:
    matrix = _load_matrix(args.matrix, "matrix")
    snf = smith_normal_form(matrix)
    _emit({
        "D": _matrix_rows(snf.D),
        "U": _matrix_rows(snf.U),
        "V": _matrix_rows(snf.V),
        "invariant_factors": list(snf.invariant_factors()),
        "rank": snf.rank(),
    }, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxtoric",
        description="Exact quotient presentations of toric varieties from fan data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a fan file against the fan axioms").add_argument("fan")
    add("properties", _cmd_properties,
        "nondegenerate / complete / convex-support / smooth").add_argument("fan")
    add("cox", _cmd_cox, "quotient presentation data").add_argument("fan")
    add("classgroup", _cmd_classgroup, "grading group and ray degrees").add_argument("fan")
    p_lift = add("lift", _cmd_lift, "minimal lifting degree and weights for a subtorus")
    p_lift.add_argument("fan")
    p_lift.add_argument("--iota", required=True, help="cocharacter matrix JSON")
    p_diag = add("diag", _cmd_diag, "classify a diagonal action's quotient")
    p_diag.add_argument("weights")
    p_pipe = add("pipeline", _cmd_pipeline, "full codimension-one embedding pipeline")
    p_pipe.add_argument("fan")
    p_pipe.add_argument("--weights", required=True, help="weight action JSON")
    add("snf", _cmd_snf, "Smith normal form of an integer matrix").add_argument("matrix")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 1
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
