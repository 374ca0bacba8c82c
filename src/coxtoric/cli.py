"""Command-line surface over JSON inputs.

Subcommands: validate, properties, cox, classgroup, lift, diag, pipeline,
snf.  Fans are read from the shared JSON schema ({"rank", "rays",
"max_cones"}, 0-based indices); matrices are row-major lists of lists;
weight actions are {"rank": r, "weights": [[..], ..]} with an optional
"monomial_matrices" list of {"perm": [..], "scalars": [..]}, each scalar a
string "p/q" or an integer.
Each handler returns its payload; `main` writes it, as text or with --json,
and picks the exit code: 0 success, 1 unmet hypothesis, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cox as cox_mod
from .errors import HypothesisError, ToricError
from .fans import Fan, fan_from_dict
from .groups import (
    MonomialMatrix,
    WeightAction,
    classify_quotient,
    commutes_with_torus,
    hyperplane_permutation_report,
    is_effective,
    subgroup_from_weights,
)
from .intlin import IntMatrix, smith_normal_form
from .pipeline import convex_support_verdict, presentation_summary, theorem_pipeline


class InputError(Exception):
    """Malformed input file (exit code 2)."""


def _load_json(path: str):
    def parse_int(literal: str) -> int:
        # Python's default digit cap, which `main` lifts: parsing is quadratic
        digits = len(literal.lstrip("-"))
        if digits > 4300:
            raise InputError(f"{path}: an integer has {digits} digits, more than 4300")
        return int(literal)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")


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


def _parse_weight_action(data, cols: int | None = None) -> WeightAction:
    """`cols`, when given, is the width of a rank-0 action's weight matrix,
    which its empty list of rows does not carry."""
    if not isinstance(data, dict) or "rank" not in data or "weights" not in data:
        raise InputError('weights file must be {"rank": r, "weights": [[..], ..]}')
    rank = data["rank"]
    if type(rank) is not int or rank < 0:
        raise InputError("weights rank must be a nonnegative integer")
    weights = _parse_matrix(data["weights"], "weights")
    if weights.rows != rank:
        raise InputError(f"weights matrix has {weights.rows} rows, rank says {rank}")
    if rank == 0 and cols is not None:
        weights = IntMatrix.zero(0, cols)
    return WeightAction(rank, weights)


def _parse_monomial_matrix(data) -> MonomialMatrix:
    if not isinstance(data, dict) or "perm" not in data or "scalars" not in data:
        raise InputError('monomial matrix must be {"perm": [..], "scalars": ["p/q", ..]}')
    perm = data["perm"]
    if not isinstance(perm, list) or not all(type(i) is int for i in perm):
        raise InputError("perm must be a list of integers")
    scalars = data["scalars"]
    if isinstance(scalars, list) and all(type(s) is int or isinstance(s, str) for s in scalars):
        # MonomialMatrix reads the strings: it owns the "p/q" grammar
        try:
            return MonomialMatrix(tuple(perm), tuple(scalars))
        except ZeroDivisionError as exc:
            raise InputError(f"bad scalar exponent: {exc}")
        except ToricError as exc:
            raise InputError(str(exc))
        except ValueError:
            pass
    raise InputError('scalars must be a list of strings "p/q" or integers')


def _matrix_rows(m: IntMatrix) -> list[list[int]]:
    return [list(row) for row in m.entries]


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_validate(args) -> dict:
    fan = _load_fan(args.fan)
    return {"valid": True, "rank": fan.rank, "rays": len(fan.rays),
            "max_cones": len(fan.max_cones), "cones": len(fan.all_cones)}


def _cmd_properties(args) -> dict:
    fan = _load_fan(args.fan)
    return {
        "nondegenerate": fan.is_nondegenerate(),
        "complete": fan.is_complete(),
        "convex_support": convex_support_verdict(fan),
        "smooth": cox_mod.variety_is_smooth(fan),
    }


def _cmd_cox(args) -> dict:
    fan = _load_fan(args.fan)
    p = cox_mod.cox_presentation(fan)
    _, subgroup, class_group = presentation_summary(p)
    codim = cox_mod.complement_codim(p)
    return {
        "m": p.num_coordinates,
        "q_matrix": _matrix_rows(p.q_matrix),
        "sigma_max_cones": [list(s) for s in p.sigma],
        "subgroup": subgroup,
        "class_group": class_group,
        "complement_codim": codim,
        "complement_empty": codim == p.num_coordinates + 1,
    }


def _cmd_classgroup(args) -> dict:
    fan = _load_fan(args.fan)
    p = cox_mod.cox_presentation(fan)
    free, torsion = cox_mod.class_group(p)
    degrees = cox_mod.ray_degrees(p)
    return {
        "free": free,
        "torsion": list(torsion),
        "ray_degrees": [{"free": list(d.free_part), "torsion": list(d.torsion_part)}
                        for d in degrees],
    }


def _cmd_lift(args) -> dict:
    fan = _load_fan(args.fan)
    iota = _parse_matrix(_load_json(args.iota), "iota")
    p = cox_mod.cox_presentation(fan)
    result = cox_mod.lift_subtorus(p, iota)
    return {
        "degree": result.degree,
        "weights": _matrix_rows(result.weights),
        "effective": result.effective,
    }


def _cmd_diag(args) -> dict:
    data = _load_json(args.weights)
    action = _parse_weight_action(data)
    if action.weights.cols == 0:
        raise InputError("weights matrix has no columns: the action has no coordinates")
    monomial_matrices = data.get("monomial_matrices", [])
    if not isinstance(monomial_matrices, list):
        raise InputError("monomial_matrices must be a list")
    matrices = [_parse_monomial_matrix(d) for d in monomial_matrices]
    group = subgroup_from_weights(action)
    exponents = classify_quotient(group)
    payload = {
        "effective": is_effective(action),
        # classify_quotient raised unless the subgroup has dimension m - 1
        "subgroup_dimension": group.ambient - 1,
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
    return payload


def _cmd_pipeline(args) -> dict:
    fan = _load_fan(args.fan)
    action = _parse_weight_action(_load_json(args.weights), len(fan.rays))
    return theorem_pipeline(fan, action).to_dict()


def _cmd_snf(args) -> dict:
    matrix = _parse_matrix(_load_json(args.matrix), "matrix")
    snf = smith_normal_form(matrix)
    return {
        "D": _matrix_rows(snf.D),
        "U": _matrix_rows(snf.U),
        "V": _matrix_rows(snf.V),
        "invariant_factors": list(snf.invariant_factors()),
        "rank": snf.rank(),
    }


# name: (handler, help, positional argument[, required option, its help])
_SUBCOMMANDS = {
    "validate": (_cmd_validate, "check a fan file against the fan axioms", "fan"),
    "properties": (_cmd_properties, "nondegenerate / complete / convex-support / smooth", "fan"),
    "cox": (_cmd_cox, "quotient presentation data", "fan"),
    "classgroup": (_cmd_classgroup, "grading group and ray degrees", "fan"),
    "lift": (_cmd_lift, "minimal lifting degree and weights for a subtorus", "fan",
             "--iota", "cocharacter matrix JSON"),
    "diag": (_cmd_diag, "classify a diagonal action's quotient", "weights"),
    "pipeline": (_cmd_pipeline, "full codimension-one embedding pipeline", "fan",
                 "--weights", "weight action JSON"),
    "snf": (_cmd_snf, "Smith normal form of an integer matrix", "matrix"),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="coxtoric",
        description="Exact quotient presentations of toric varieties from fan data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positional, *option) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(positional)
        if option:
            p.add_argument(option[0], required=True, help=option[1])
        p.set_defaults(func=func)
    return parser


# built once per process; parsing a request leaves it unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # derived integers are written exactly, however long: lift the cap that
    # Python 3.10.7+ puts on int <-> str conversion (0 = none) for this request
    previous_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if previous_limit:
        sys.set_int_max_str_digits(0)
    try:
        payload = args.func(args)
        _emit(payload, args.json)
        return 0 if payload.get("hypotheses_met", True) else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 1
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous_limit:
            sys.set_int_max_str_digits(previous_limit)


if __name__ == "__main__":
    sys.exit(main())
