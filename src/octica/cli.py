"""Command-line frontend.

Subcommands:
  linsys         dimension (and optionally a basis) of a constrained system
  classify       singularity type of a germ or of a curve at a point
  profile        full singularity profile of a plane curve
  param-analyze  generic rank, rank-drop locus and kernel comparison of a
                 parametric condition matrix
  catalog        the stratum catalogue
  diagram        degeneration diagrams as DOT
  verify         the lemma-check suites

Exit codes: 0 success, 1 invalid input, 2 failed internal check.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .linsys import (AnchorError, ConeDirection, ContainsCurve, HomForm, LineContact,
                     MultiplicityAtPoint, NNDegenerateAt, NNPointWithTangent,
                     condition_ideal_graded_piece)
from .parsing import ParseError, parse_poly
from .poly import MultiPoly


class UserError(ValueError):
    pass


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise UserError(f"not a rational number: {text!r}") from e


def _point(value) -> tuple:
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = value
    if len(parts) != 3:
        raise UserError(f"a point needs three coordinates: {value!r}")
    return tuple(_fraction(p) for p in parts)


def _form(text, degree=None) -> MultiPoly:
    try:
        poly = parse_poly(str(text))
    except ParseError as e:
        raise UserError(str(e)) from e
    if degree is not None and not all(sum(e) == degree for e in poly.terms):
        raise UserError(f"form {text!r} is not homogeneous of degree {degree}")
    return poly


CONDITION_KEYS = {
    "multiplicity": {"required": {"point", "order"}, "optional": set()},
    "nn_point": {"required": {"point", "tangent", "order"}, "optional": {"degenerate", "direction"}},
    "cone_direction": {"required": {"point", "tangent", "multiplicity"}, "optional": {"power"}},
    "contains": {"required": {"form"}, "optional": {"multiplicity"}},
    "line_contact": {"required": {"point", "line", "order"}, "optional": set()},
}


def parse_condition(entry: dict):
    if not isinstance(entry, dict) or "kind" not in entry:
        raise UserError(f"condition must be an object with a 'kind': {entry!r}")
    kind = entry["kind"]
    if kind not in CONDITION_KEYS:
        raise UserError(f"unknown condition kind {kind!r}")
    spec = CONDITION_KEYS[kind]
    keys = set(entry) - {"kind"}
    missing = spec["required"] - keys
    extra = keys - spec["required"] - spec["optional"]
    if missing or extra:
        raise UserError(f"condition {kind}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    try:
        if kind == "multiplicity":
            return MultiplicityAtPoint(_point(entry["point"]), int(entry["order"]))
        if kind == "nn_point":
            if "direction" in entry:
                return NNDegenerateAt(_point(entry["point"]), _form(entry["tangent"], 1),
                                      int(entry["order"]), _fraction(entry["direction"]))
            return NNPointWithTangent(_point(entry["point"]), _form(entry["tangent"], 1),
                                      int(entry["order"]), bool(entry.get("degenerate", False)))
        if kind == "cone_direction":
            return ConeDirection(_point(entry["point"]), _form(entry["tangent"], 1),
                                 int(entry["multiplicity"]), int(entry.get("power", 2)))
        if kind == "contains":
            form = _form(entry["form"])
            return ContainsCurve(HomForm.of(form), int(entry.get("multiplicity", 1)))
        if kind == "line_contact":
            return LineContact(_point(entry["point"]), _form(entry["line"], 1), int(entry["order"]))
    except AnchorError as e:
        raise UserError(str(e)) from e
    raise UserError(f"unhandled condition kind {kind!r}")


def load_constraints(path: str) -> tuple[int, list]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UserError(f"cannot read constraint file {path}: {e}") from e
    if not isinstance(data, dict) or "degree" not in data or "conditions" not in data:
        raise UserError("constraint file needs 'degree' and 'conditions'")
    degree = int(data["degree"])
    return degree, [parse_condition(c) for c in data["conditions"]]


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


# -- subcommands --------------------------------------------------------------


def cmd_linsys(args) -> int:
    degree, conditions = load_constraints(args.constraints)
    if args.degree is not None:
        degree = args.degree
    system = condition_ideal_graded_piece(conditions, degree)
    out = {"degree": degree, "dim_forms": system.dim_forms,
           "dim_projective": system.dim_projective}
    if args.basis:
        out["basis"] = [str(b.poly) for b in system.basis]
    _emit(out)
    return 0


def cmd_classify(args) -> int:
    from .singclass import LocalCurve, classify, classify_point

    poly = _form(args.curve)
    if args.point:
        curve = HomForm.of(poly)
        report = classify_point(curve, _point(args.point))
        _emit(report.to_json())
        return 0
    if poly.degree_in("z") > 0:
        raise UserError("a trivariate curve needs --point; a germ must use only x and y")
    germ = LocalCurve(poly.rename(("x", "y")))
    report = classify(germ)
    _emit(report.to_json())
    return 0


def cmd_profile(args) -> int:
    from .curveprofile import curve_profile

    poly = _form(args.curve)
    if not poly.is_homogeneous():
        raise UserError("profile needs a homogeneous curve in x, y, z")
    hints = [_point(p) for p in args.point or []]
    prof = curve_profile(HomForm.of(poly), hint_points=hints)
    _emit(prof.to_json())
    return 0


def cmd_param_analyze(args) -> int:
    from .paramfam import (build_condition_matrix, compare_kernels_at,
                           component_split_report, generic_rank,
                           parametric_nn_family, rank_drop_locus)

    try:
        with open(args.family) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UserError(f"cannot read family file {args.family}: {e}") from e
    degree = int(data.get("degree", 8))
    n = int(data.get("nn_order", 3))
    param = str(data.get("parameter", "t"))
    family = parametric_nn_family(n=n, degree=degree, param=param)
    conditions = [parse_condition(c) for c in data.get("extra_conditions", [])]
    M = build_condition_matrix(family, conditions)
    out = {"family_size": family.size, "rows": M.rows, "cols": M.cols}
    r = generic_rank(M)
    out["generic_rank"] = r
    if r and len(M.params) == 1:
        locus = rank_drop_locus(M)
        out["rank_drop_locus"] = str(locus.radical)
        out["minor_gcd"] = str(locus.minor_gcd)
    comparisons = []
    for value in data.get("kernel_at", []):
        t0 = _fraction(value)
        cmp_ = compare_kernels_at(M, {param: t0})
        entry = {"parameter": str(t0), "special_dim": cmp_.special_dim,
                 "limit_dim": cmp_.limit_dim, "inclusion": cmp_.inclusion_holds,
                 "strict": cmp_.strict}
        if data.get("witness_line"):
            line = _form(data["witness_line"], 1)
            rep = component_split_report(family, cmp_, {param: t0}, line)
            entry["witness_line"] = str(line)
            entry["special_multiplicity"] = rep.special_multiplicity
            entry["limit_multiplicity"] = rep.limit_multiplicity
        comparisons.append(entry)
    if comparisons:
        out["kernels"] = comparisons
    _emit(out)
    return 0


def cmd_catalog(args) -> int:
    from .strata import build_catalogue, catalogue_totals
    from .witnesses import build_witness

    records = build_catalogue(include_empty=not args.no_empty)
    totals = catalogue_totals([r for r in records if not r.empty])
    rows = []
    for rec in records:
        witness_poly = None
        if args.witnesses and rec.witness_key:
            witness_poly = str(build_witness(rec.witness_key, seed=args.seed).curve.poly)
        rows.append(rec.to_json(witness_poly))
    if args.format == "json":
        _emit({"totals": totals, "strata": rows})
    else:
        print(f"strata: {totals['strata']}  components: {totals['components']}")
        for rec in records:
            if rec.empty:
                print(f"  {rec.label.display():16s} empty: {rec.empty_reason}")
            else:
                h = f"hodge {rec.hodge}" if rec.hodge else "hodge label-independent"
                print(f"  {rec.label.display():16s} dim {rec.dimension:2d}  {h:22s} {rec.birational}")
    return 0


def cmd_diagram(args) -> int:
    from .strata import degeneration_graph

    graph = degeneration_graph(args.scope)
    dot = graph.to_dot("degenerations")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def cmd_verify(args) -> int:
    from .verify import check_degree_bounds, check_milnor_lemma, check_nonexistence_suite

    suites = {
        "degree-bounds": check_degree_bounds,
        "milnor-bound": check_milnor_lemma,
        "nonexistence": check_nonexistence_suite,
    }
    names = [args.lemma] if args.lemma else list(suites)
    for name in names:
        if name not in suites:
            raise UserError(f"unknown lemma id {name!r}; choose from {sorted(suites)}")
    results = {name: suites[name](args.seed) for name in names}
    _emit({name: r.to_json() for name, r in results.items()})
    if not all(r.all_passed for r in results.values()):
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="octica", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the witness search (catalog --witnesses) and of the "
                             "nonexistence sampling (verify); classify and profile draw "
                             "nothing at random (default: OCTICA_SEED or built-in)")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit machine-readable errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linsys", help="constrained linear system dimensions")
    p.add_argument("--constraints", required=True, help="JSON constraint file")
    p.add_argument("--degree", type=int, default=None, help="override the file's degree")
    p.add_argument("--basis", action="store_true", help="print the echelonised basis")
    p.set_defaults(func=cmd_linsys)

    p = sub.add_parser("classify", help="classify a curve germ")
    p.add_argument("--curve", required=True, help="polynomial expression")
    p.add_argument("--point", default=None, help="point 'a,b,c' on a projective curve")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("profile", help="full singularity profile of a plane curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", action="append", help="hint point 'a,b,c' (repeatable)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("param-analyze", help="parametric rank and kernel analysis")
    p.add_argument("--family", required=True, help="JSON family file")
    p.set_defaults(func=cmd_param_analyze)

    p = sub.add_parser("catalog", help="the stratum catalogue")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--witnesses", action="store_true", help="build and embed witness curves")
    p.add_argument("--no-empty", action="store_true", help="omit the empty strata")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("diagram", help="degeneration diagram as DOT")
    p.add_argument("--scope", choices=("simply-elliptic", "full-rules"), default="simply-elliptic")
    p.add_argument("--out", default=None, help="output file (stdout otherwise)")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("verify", help="run the lemma-check suites")
    p.add_argument("--lemma", default=None, help="degree-bounds | milnor-bound | nonexistence")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        from .verify import DEFAULT_SEED

        env = os.environ.get("OCTICA_SEED")
        args.seed = int(env) if env else DEFAULT_SEED
    try:
        return args.func(args)
    except UserError as e:
        if args.json_errors:
            print(json.dumps({"error": "user", "message": str(e)}), file=sys.stderr)
        else:
            print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # internal failures are reported, never swallowed
        if args.json_errors:
            print(json.dumps({"error": "internal", "type": type(e).__name__,
                              "message": str(e)}), file=sys.stderr)
        else:
            print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
