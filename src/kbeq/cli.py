"""Batch command-line front end.

One subcommand per library entry point; reports stream to standard output
as a single JSON document (machine-parseable), while a short human summary
goes to standard error.  Identical configuration and inputs produce a
byte-identical report: floats are rounded to 12 significant digits and keys
are emitted in sorted order.

Exit codes: 0 when the checked property holds or the operation succeeds,
1 when an equation fails or a decomposition validation fails (the witness
is embedded in the report), 2 for input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .errors import (
    DecompositionError,
    EquationFailsError,
    GroupMismatchError,
    GroupParseError,
    KbeqError,
    SynthesisError,
)
from .functions import FuncTable, form_from_json, synth_table
from .groups import Box, FullGroup, parse_group

MATH_ERRORS = (EquationFailsError, DecompositionError, SynthesisError)


def _round12(v: float) -> float:
    return float(f"{v:.12g}")


def _canonical(obj):
    """Round every float to 12 significant digits for diff-stable output."""
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _emit(payload: dict, output: Optional[str]):
    text = json.dumps(_canonical(payload), sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_table(path: str, group_literal: Optional[str]) -> FuncTable:
    with open(path, "r", encoding="utf-8") as fh:
        table = FuncTable.from_json(json.load(fh))
    if group_literal is not None:
        expected = parse_group(group_literal)
        if table.group != expected:
            raise GroupMismatchError(
                f"table in {path} is over {table.group}, not {expected}"
            )
    return table


def _summary(line: str):
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, exit_code) and imports the
# library modules it runs, so a process loads only what its command uses


def _cmd_check(args):
    from . import checks
    f = _load_table(args.f, args.group)
    g = _load_table(args.g, args.group)
    rep = checks.check_kb(f, g, args.tol)
    _summary(f"equation holds: {rep.holds} ({rep.pairs_checked} pairs, "
             f"coverage {rep.coverage:.4f})")
    return ({"command": "check", "group": str(f.group),
             "report": rep.to_json()}, 0 if rep.holds else 1)


def _cmd_check_self(args):
    from . import checks
    f = _load_table(args.f, args.group)
    rep = checks.check_kb_self(f, args.tol)
    _summary(f"one-function equation holds: {rep.holds} "
             f"({rep.pairs_checked} pairs)")
    return ({"command": "check-self", "group": str(f.group),
             "report": rep.to_json()}, 0 if rep.holds else 1)


def _cmd_decompose(args):
    from . import decompose
    f = _load_table(args.f, args.group)
    g = _load_table(args.g, args.group)
    form = decompose.decompose_positive(f, g, args.tol)
    _summary(f"decomposed positive pair over {f.group}")
    return ({"command": "decompose", "group": str(f.group),
             "form": form.to_json()}, 0)


def _cmd_decompose_hermitian(args):
    from . import decompose
    f = _load_table(args.f, args.group)
    g = _load_table(args.g, args.group)
    form = decompose.decompose_hermitian(f, g, args.tol)
    _summary(f"decomposed hermitian pair over {f.group}")
    return ({"command": "decompose-hermitian", "group": str(f.group),
             "form": form.to_json()}, 0)


def _cmd_decompose_vanishing(args):
    from . import decompose
    f = _load_table(args.f, args.group)
    g = _load_table(args.g, args.group)
    form = decompose.decompose_vanishing(f, g, args.tol)
    _summary(f"decomposed vanishing pair; support generated by "
             f"{[list(e.coords) for e in form.support.generators]}")
    return ({"command": "decompose-vanishing", "group": str(f.group),
             "form": form.to_json()}, 0)


def _cmd_synth(args):
    from . import checks
    with open(args.form, "r", encoding="utf-8") as fh:
        form = form_from_json(json.load(fh))
    group = form.group
    domain = FullGroup() if group.is_finite else Box((args.radius,) * group.rank)
    f, g = synth_table(form, domain)
    rep = checks.check_kb(f, g, args.tol)
    _summary(f"synthesized {len(f.values)}-point tables; equation holds: {rep.holds}")
    return ({"command": "synth", "group": str(group),
             "f": f.to_json(), "g": g.to_json(),
             "report": rep.to_json()}, 0 if rep.holds else 1)


def _cmd_enum_signs(args):
    from . import oracle
    group = parse_group(args.group)
    census = oracle.enum_sign_solutions(group, order_budget=args.budget)
    _summary(f"{census.count} sign pairs on {group}")
    return ({"command": "enum-signs", **census.to_json()}, 0)


def _cmd_enum_kb(args):
    from . import oracle
    group = parse_group(args.group)
    try:
        grid = [Fraction(part) for part in args.grid.split(",")]
    except ZeroDivisionError:
        raise GroupParseError(
            f"grid value with a zero denominator in {args.grid!r}") from None
    pairs = oracle.enum_restricted_kb(group, grid, budget=args.budget,
                                      max_pairs=args.max_pairs)
    _summary(f"{len(pairs)} grid solutions on {group}")
    return ({
        "command": "enum-kb",
        "group": str(group),
        "grid": [[v.numerator, v.denominator] for v in grid],
        "count": len(pairs),
        "solutions": [{"f": f.to_json()["values"], "g": g.to_json()["values"]}
                      for f, g in pairs],
    }, 0)


def _cmd_demo(args):
    from . import checks, decompose, oracle
    if args.example == "counterexample":
        f, g = oracle.builtin_counterexample()
        rep = checks.check_kb(f, g, args.tol)
        mod4 = checks.check_coset_constant(f, 4, args.tol)
        mod2 = checks.check_coset_constant(f, 2, args.tol)
        form = decompose.decompose_hermitian(f, g, args.tol)
        payload = {
            "command": "demo",
            "example": "counterexample",
            "note": ("sign pair on (Z/4)^2 solving the equation, with sign "
                     "maps constant on quadrupled-image cosets but not on "
                     "doubled-image cosets"),
            "f": f.to_json(),
            "g": g.to_json(),
            "report": rep.to_json(),
            "constant_mod4": mod4.to_json(),
            "constant_mod2": mod2.to_json(),
            "decomposition": form.to_json(),
        }
        _summary(f"counterexample: equation holds={rep.holds}, "
                 f"mod-4 constant={mod4.holds}, mod-2 constant={mod2.holds}")
        return payload, 0 if rep.holds else 1
    if args.example == "odd-quadratic":
        t = oracle.builtin_odd_quadratic(args.radius)
        rep = checks.check_kb_self(t, args.tol)
        alpha, amap, P = decompose.decompose_self(t, args.tol)
        i11 = t.group.coset_index(t.group.element((1, 1)), 2)
        payload = {
            "command": "demo",
            "example": "odd-quadratic",
            "note": ("(m,n) -> (-1)^(mn) on Z^2 solves the one-function "
                     "equation; its sign map is constant on doubled cosets "
                     "yet not multiplicative"),
            "f": t.to_json(),
            "report": rep.to_json(),
            "decomposition": {
                "alpha_trivial": alpha.is_trivial(),
                "quadratic_zero": P.is_zero(),
                "sign_on_odd_odd_coset": amap.at(i11),
            },
        }
        _summary(f"odd-quadratic: equation holds={rep.holds}, "
                 f"a(odd,odd)={amap.at(i11)}")
        return payload, 0 if rep.holds else 1
    raise GroupParseError(f"unknown demo {args.example!r}")


def _cmd_suite(args):
    from . import oracle
    groups = (tuple(s.strip() for s in args.groups.split(","))
              if args.groups else oracle.DEFAULT_SUITE_GROUPS)
    report = oracle.verify_theorem_suite(groups, trials=args.trials,
                                         seed=args.seed, strict=False)
    _summary(f"suite: {'all passed' if report.ok else 'FAILURES'} "
             f"({len(report.checks)} checks)")
    return ({"command": "suite", **report.to_json()}, 0 if report.ok else 1)


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kbeq",
        description="Verify, synthesize, decompose and enumerate solutions "
                    "of the Kac-Bernstein functional equation on finitely "
                    "generated Abelian groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, group=True):
        if group:
            sp.add_argument("--group", help="expected group literal, e.g. 'Z^2 x Z/4'")
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="absolute tolerance for floating data")
        sp.add_argument("--output", help="write the JSON report to this path")

    sp = sub.add_parser("check", help="check the two-function equation")
    sp.add_argument("-f", required=True, help="table JSON for f")
    sp.add_argument("-g", required=True, help="table JSON for g")
    common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("check-self", help="check the one-function equation")
    sp.add_argument("-f", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_check_self)

    sp = sub.add_parser("decompose", help="decompose a positive solution pair")
    sp.add_argument("-f", required=True)
    sp.add_argument("-g", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("decompose-hermitian",
                        help="decompose a hermitian non-vanishing pair")
    sp.add_argument("-f", required=True)
    sp.add_argument("-g", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_decompose_hermitian)

    sp = sub.add_parser("decompose-vanishing",
                        help="decompose a vanishing pair on a group with onto doubling")
    sp.add_argument("-f", required=True)
    sp.add_argument("-g", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_decompose_vanishing)

    sp = sub.add_parser("synth", help="render a structured form as tables")
    sp.add_argument("--form", required=True, help="form JSON path")
    sp.add_argument("--radius", type=int, default=6,
                    help="box radius for infinite groups")
    common(sp, group=False)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("enum-signs", help="census of sign pairs on a finite group")
    sp.add_argument("--group", required=True)
    sp.add_argument("--budget", type=int, default=256,
                    help="maximum group order")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_enum_signs)

    sp = sub.add_parser("enum-kb",
                        help="exhaustive grid-valued solutions on a finite group")
    sp.add_argument("--group", required=True)
    sp.add_argument("--grid", default="-1,0,1",
                    help="comma-separated exact log values of the grid")
    sp.add_argument("--budget", type=int, default=10**9,
                    help="search row budget")
    sp.add_argument("--max-pairs", type=int, default=100_000,
                    help="maximum number of solutions to materialize")
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_enum_kb)

    sp = sub.add_parser("demo", help="reproduce a built-in example")
    sp.add_argument("example", choices=("counterexample", "odd-quadratic"))
    sp.add_argument("--radius", type=int, default=6)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_demo)

    sp = sub.add_parser("suite", help="run the cross-check suite")
    sp.add_argument("--groups", help="comma-separated group literals")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output")
    sp.set_defaults(func=_cmd_suite)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    output = getattr(args, "output", None)
    try:
        payload, code = args.func(args)
    except MATH_ERRORS as exc:
        payload = {"command": args.command, "error": str(exc)}
        if isinstance(exc, EquationFailsError) and exc.report is not None:
            payload["report"] = exc.report.to_json()
        if isinstance(exc, DecompositionError) and exc.witness is not None:
            payload["witness"] = exc.witness
        _summary(f"error: {exc}")
        code = 1
    except KbeqError as exc:  # input, sizing, hypothesis and budget errors
        payload = {"command": args.command, "error": str(exc)}
        _summary(f"usage error: {exc}")
        code = 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        payload = {"command": args.command, "error": str(exc)}
        _summary(f"input error: {exc}")
        code = 2
    _emit(payload, output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
