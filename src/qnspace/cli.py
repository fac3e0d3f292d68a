"""Command-line front end: normalize/apply/check with text or JSON output.

Exit codes: 0 success, 1 at least one check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .calculus import Form, exterior_d
from .hopf import antipode, coproduct, counit, tensor_text, tensor_to_json
from .invariants import apply_vector_field, maurer_cartan, maurer_cartan_basis
from .operators import Operator, sigma
from .parsing import ParseError, parse, parse_multiindex
from .qspace import Element
from .suites import SuiteConfig, run_suites


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=3, help="dimension (number of generators)")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="qspace",
        description="Exact symbolic kernel for a q-deformed n-space: "
                    "normal forms, Hopf structure, twisted derivations, "
                    "differential calculus, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common], help="canonical form of an expression")
    p.add_argument("expr")
    p.add_argument("--context", choices=("algebra", "operator", "form"), default="algebra")

    p = sub.add_parser("mul", parents=[common], help="product of two algebra expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")

    for name in ("coproduct", "counit", "antipode"):
        p = sub.add_parser(name, parents=[common], help=f"{name} in the chosen algebra")
        p.add_argument("expr")
        p.add_argument("--algebra", choices=("aqn", "dq"), default="aqn")

    p = sub.add_parser("derive", parents=[common], help="apply the twisted derivative d_i")
    p.add_argument("index", type=int)
    p.add_argument("expr")

    p = sub.add_parser("sigma", parents=[common], help="apply the automorphism sigma_beta")
    p.add_argument("beta", help="multi-index like [0,1,0]")
    p.add_argument("expr")

    p = sub.add_parser("d", parents=[common], help="exterior differential of a form expression")
    p.add_argument("expr")

    p = sub.add_parser("wedge", parents=[common], help="wedge product of two form expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("mc", parents=[common], help="right-invariant form of an algebra element")
    p.add_argument("expr")

    p = sub.add_parser("mc-basis", parents=[common], help="the basis form w_i")
    p.add_argument("index", type=int)

    p = sub.add_parser("vf", parents=[common], help="apply the vector field T_i")
    p.add_argument("index", type=int)
    p.add_argument("expr")

    p = sub.add_parser("check", parents=[common], help="run verification suites")
    p.add_argument("suites", nargs="+",
                   help="suite names (or 'all'); see the README for the list")
    p.add_argument("--deg", type=int, default=4, help="sweep degree bound")
    p.add_argument("--trials", type=int, default=200, help="random samples per identity")
    p.add_argument("--seed", type=int, default=42, help="PRNG seed")
    return parser


def _emit(value, fmt: str, kind: str | None = None, n: int | None = None) -> None:
    if fmt == "json":
        if kind in ("aq", "dq"):
            print(json.dumps(tensor_to_json(value, kind, n), sort_keys=True))
        else:
            print(json.dumps(value.to_json(), sort_keys=True))
    else:
        if kind in ("aq", "dq"):
            print(tensor_text(value, kind))
        else:
            print(value)


def _run_check(args) -> int:
    # With no trials or no degree an identity would run no checks and still
    # read PASS.
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.deg < 1:
        raise ValueError(f"--deg must be >= 1, got {args.deg}")
    cfg = SuiteConfig(n=args.n, deg=args.deg, trials=args.trials, seed=args.seed)
    results = run_suites(args.suites, cfg)
    if args.format == "json":
        print(json.dumps([report.to_json() for _, report in results], sort_keys=True))
    else:
        for _, report in results:
            print(report.render_text())
            print()
        failed = [name for name, report in results if not report.ok]
        if failed:
            print(f"overall: FAIL ({len(failed)}/{len(results)} suites failed: {', '.join(failed)})")
        else:
            print(f"overall: PASS ({len(results)} suites)")
    return 0 if all(report.ok for _, report in results) else 1


def _dispatch(args) -> int:
    n, fmt = args.n, args.format
    if args.command == "normalize":
        _emit(parse(args.expr, args.context, n), fmt)
    elif args.command == "mul":
        value = parse(args.lhs, "algebra", n) * parse(args.rhs, "algebra", n)
        _emit(value, fmt)
    elif args.command in ("coproduct", "counit", "antipode"):
        context = "algebra" if args.algebra == "aqn" else "operator"
        value = parse(args.expr, context, n)
        if args.command == "coproduct":
            _emit(coproduct(value), fmt, kind="aq" if args.algebra == "aqn" else "dq", n=n)
        elif args.command == "counit":
            result = counit(value)
            print(json.dumps(result.to_json(), sort_keys=True) if fmt == "json" else result)
        else:
            _emit(antipode(value), fmt)
    elif args.command == "derive":
        value = parse(args.expr, "algebra", n)
        from .operators import derive

        _emit(derive(args.index, value), fmt)
    elif args.command == "sigma":
        beta = parse_multiindex(args.beta, n)
        _emit(sigma(beta, parse(args.expr, "algebra", n)), fmt)
    elif args.command == "d":
        _emit(exterior_d(parse(args.expr, "form", n)), fmt)
    elif args.command == "wedge":
        value = parse(args.lhs, "form", n) * parse(args.rhs, "form", n)
        _emit(value, fmt)
    elif args.command == "mc":
        _emit(maurer_cartan(parse(args.expr, "algebra", n)), fmt)
    elif args.command == "mc-basis":
        _emit(maurer_cartan_basis(n, args.index), fmt)
    elif args.command == "vf":
        _emit(apply_vector_field(args.index, parse(args.expr, "algebra", n)), fmt)
    elif args.command == "check":
        return _run_check(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
