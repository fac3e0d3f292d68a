"""Child process for the benchmark: does the qnspace work of one step in a
fresh interpreter and prints one JSON object on stdout when it ends.

    worker.py exprs  --seed S --seconds T --min-count M [--trace-id ID]
    worker.py suites --seed S --n N --deg D --trials T --names all|SUITE... --trace-id ID
    worker.py probes --seed S --scale F --trace-id ID

Without --trace-id no spans are recorded.  run.py starts it with PYTHONPATH
set to the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

import qnspace
from qnspace import parse
from qnspace.suites import SUITES, SuiteConfig, resolve_suite_names

import calib
import exprs
from spans import NullTracer, Tracer

MAX_PROBLEMS = 5


def run_expr(expr, tracer):
    """parse, evaluate and render one expression: the timed region."""
    with tracer.span("expr"):
        with tracer.span("expr.parse"):
            base = parse(expr.base_text, "algebra", exprs.N)
            factor = parse(expr.factor_text, "algebra", exprs.N) if expr.factor else None
        with tracer.span("expr.evaluate"):
            value = base ** expr.power
            if expr.form == "right":
                value = value * factor
            elif expr.form == "left":
                value = factor * value
        with tracer.span("expr.render"):
            text = str(value)
    return value, text


def cmd_exprs(args, tracer):
    """Whole blocks of the stream until both --seconds of timed work and
    --min-count expressions are done; each result goes to the oracle
    outside the timed region.  A calibration window runs before the first
    block and after each block."""
    rng = random.Random(f"{args.seed}:expr-dense")
    latencies, kinds, problems = [], [], []
    calibration = [calib.window(calib.SHORT_S)]
    failed = result_terms = 0
    timed = 0.0
    while timed < args.seconds or len(latencies) < args.min_count:
        for expr in exprs.block(rng):
            start = time.perf_counter()
            try:
                value, text = run_expr(expr, tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed = time.perf_counter() - start
                found = [f"{expr}: {type(exc).__name__}: {exc}"]
            else:
                elapsed = time.perf_counter() - start
                found = exprs.verify(expr, value, text)
                result_terms += len(value.terms)
            latencies.append(elapsed)
            kinds.append(f"{expr.power}-{expr.form}")
            timed += elapsed
            if found:
                failed += 1
                problems.extend(found[:max(0, MAX_PROBLEMS - len(problems))])
        calibration.append(calib.window(calib.SHORT_S))
    return {"latencies_s": latencies, "kinds": kinds, "calibration_s": calibration,
            "attempted": len(latencies), "failed": failed, "problems": problems,
            "checks": exprs.CHECKS_PER_EXPR, "result_terms": result_terms}


def cmd_suites(args, tracer):
    """Each suite called in-process, as `qspace check` calls it, under spans."""
    cfg = SuiteConfig(n=args.n, deg=args.deg, trials=args.trials, seed=args.seed)
    checks, problems = {}, []
    with tracer.span("check"):
        for name in resolve_suite_names(args.names):
            with tracer.span(f"suite.{name}"):
                report = SUITES[name](cfg)
            with tracer.span("report.render"):
                report.render_text()
            counts = [rep.passes + len(rep.failures) for rep in report.identities]
            checks[name] = sum(counts)
            if not report.ok or min(counts, default=0) == 0:
                problems.append(f"suite {name} failed or has an identity with no checks")
    return {"attempted": len(checks), "failed": len(problems), "problems": problems, "checks": checks}


def cmd_probes(args, tracer):
    from probes import run_probes

    run_probes(tracer, args.seed, args.scale)
    return {"attempted": 1, "failed": 0, "problems": []}


def main() -> int:
    """Every command prints attempted, failed and problems, plus its own data."""
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("exprs")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-count", type=int, required=True)
    p = sub.add_parser("suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--names", nargs="+", required=True)
    p = sub.add_parser("probes")
    p.add_argument("--scale", type=float, required=True)
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--trace-id")
    args = parser.parse_args()
    if SRC not in Path(qnspace.__file__).resolve().parents:
        print(f"qnspace was imported from {qnspace.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer(args.trace_id) if args.trace_id else NullTracer()
    command = {"exprs": cmd_exprs, "suites": cmd_suites, "probes": cmd_probes}[args.command]
    result = command(args, tracer)
    result["spans"] = tracer.export()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
