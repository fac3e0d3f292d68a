"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Shows that the gates can fail and that the benchmark emits what it declares:

1. run.py --smoke emits every metric named in BENCHMARK.json, for every
   workload, with --trace 0 and with --trace 1, and reports correct=true;
2. the expr-dense oracle accepts a real result and rejects a copy with one
   coefficient's sign flipped, in the Element and in its rendered text;
3. the check gate accepts a real `qspace check` report and rejects it with a
   FAIL line, with a checks=0 identity, with a nonzero exit code, or against
   another reference hash.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from qnspace import Element, LaurentScalar  # noqa: E402

import exprs  # noqa: E402
import gate  # noqa: E402
from worker import run_expr  # noqa: E402
from spans import NullTracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC))
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared, f"{workload} --trace {trace} emits exactly the {key} metrics")
            expect(done.returncode == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} --trace {trace} passes its gate")


def flip_one_sign(value: Element) -> Element:
    alpha, coeff = max(value.terms.items())
    k = max(coeff.terms)
    flipped = LaurentScalar({**coeff.terms, k: -coeff.terms[k]})
    return Element(value.n, {**value.terms, alpha: flipped})


def test_oracle() -> None:
    expr = next(e for e in exprs.block(random.Random(0)) if e.power == 5 and e.form == "left")
    value, text = run_expr(expr, NullTracer())
    expect(exprs.verify(expr, value, text) == [], "oracle accepts a correct expr-dense result")
    flipped = flip_one_sign(value)
    expect(len(exprs.verify(expr, flipped, str(flipped))) == len(exprs.Q_VALUES),
           "oracle rejects the result with one coefficient's sign flipped, at every q")
    expect(len(exprs.verify(expr, value, str(flipped))) == 1,
           "oracle rejects the rendered text with one coefficient's sign flipped")


def test_gate() -> None:
    argv = [sys.executable, "-m", "qnspace", "check", "algebra", "calculus", "--deg", "2", "--trials", "3"]
    done = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, timeout=120)
    report = done.stdout
    problems, checks = gate.check_report(report, done.returncode)
    expect(done.returncode == 0 and problems == [] and checks > 0, "gate accepts a passing report")
    with_fail = report.replace(b"  PASS ", b"  FAIL ", 1)
    expect(gate.check_report(with_fail, 0)[0] != [], "gate rejects a report with a FAIL line")
    lines = report.split(b"\n")
    index = next(i for i, line in enumerate(lines) if b"(checks=" in line)
    lines[index] = lines[index].split(b"(checks=")[0] + b"(checks=0)"
    expect(gate.check_report(b"\n".join(lines), 0)[0] != [], "gate rejects an identity with checks=0")
    expect(gate.check_report(report, 1)[0] != [], "gate rejects a nonzero exit code")
    expect(gate.check_report(report, 0, "0" * 64)[0] != [], "gate rejects output that misses the reference hash")


def main() -> int:
    test_oracle()
    test_gate()
    test_metric_names()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
