"""qnspace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a qnspace checkout; the package is taken from its src/
directory.  Every piece of qnspace work runs in a fresh child interpreter,
one at a time.  With --trace 0 the run measures the end-to-end metrics of
BENCHMARK.json for the workload; with --trace 1 it records spans and reports
the per-layer metrics instead.  The last line of stdout is the result as one
JSON object; the lines before it name every metric with its unit, the
correctness gate's findings and the run's record (interpreter, CPU, commit,
seed, workload parameters).  The full result and the spans are also written
under .perfbench_out/.  --smoke shrinks every workload for the self-test.

Workloads, metrics and the layers each metric should move are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import exprs
import gate
from spans import NullTracer, Tracer, adopt, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = str(HERE / "worker.py")

DEADLINE_S = 165
SETUP_REPEATS = 8
MAX_PROBLEMS = 5

WORKLOADS = {
    "check-default": {"suites": ["all"], "n": 3, "deg": 4, "trials": 200},
    "expr-dense": {"n": exprs.N, "min_exprs": 8 * exprs.BLOCK},
}
SMOKE = {
    "check-default": {"suites": ["all"], "n": 3, "deg": 2, "trials": 4},
    "expr-dense": {"n": exprs.N, "min_exprs": exprs.BLOCK},
}
# stdout SHA-256 of `qspace check all --n 3 --deg 4 --trials 200 --seed 42`.
REFERENCE = ("check-default", 42, "c76639c6451abe65c35ff2b789f14f99f1749e4f9d376fc3c9c6f860bf82870e")

# Expressions in each traced stretch of the expr-dense stream.
TRACE_EXPRS = 4 * exprs.BLOCK
UNIT_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


class Run:
    """State of one benchmark run: its clock, children, failures and spans."""

    def __init__(self, args, params):
        self.args = args
        self.params = params
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.tracer = Tracer(run_id) if args.trace else NullTracer()
        self.child_spans: list[tuple[int, list[dict]]] = []
        self.windows: list[float] = []
        self.raw: dict = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def window(self, seconds: float) -> float:
        """One calibration window (see calib.py); returns its mean kernel time."""
        mean = calib.window(seconds)
        self.windows.append(mean)
        return mean

    def note(self, problems) -> None:
        self.problems.extend(problems[:max(0, MAX_PROBLEMS - len(self.problems))])

    def outcome(self, problems) -> None:
        """Count one attempted operation and what went wrong with it."""
        self.attempted += 1
        self.failed += bool(problems)
        self.note(problems)

    def child(self, argv):
        """Run one child to completion; returns (wall s, peak RSS MB, exit code, stdout).

        wait4 gives the child's own peak RSS.  A child still running at the
        deadline is killed and reported with exit code None.
        """
        OUT.mkdir(exist_ok=True)
        timed_out = []

        def kill(signum, frame):
            timed_out.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        with open(OUT / "child.stdout", "wb") as out, open(OUT / "child.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, max(self.remaining(), 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = (OUT / "child.stdout").read_bytes()
        if timed_out:
            code = None
        elif code != 0:
            tail = (OUT / "child.stderr").read_bytes().decode("utf-8", "replace").strip()[-300:]
            self.note([f"{' '.join(argv[1:4])}: exit {code}: {tail}"])
        return wall, usage.ru_maxrss / 1024, code, stdout

    def worker(self, label, argv, traced):
        """Run worker.py; returns (parsed JSON or None, wall s, peak RSS MB)."""
        if traced:
            argv = argv + ["--trace-id", self.tracer.run_id]
        with self.tracer.span(f"child.{label}") as span:
            wall, rss, code, stdout = self.child([sys.executable, WORKER] + argv)
        if code != 0:
            self.outcome([f"worker {label} failed (exit {code})"])
            return None, wall, rss
        try:
            result = json.loads(stdout)
        except ValueError:
            self.outcome([f"worker {label} printed no result"])
            return None, wall, rss
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.note(result["problems"])
        if traced:
            self.child_spans.append((span.index, result["spans"]))
        return result, wall, rss

    def check_cli(self, params):
        """One `qspace check` verdict through the CLI, gated."""
        argv = [sys.executable, "-m", "qnspace", "check", *params["suites"],
                "--n", str(params["n"]), "--deg", str(params["deg"]),
                "--trials", str(params["trials"]), "--seed", str(self.args.seed)]
        expected = None
        if (self.args.workload, self.args.seed) == REFERENCE[:2] and params == WORKLOADS["check-default"]:
            expected = REFERENCE[2]
        with self.tracer.span("child.cli"):
            wall, rss, code, stdout = self.child(argv)
        if code is None:
            self.outcome(["`qspace check` did not finish before the deadline"])
            return None
        problems, checks = gate.check_report(stdout, code, expected)
        self.outcome(problems)
        return wall, rss, checks

    def spans(self) -> list[dict]:
        out = self.tracer.export()
        for index, children in self.child_spans:
            adopt(out, children, index)
        return out


def quantile(values, fraction):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def measure_setup(run: Run, walls: list) -> None:
    """Time SETUP_REPEATS // 2 fresh interpreters that only `import qnspace.cli`;
    appends (wall s, calibration factor) pairs to ``walls``."""
    before = run.window(calib.SHORT_S)
    for _ in range(SETUP_REPEATS // 2):
        wall, _, code, _ = run.child([sys.executable, "-c", "import qnspace.cli"])
        after = run.window(calib.SHORT_S)
        if code == 0:
            walls.append((wall, calib.factor(before, after)))
        else:
            run.outcome(["`import qnspace.cli` failed"])
        before = after


def measured_run(run: Run) -> tuple[dict, int]:
    """End-to-end metrics, tracing off; returns (metrics, sample count).

    Set-up is timed half before and half after the requests, so that its
    median spans the run.  Every timing is calibrated by the kernel windows
    just before and after it (see calib.py); the raw metrics are kept in
    run.raw.
    """
    setup: list = []
    measure_setup(run, setup)
    data = measure_requests(run)
    measure_setup(run, setup)
    run.raw = summarise(data, setup, scaled=False)
    return summarise(data, setup, scaled=True), len(data.get("latencies", ()))


def measure_requests(run: Run) -> dict:
    """The requests of one run: (wall s, calibration factor) pairs under
    "latencies", and per workload what the metrics need besides."""
    args, params = run.args, run.params
    if args.workload == "expr-dense":
        result, _, rss = run.worker("exprs", ["exprs", "--seed", str(args.seed), "--seconds", str(args.seconds),
                                              "--min-count", str(params["min_exprs"])], traced=False)
        if result is None:
            return {}
        windows = result["calibration_s"]
        run.windows.extend(windows)
        factors = [calib.factor(before, after) for before, after in zip(windows, windows[1:])]
        latencies = [(latency, factors[i // exprs.BLOCK]) for i, latency in enumerate(result["latencies_s"])]
        return {"latencies": latencies, "kinds": result["kinds"], "checks": [result["checks"]], "rss": [rss]}

    latencies, checks, rss = [], [], []
    before = run.window(calib.LONG_S)
    while not latencies or sum(wall for wall, _ in latencies) < args.seconds:
        if latencies and run.remaining() < 1.5 * max(wall for wall, _ in latencies) + calib.LONG_S:
            break
        verdict = run.check_cli(params)
        if verdict is None:
            break
        after = run.window(calib.LONG_S)
        latencies.append((verdict[0], calib.factor(before, after)))
        rss.append(verdict[1])
        checks.append(verdict[2])
        before = after
    return {"latencies": latencies, "checks": checks, "rss": rss} if latencies else {}


def summarise(data: dict, setup: list, scaled: bool) -> dict:
    """The end-to-end metrics from measure_requests' data and the set-up pairs."""
    def timed(pairs):
        return [wall * factor if scaled else wall for wall, factor in pairs]

    metrics: dict = {}
    if setup:
        metrics["setup_s"] = statistics.median(timed(setup))
    if not data:
        return metrics
    latencies = timed(data["latencies"])
    if "kinds" in data:
        # The latency quantiles are taken over the 15 expression kinds, each
        # kind counted once with its mean latency.  A shared host's speed
        # can swing by 1.7x within seconds (see calib.py), and quantiles of
        # the raw latencies, which fall between kinds of 2x different cost,
        # jumped with those swings.
        by_kind: dict = {}
        for kind, latency in zip(data["kinds"], latencies):
            by_kind.setdefault(kind, []).append(latency)
        typical = [statistics.fmean(values) for values in by_kind.values()]
        throughput = len(latencies) / sum(latencies)
    else:
        typical = latencies
        throughput = statistics.median(c / wall for c, wall in zip(data["checks"], latencies))
    metrics.update(latency_p50_ms=statistics.median(typical) * 1e3,
                   latency_p90_ms=quantile(typical, 0.9) * 1e3,
                   throughput_per_s=throughput,
                   checks_total=statistics.median_low(data["checks"]),
                   peak_rss_mb=statistics.median(data["rss"]))
    return metrics


def _layer_times(values: dict, spans: list[dict], units: dict) -> None:
    for name, (count, total_ns) in self_times(spans).items():
        for unit, scale in UNIT_SCALE.items():
            metric = f"{name}_{unit}"
            if units.get(metric) == unit:
                values[metric] = total_ns * scale / count


def traced_run(run: Run, units: dict) -> tuple[dict, int]:
    """Per-layer metrics from spans; returns (metrics, number of spans).

    The workload's own request runs twice, untraced and traced, each in a
    fresh interpreter, to give trace.overhead_pct.  Both workloads report
    every metric: the suite metrics come from a traced check-default run,
    the expr.* metrics from a traced stretch of the expr-dense stream, and
    the remaining layers from the probes.
    """
    args, params, smoke = run.args, run.params, run.args.smoke
    values: dict = {}
    seed = ["--seed", str(args.seed)]
    exprs_argv = ["exprs", *seed, "--seconds", "0", "--min-count", str(exprs.BLOCK if smoke else TRACE_EXPRS)]

    def suites_argv(p):
        return ["suites", *seed, "--n", str(p["n"]), "--deg", str(p["deg"]),
                "--trials", str(p["trials"]), "--names", *p["suites"]]

    with run.tracer.span("run"):
        if args.workload == "expr-dense":
            untraced = run.worker("exprs-untraced", exprs_argv, traced=False)[0]
            stream = run.worker("exprs", exprs_argv, traced=True)[0]
            if untraced and stream:
                values["trace.overhead_pct"] = 100 * (sum(stream["latencies_s"]) / sum(untraced["latencies_s"]) - 1)
            default = (SMOKE if smoke else WORKLOADS)["check-default"]
            suites = run.worker("suites", suites_argv(default), traced=True)[0]
        else:
            verdict = run.check_cli(params)
            suites, wall, _ = run.worker("suites", suites_argv(params), traced=True)
            if verdict is not None and suites is not None:
                values["trace.overhead_pct"] = 100 * (wall / verdict[0] - 1)
            stream = run.worker("exprs", exprs_argv, traced=True)[0]
        scale = "0.05" if smoke else "1"
        probes = run.worker("probes", ["probes", *seed, "--scale", scale], traced=True)[0]

    for result in (suites, stream, probes):
        if result is not None:
            _layer_times(values, result["spans"], units)
    if suites is not None:
        values.update((f"suite.{name}_checks", checks) for name, checks in suites["checks"].items())
    if stream is not None:
        values["qspace.result_terms"] = stream["result_terms"]
    return values, len(run.spans())


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = "unknown: the checkout is not a git repository"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = found.stdout.strip() or commit
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()

    if not (SRC / "qnspace" / "__init__.py").is_file():
        print(f"error: no qnspace sources under {SRC}; run from the root of a qnspace checkout",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    params = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    run = Run(args, params)
    values, samples = traced_run(run, units) if args.trace else measured_run(run)
    if run.attempted == 0:
        run.outcome(["no operation was attempted"])

    missing = [name for name in units if name not in values]
    run.note([f"metric {name} was not measured" for name in missing])
    correct = run.failed == 0 and not missing
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "params": params, "samples": samples, **environment()}
    if run.windows:
        record.update(raw_metrics=run.raw, calibration={
            "reference_s": calib.REFERENCE_S, "windows": len(run.windows),
            "mean_kernel_s": statistics.fmean(run.windows)})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, "problems": run.problems, **result}, indent=1))
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(run.spans()))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"samples {samples}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.6g}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
