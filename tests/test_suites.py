"""run_suites in a worker pool: same reports, canonical order, clean errors,
no pool imports on the CLI path and no worker outliving its parent; and a
digest of every value the suites record."""

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import qnspace
from qnspace import suites
from qnspace.cli import main
from qnspace.report import IdentityReport
from qnspace.suites import SUITE_ORDER, SUITES, SuiteConfig, run_suites

SMALL = SuiteConfig(n=2, deg=2, trials=3, seed=5)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(qnspace.__file__).resolve().parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


@pytest.fixture
def two_workers(monkeypatch):
    """Take the pool path whatever the host's CPU count."""
    monkeypatch.setattr(suites, "_available_cpus", lambda: 2)


def test_pool_reports_equal_in_process_reports_in_canonical_order(two_workers):
    results = run_suites(["classical-limit", "all"], SMALL)
    assert [name for name, _ in results] == SUITE_ORDER
    for name, report in results:
        expected = SUITES[name](SMALL)
        assert report.render_text() == expected.render_text()
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(expected.to_json(), sort_keys=True)


def test_error_in_a_worker_is_a_usage_error(two_workers):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "all", "--n", "0"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue() == "error: dimension must be >= 1\n"


def test_cli_import_loads_no_pool_modules():
    code = ("import sys, qnspace.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _children(pid):
    """Pids of the live processes whose parent is `pid` (zombies excluded)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            if int(ppid) == pid and state != "Z":
                found.append(int(entry))
    return found


def _running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU: the suites run in-process")
def test_workers_do_not_outlive_a_killed_check():
    proc = subprocess.Popen([sys.executable, "-m", "qnspace", "check", "all"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=ENV)
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) >= 2, "the check started no worker processes"
        time.sleep(0.5)
        workers = _children(proc.pid)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        time.sleep(2)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


# SHA-256 of every (identity, inputs, lhs, rhs) the 14 suites record at
# SuiteConfig(n=3, deg=2, trials=10).  The rendered report shows only counts
# for passing identities, so a change to what a suite samples or computes
# would keep the report and change this digest.
RECORDED_DIGEST = "837b94f73d763b5a49d088324b839dda65af21e16aa53c100bb628327dec16c7"
RECORDED_CHECKS = 2487


def test_suites_record_the_same_values(monkeypatch):
    digest = hashlib.sha256()
    seen = []

    def hashed(method):
        def record(self, inputs, lhs, rhs=""):
            seen.append(None)
            digest.update(repr((self.identity, str(inputs), str(lhs), str(rhs))).encode())
            return method(self, inputs, lhs, rhs)
        return record

    for name in ("record", "record_differ", "record_true"):
        monkeypatch.setattr(IdentityReport, name, hashed(getattr(IdentityReport, name)))
    cfg = SuiteConfig(n=3, deg=2, trials=10)
    for run in SUITES.values():
        run(cfg)
    assert len(seen) == RECORDED_CHECKS
    assert digest.hexdigest() == RECORDED_DIGEST
