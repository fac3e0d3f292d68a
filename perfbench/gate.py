"""Correctness gate for one `qspace check` verdict."""

from __future__ import annotations

import hashlib
import re

_SUITE = re.compile(r"^suite (\S+): (\S+)$")
_IDENTITY = re.compile(r"^  (\S+) (.+) \(checks=(\d+)(?: failures=\d+)?\)$")


def check_report(stdout: bytes, returncode: int, expected_sha256: str | None = None):
    """Return (problems, checks_total) for the text output of `qspace check`.

    The verdict passes when the process exits 0, the last line reads
    ``overall: PASS``, every suite line and every identity line reads PASS,
    every identity ran at least one check, and, when a reference hash is
    given, stdout matches it byte for byte.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if expected_sha256 is not None and hashlib.sha256(stdout).hexdigest() != expected_sha256:
        problems.append("stdout differs from the reference SHA-256")
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines or not lines[-1].startswith("overall: PASS"):
        problems.append("no 'overall: PASS' line")
    checks_total = identities = 0
    for line in lines:
        suite = _SUITE.match(line)
        if suite and suite.group(2) != "PASS":
            problems.append(f"suite {suite.group(1)} reads {suite.group(2)}")
        identity = _IDENTITY.match(line)
        if identity is None:
            continue
        status, name, checks = identity.group(1), identity.group(2), int(identity.group(3))
        identities += 1
        checks_total += checks
        if status != "PASS":
            problems.append(f"identity {name} reads {status}")
        if checks == 0:
            problems.append(f"identity {name} ran no checks")
    if identities == 0:
        problems.append("no identity lines")
    return problems, checks_total
