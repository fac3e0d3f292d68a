"""Pass/fail bookkeeping for identity sweeps, with text and JSON rendering."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Witness:
    inputs: str
    lhs: str
    rhs: str

    def to_json(self):
        return {"inputs": self.inputs, "lhs": self.lhs, "rhs": self.rhs}


# Witnesses kept per identity.  Every failure is still counted, but a broken
# kernel at a large --trials must not keep (and a pool worker pickle back)
# one witness per sample.
MAX_WITNESSES = 20


@dataclass
class IdentityReport:
    """Outcome of checking one identity over a family of inputs.

    ``failed`` counts every failed check; ``failures`` keeps the witnesses
    of the first MAX_WITNESSES of them.
    """

    identity: str
    passes: int = 0
    failures: list[Witness] = field(default_factory=list)
    failed: int = 0

    def _fail(self, inputs, lhs, rhs) -> bool:
        self.failed += 1
        if len(self.failures) < MAX_WITNESSES:
            self.failures.append(Witness(str(inputs), str(lhs), str(rhs)))
        return False

    def record(self, inputs, lhs, rhs) -> bool:
        """Require lhs == rhs; on failure keep a printable witness."""
        if lhs == rhs:
            self.passes += 1
            return True
        return self._fail(inputs, lhs, rhs)

    def record_differ(self, inputs, lhs, rhs) -> bool:
        """Require lhs != rhs (used for non-cocommutativity witnesses)."""
        if lhs != rhs:
            self.passes += 1
            return True
        return self._fail(inputs, lhs, rhs)

    def record_true(self, inputs, condition, detail="") -> bool:
        if condition:
            self.passes += 1
            return True
        return self._fail(inputs, detail, "")

    @property
    def checks(self) -> int:
        return self.passes + self.failed

    @property
    def ok(self) -> bool:
        """Passed: at least one check ran and none failed.  An identity that
        ran no checks tested nothing, so it does not pass."""
        return self.passes > 0 and not self.failed

    @property
    def status(self) -> str:
        if self.failed:
            return "FAIL"
        return "PASS" if self.passes else "EMPTY"

    def to_json(self):
        """The witnesses kept; an identity that failed also carries the
        count of every failure as ``failed``."""
        out = {
            "identity": self.identity,
            "passes": self.passes,
            "failures": [w.to_json() for w in self.failures],
        }
        if self.failed:
            out["failed"] = self.failed
        return out


@dataclass
class CheckReport:
    """A named bundle of identity reports (one verification suite)."""

    name: str
    identities: list[IdentityReport] = field(default_factory=list)

    def new(self, identity: str) -> IdentityReport:
        rep = IdentityReport(identity)
        self.identities.append(rep)
        return rep

    def extend(self, other: "CheckReport") -> None:
        self.identities.extend(other.identities)

    @property
    def ok(self) -> bool:
        return all(rep.ok for rep in self.identities)

    def render_text(self) -> str:
        lines = [f"suite {self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for rep in self.identities:
            tail = f" failures={rep.failed}" if rep.failed else ""
            lines.append(f"  {rep.status} {rep.identity} (checks={rep.checks}{tail})")
            for w in rep.failures:
                lines.append(f"    inputs: {w.inputs}")
                lines.append(f"    lhs:    {w.lhs}")
                lines.append(f"    rhs:    {w.rhs}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "suite": self.name,
            "ok": self.ok,
            "identities": [rep.to_json() for rep in self.identities],
        }
