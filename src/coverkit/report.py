"""Structured pass/fail reports with concrete witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DefectError


@dataclass
class CheckResult:
    name: str
    passed: bool
    witnesses: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            "info": dict(self.info),
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witnesses: list | None = None, **info) -> CheckResult:
        c = CheckResult(name, passed, list(witnesses or []), dict(info))
        if not (c.passed or c.witnesses):
            raise DefectError(f"failing check {name} must carry a witness")
        self.checks.append(c)
        return c

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json_dict() for c in self.checks]}
