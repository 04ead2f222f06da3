"""Structured pass/fail reports with concrete witnesses."""

from __future__ import annotations

from .errors import DefectError
from .record import Record


class CheckResult(Record):
    name: str
    passed: bool
    witnesses: list | None = None
    info: dict | None = None

    def __post_init__(self) -> None:
        if self.witnesses is None:
            self.witnesses = []
        if self.info is None:
            self.info = {}

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            "info": dict(self.info),
        }


class VerificationReport(Record):
    checks: list[CheckResult] | None = None

    def __post_init__(self) -> None:
        if self.checks is None:
            self.checks = []

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
