"""Structured pass/fail reports with concrete witnesses."""

from __future__ import annotations

from .errors import DefectError
from .record import Record


class CheckResult(Record):
    _fields = ("name", "passed", "witnesses", "info")

    def __init__(self, name: str, passed: bool, witnesses: list | None = None, info: dict | None = None):
        self.name = name
        self.passed = passed
        self.witnesses = [] if witnesses is None else witnesses
        self.info = {} if info is None else info

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            "info": dict(self.info),
        }


class VerificationReport(Record):
    _fields = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None):
        self.checks = [] if checks is None else checks

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
