"""Deterministic key=value check reports for the command line tools.

A report is a header (tool, version, command, seed, curve-file digest,
tolerance overrides), one line per check sorted by check name, and an
overall verdict.  Written files pin the timing field to zero so that
two runs with the same inputs produce byte-identical output; console
output keeps the real timings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "Report", "sha256_digest"]

_FLOAT_FMT = "%.6e"


def sha256_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt_float(x) -> str:
    if x is None:
        return "-"
    return _FLOAT_FMT % float(x)


@dataclass
class CheckRecord:
    """Outcome of one named check."""

    name: str
    anchor: str
    status: str
    residual: float | None = None
    tol: float | None = None
    ms: float = 0.0
    note: str = ""

    def __post_init__(self):
        if self.status not in ("PASS", "FAIL", "WARN"):
            raise ValueError(f"unknown status {self.status!r}")

    def render(self, pin_ms: bool) -> str:
        ms = 0 if pin_ms else int(round(self.ms))
        parts = [
            f"check={self.name}",
            f"anchor={self.anchor}",
            f"status={self.status}",
            f"residual={_fmt_float(self.residual)}",
            f"tol={_fmt_float(self.tol)}",
            f"ms={ms}",
        ]
        if self.note:
            parts.append("note=" + self.note.replace("\n", " "))
        return " ".join(parts)


@dataclass
class Report:
    """Ordered collection of check records plus run metadata."""

    command: str
    version: str
    seed: int
    curve_digest: str = "-"
    tol_overrides: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.status == "FAIL")

    @property
    def warnings(self) -> int:
        return sum(1 for r in self.records if r.status == "WARN")

    def overall(self) -> str:
        return "FAIL" if self.failures else "PASS"

    def render(self, pin_ms: bool = False) -> str:
        lines = [
            "tool=holodiff",
            f"version={self.version}",
            f"command={self.command}",
            f"seed={self.seed}",
            f"curve-sha256={self.curve_digest}",
        ]
        for name in sorted(self.tol_overrides):
            lines.append(f"tolerance {name}={_FLOAT_FMT % self.tol_overrides[name]}")
        for record in sorted(self.records, key=lambda r: r.name):
            lines.append(record.render(pin_ms))
        lines.append(
            f"overall={self.overall()} checks={len(self.records)} "
            f"failures={self.failures} warnings={self.warnings}"
        )
        return "\n".join(lines) + "\n"
