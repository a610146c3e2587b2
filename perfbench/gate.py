"""Correctness gate for one holodiff report.

Every request's report is parsed in full.  The header must name the
command and seed that were requested, every ``check=`` line must be
well formed and consistent with its own residual and tolerance, the
``overall=`` counts must match the check lines, and a CLI exit code must
be 0 exactly when no line is ``FAIL``.  Anything else raises
`MalformedReport`, which aborts the benchmark: a malformed report is a
broken program, not a failed check.
"""

from __future__ import annotations

from dataclasses import dataclass

CHECK_KEYS = ("check", "anchor", "status", "residual", "tol", "ms")


class MalformedReport(Exception):
    """The report breaks its own format or counts."""


@dataclass(frozen=True)
class Verdict:
    checks: tuple  # (name, status, anchor) in report order

    @property
    def failed_checks(self):
        """``name:anchor`` of each failing check; the anchor tells a
        residual over its tolerance from an ``internal-error``."""
        return [f"{name}:{anchor}" for name, status, anchor in self.checks if status == "FAIL"]


def _number(text, field, line):
    if text == "-":
        return None
    try:
        return float(text)
    except ValueError:
        raise MalformedReport(f"{field}={text!r} is not a number: {line!r}") from None


def _check_line(line):
    tokens = line.split(" ")
    if len(tokens) < len(CHECK_KEYS):
        raise MalformedReport(f"short check line: {line!r}")
    fields = {}
    for key, tok in zip(CHECK_KEYS, tokens):
        k, sep, v = tok.partition("=")
        if k != key or not sep:
            raise MalformedReport(f"expected {key}= in check line: {line!r}")
        fields[key] = v
    rest = tokens[len(CHECK_KEYS):]
    if rest and not rest[0].startswith("note="):
        raise MalformedReport(f"unexpected trailing field: {line!r}")
    status, anchor = fields["status"], fields["anchor"]
    if status not in ("PASS", "FAIL", "WARN"):
        raise MalformedReport(f"unknown status: {line!r}")
    if not fields["ms"].isdigit():
        raise MalformedReport(f"ms is not a whole number: {line!r}")
    residual = _number(fields["residual"], "residual", line)
    tol = _number(fields["tol"], "tol", line)
    if anchor == "internal-error":
        if status != "FAIL" or residual is not None or tol is not None:
            raise MalformedReport(f"internal-error record must be a bare FAIL: {line!r}")
    elif residual is not None and tol is not None and residual != tol:
        # Equal printed values may come from either side of the rounding.
        expected = "PASS" if residual <= tol else "FAIL"
        if status != expected:
            raise MalformedReport(f"status disagrees with residual and tol: {line!r}")
    return fields["check"], status, anchor


def check_report(text, *, command, seed, expected_checks, exit_code=None):
    """Validate one report and return its `Verdict`.

    `expected_checks` is the exact set of check names the request must
    produce.  `exit_code` is the CLI return value, or None for a
    library-level request that has none.
    """
    if not text.endswith("\n"):
        raise MalformedReport("report does not end with a newline")
    lines = text[:-1].split("\n")
    header = [("tool", "holodiff"), ("version", None), ("command", command),
              ("seed", str(seed)), ("curve-sha256", None)]
    if len(lines) < len(header) + 1:
        raise MalformedReport(f"report has only {len(lines)} lines")
    for line, (key, want) in zip(lines, header):
        k, sep, v = line.partition("=")
        if k != key or not sep or not v or (want is not None and v != want):
            raise MalformedReport(f"header line {line!r}, expected {key}={want or '...'}")
    body = lines[len(header):-1]
    while body and body[0].startswith("tolerance "):
        body = body[1:]
    checks = tuple(_check_line(line) for line in body)
    names = [c[0] for c in checks]
    if names != sorted(names) or len(set(names)) != len(names):
        raise MalformedReport(f"check lines are not unique and sorted: {names}")
    if set(names) != set(expected_checks):
        raise MalformedReport(f"checks {names}, expected {sorted(expected_checks)}")

    failures = sum(1 for c in checks if c[1] == "FAIL")
    warnings = sum(1 for c in checks if c[1] == "WARN")
    overall = "FAIL" if failures else "PASS"
    want = f"overall={overall} checks={len(checks)} failures={failures} warnings={warnings}"
    if lines[-1] != want:
        raise MalformedReport(f"summary {lines[-1]!r}, expected {want!r}")
    if exit_code is not None and exit_code != (1 if failures else 0):
        raise MalformedReport(f"exit code {exit_code} with {failures} failing checks")
    return Verdict(checks)
