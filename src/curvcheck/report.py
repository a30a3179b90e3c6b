"""Run reports: assembly, JSON emission, and the text table.

A report is byte-stable for a given config and seed: checks are sorted by
name, floats render through ``json.dumps`` defaults, and the only field two
identical runs may disagree on is ``duration_seconds``.  Consumers diffing
reports should mask that one field.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from .errors import IoError

__all__ = ["CheckResult", "RunReport", "to_json_dict", "render_text", "emit"]


class CheckResult(NamedTuple):
    """One row of a run report.

    ``verdict`` is ``"pass"``, ``"fail"``, or ``"error"`` (the check raised
    instead of finishing; counts as a failure).  ``max_residual`` is None
    for error rows and for rows failed by a non-finite residual or a broken
    exact law.  :func:`curvcheck.checks.run_check` states the verdict rule.
    """

    # the fields in the key order of a report row, which to_json_dict keeps
    name: str
    kind: str
    samples: int
    max_residual: float | None
    tolerance: float
    verdict: str
    detail: str = ""


class RunReport(NamedTuple):
    tool_version: str
    config_digest: str
    seed: int
    duration_seconds: float
    checks: tuple[CheckResult, ...]

    @property
    def verdict(self) -> str:
        """Conjunction of the per-check verdicts (vacuously a pass)."""
        return "pass" if all(c.verdict == "pass" for c in self.checks) else "fail"


def to_json_dict(report: RunReport) -> dict:
    """The report as JSON values, keys in the order of the fields."""
    checks = [c._asdict() for c in report.checks]
    return {"verdict": report.verdict, **report._asdict(), "checks": checks}


def _verdict_label(verdict: str) -> str:
    return verdict.upper() if verdict != "pass" else "pass"


def _residual_label(value: float | None) -> str:
    return "-" if value is None else f"{value:.3e}"


def render_text(report: RunReport) -> str:
    """Fixed-width table, failing rows first, then the global verdict."""
    failing = [c for c in report.checks if c.verdict != "pass"]
    passing = [c for c in report.checks if c.verdict == "pass"]
    rows = [
        (
            c.name,
            c.kind,
            str(c.samples),
            _residual_label(c.max_residual),
            f"{c.tolerance:.1e}",
            _verdict_label(c.verdict),
            c.detail,
        )
        for c in failing + passing
    ]
    header = ("check", "kind", "samples", "max residual", "tolerance", "verdict")
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(6)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(6)),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(6)).rstrip())
        if r[6]:
            lines.append(f"    {r[6]}")
    failed = len(failing)
    lines.append("")
    lines.append(
        f"verdict: {report.verdict} ({len(report.checks)} checks, "
        f"{failed} failed) in {report.duration_seconds:.2f}s"
    )
    return "\n".join(lines) + "\n"


def emit(report: RunReport, format: str = "text", out_path: str | None = None) -> None:
    """Write the report as JSON or text to ``out_path`` or standard output."""
    if format == "json":
        payload = json.dumps(to_json_dict(report), indent=2) + "\n"
    elif format == "text":
        payload = render_text(report)
    else:
        raise ValueError(f"unknown report format {format!r}")
    if out_path is None:
        sys.stdout.write(payload)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        raise IoError(f"cannot write report to {out_path}: {exc}") from exc
