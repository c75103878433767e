"""TRUST-lint reporters: render an AnalysisReport for humans or machines.

Three formats: GCC-style text (with indented source-to-sink traces for
taint findings), a stable JSON document, and SARIF 2.1.0 — taint traces
become SARIF ``codeFlows`` so IDE/code-scanning UIs can step through
every hop from secret source to observable sink.
"""

from __future__ import annotations

import json

from .core import all_rules
from .engine import AnalysisReport

__all__ = ["render_text", "render_json", "render_sarif",
           "render_rule_list"]


def render_text(report: AnalysisReport) -> str:
    """GCC-style ``path:line:col: RULE message`` lines plus a summary."""
    lines: list[str] = []
    for display, message in report.parse_errors:
        lines.append(f"{display}: PARSE {message}")
    for finding in report.findings:
        tag = "" if finding.severity == "error" else f" [{finding.severity}]"
        lines.append(
            f"{finding.location()}: {finding.rule}{tag} {finding.message}")
        snippet = finding.source_line.strip()
        if snippet:
            lines.append(f"    {snippet}")
        if finding.trace:
            lines.append("    trace:")
            for hop in finding.trace:
                lines.append(f"      {hop.location()}  {hop.note}")
    if report.verify_stats is not None:
        lines.append(_verify_stats_text(report.verify_stats))
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_scanned} "
        f"file(s)"
    )
    if report.verify_stats is not None:
        summary = (f"{len(report.findings)} finding(s) in "
                   f"{report.verify_stats['states']} explored state(s)")
    extras = []
    if report.suppressed_count:
        extras.append(f"{report.suppressed_count} suppressed")
    if report.parse_errors:
        extras.append(f"{len(report.parse_errors)} unparseable")
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    return "\n".join(lines)


def _verify_stats_text(stats: dict) -> str:
    lines = [
        "verify: depth budget %d, adversary %s%s" % (
            stats["depth"], "on" if stats["adversary"] else "off",
            (", mutations: " + ", ".join(stats["mutations"])
             if stats["mutations"] else "")),
        "verify: %d state(s), %d transition(s) in %.2fs "
        "(%d states/s, peak frontier %d)%s" % (
            stats["states"], stats["transitions"], stats["elapsed_s"],
            stats["states_per_s"], stats["max_frontier"],
            "" if stats["exhausted"] else " — BUDGET EXCEEDED"),
    ]
    for sc in stats["scenarios"]:
        lines.append(
            "verify:   %-10s %6d state(s) depth %2d %s" % (
                sc["name"], sc["states"], sc["depth"],
                "exhausted" if sc["exhausted"] else "truncated"))
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Stable machine-readable rendering (one JSON document)."""
    payload = {
        "version": 1,
        "clean": report.clean,
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed_count,
        "taint_ran": "taint" in report.stages,
        "parse_errors": [
            {"path": display, "message": message}
            for display, message in report.parse_errors
        ],
        "findings": [
            {
                "rule": finding.rule,
                "severity": finding.severity,
                "message": finding.message,
                "path": finding.path,
                "module": finding.module,
                "line": finding.line,
                "col": finding.col,
                "fingerprint": finding.fingerprint(),
                "trace": [
                    {"path": hop.path, "line": hop.line, "note": hop.note}
                    for hop in finding.trace
                ],
            }
            for finding in report.findings
        ],
    }
    if report.verify_stats is not None:
        payload["verify"] = report.verify_stats
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_location(path: str, line: int, col: int = 0,
                    message: str | None = None) -> dict:
    location = {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {"startLine": max(1, line),
                       "startColumn": max(1, col + 1)},
        },
    }
    if message is not None:
        location["message"] = {"text": message}
    return location


def render_sarif(report: AnalysisReport) -> str:
    """SARIF 2.1.0; taint traces are emitted as ``codeFlows``."""
    rules = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
        }
        for rule in all_rules()
    ]
    results = []
    for finding in report.findings:
        result = {
            "ruleId": finding.rule,
            "level": finding.severity
            if finding.severity in ("error", "warning", "note")
            else "error",
            "message": {"text": finding.message},
            "locations": [_sarif_location(finding.path, finding.line,
                                          finding.col)],
            "partialFingerprints": {
                "trustLint/v1": finding.fingerprint(),
            },
        }
        if finding.trace:
            result["codeFlows"] = [{
                "threadFlows": [{
                    "locations": [
                        {"location": _sarif_location(hop.path, hop.line,
                                                     message=hop.note)}
                        for hop in finding.trace
                    ],
                }],
            }]
        results.append(result)
    for display, message in report.parse_errors:
        results.append({
            "ruleId": "PARSE",
            "level": "error",
            "message": {"text": message},
            "locations": [_sarif_location(display, 1)],
        })
    run: dict = {
        "tool": {
            "driver": {
                "name": "repro-lint",
                "informationUri": "https://example.invalid/trust-lint",
                "rules": rules,
            },
        },
        "results": results,
    }
    if report.verify_stats is not None:
        run["properties"] = {"verify": report.verify_stats}
    payload = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [run],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """The registered rule set, one line per rule."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"       {rule.summary}")
    return "\n".join(lines)
