"""Glue between the model checker and the TRUST-lint engine.

:func:`run_verify` explores every requested scenario and converts each
:class:`~repro.analysis.verify.explorer.Violation` into a
:class:`~repro.analysis.core.Finding` anchored at the real
``src/repro/net`` handler the abstract transition models, with the
message-sequence transcript attached as the finding's trace so the
text/JSON/SARIF reporters render counterexamples exactly like taint
flows.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..core import Finding, TraceHop
from .explorer import explore_scenario
from .model import MUTATIONS, SCENARIOS, VerifyOptions

__all__ = ["run_verify"]

#: Where each rule's finding is anchored: the concrete function whose
#: contract the invariant checks, by qualified name within its file.
_RULE_ANCHORS = {
    "PV400": ("repro/analysis/verify/explorer.py", "explore"),
    "PV401": ("repro/net/channel.py", "UntrustedChannel.send"),
    "PV402": ("repro/net/webserver.py", "WebServer._serve_login"),
    "PV403": ("repro/net/webserver.py", "WebServer._serve_request"),
    "PV404": ("repro/net/reset_transfer.py", "transfer_identity"),
    "PV405": ("repro/net/webserver.py", "WebServer.reset_identity"),
}

#: Where each transition kind's trace hops point.
_KIND_ANCHORS = {
    "init": ("repro/analysis/verify/model.py", "build_world"),
    "register": ("repro/net/protocol.py", "TrustClient.register"),
    "login": ("repro/net/protocol.py", "TrustClient.login"),
    "request": ("repro/net/protocol.py", "TrustClient.request"),
    "answer": ("repro/net/protocol.py", "TrustClient.answer_challenge"),
    "reset": ("repro/net/webserver.py", "WebServer.reset_identity"),
    "transfer": ("repro/net/reset_transfer.py", "transfer_identity"),
    "adv-register": ("repro/net/webserver.py",
                     "WebServer._serve_registration"),
    "adv-login": ("repro/net/webserver.py", "WebServer._serve_login"),
    "adv-request": ("repro/net/webserver.py", "WebServer._serve_request"),
    "adv-answer": ("repro/net/webserver.py",
                   "WebServer._serve_challenge_response"),
    "adv-channel": ("repro/net/channel.py", "UntrustedChannel.send"),
    "malware": ("repro/flock/module.py", "FlockModule.session_mac"),
}

_SRC_ROOT = Path(__file__).resolve().parents[3]

_anchor_cache: dict[tuple[str, str], tuple[str, str, int, str]] = {}


def _anchor(rel: str, func: str) -> tuple[str, str, int, str]:
    """(display_path, module, line, source_line) for a function def.

    ``func`` is the def's qualified name within the file, dotted through
    its enclosing classes (``"TrustClient.login"``).
    """
    slot = (rel, func)
    cached = _anchor_cache.get(slot)
    if cached is not None:
        return cached
    path = _SRC_ROOT / rel
    module = rel[:-3].replace("/", ".")
    display = f"src/{rel}"
    line, text = 1, ""
    try:
        source = path.read_text(encoding="utf-8")
        scope = ast.parse(source)
        for name in func.split("."):
            scope = next((node for node in scope.body
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                          and node.name == name), None)
            if scope is None:
                break
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = scope.lineno
            text = source.splitlines()[line - 1]
    except (OSError, SyntaxError):  # pragma: no cover - source moved
        display = f"<{module}>"
    result = (display, module, line, text)
    _anchor_cache[slot] = result
    return result


def _to_finding(violation) -> Finding:
    rel, func = _RULE_ANCHORS[violation.rule]
    display, module, line, text = _anchor(rel, func)
    trace = []
    for kind, note in violation.steps:
        hop_rel, hop_func = _KIND_ANCHORS.get(
            kind, _RULE_ANCHORS[violation.rule])
        hop_display, _m, hop_line, _t = _anchor(hop_rel, hop_func)
        trace.append(TraceHop(hop_display, hop_line, note))
    severity = "note" if violation.rule == "PV400" else "error"
    return Finding(
        rule=violation.rule,
        message=(f"[scenario={violation.scenario} "
                 f"depth={violation.depth}] {violation.message}"),
        path=display, module=module, line=line, col=0,
        source_line=text, trace=tuple(trace), severity=severity)


def run_verify(*, depth: int = VerifyOptions.depth,
               max_states: int = VerifyOptions.max_states,
               entries: tuple[str, ...] = tuple(SCENARIOS),
               adversary: bool = VerifyOptions.adversary,
               mutations: tuple[str, ...] = (),
               ) -> tuple[list[Finding], dict]:
    """Model-check the protocol; return (findings, statistics).

    The defaults match the CI pin: depth 12, at most 150,000 states per
    scenario, all six entry points, adversary enabled.
    """
    for name in entries:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown verify entry {name!r} "
                f"(choices: {', '.join(sorted(SCENARIOS))})")
    for name in mutations:
        if name not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {name!r} "
                f"(choices: {', '.join(sorted(MUTATIONS))})")

    opts = VerifyOptions(
        depth=depth, max_states=max_states, adversary=adversary,
        mutations=frozenset(mutations))

    findings: list[Finding] = []
    scenario_stats = []
    truncated = []
    for name in entries:
        violations, stats = explore_scenario(SCENARIOS[name], opts)
        for rule in sorted(violations):
            findings.append(_to_finding(violations[rule]))
        scenario_stats.append(stats)
        if not stats.exhausted:
            truncated.append(stats)

    for stats in truncated:
        rel, func = _RULE_ANCHORS["PV400"]
        display, module, line, text = _anchor(rel, func)
        findings.append(Finding(
            rule="PV400",
            message=(f"[scenario={stats.name}] state-space budget "
                     f"exceeded after {stats.states} states "
                     f"(max-states={max_states}); coverage is partial — "
                     "raise --max-states or lower --depth"),
            path=display, module=module, line=line, col=0,
            source_line=text, severity="note"))

    total_states = sum(s.states for s in scenario_stats)
    total_transitions = sum(s.transitions for s in scenario_stats)
    total_elapsed = sum(s.elapsed_s for s in scenario_stats)
    stats_dict = {
        "depth": depth,
        "max_states": max_states,
        "adversary": adversary,
        "mutations": sorted(mutations),
        "states": total_states,
        "transitions": total_transitions,
        "elapsed_s": round(total_elapsed, 3),
        "states_per_s": round(total_states / total_elapsed)
        if total_elapsed > 0 else total_states,
        "max_frontier": max((s.max_frontier for s in scenario_stats),
                            default=0),
        "exhausted": not truncated,
        "scenarios": [
            {"name": s.name, "states": s.states,
             "transitions": s.transitions, "depth": s.depth,
             "max_frontier": s.max_frontier, "exhausted": s.exhausted,
             "elapsed_s": round(s.elapsed_s, 3)}
            for s in scenario_stats],
    }
    findings.sort(key=lambda f: (f.rule, f.message))
    return findings, stats_dict
