"""TRUST-lint core: findings, module contexts, suppressions, rule registry.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) and
yields :class:`Finding` objects.  Rules register themselves with the
:func:`register` decorator; the engine discovers them through
:func:`all_rules`.  Suppression comments are parsed here, once per module,
with the ``tokenize`` module so that ``#`` characters inside string
literals never masquerade as directives.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .config import AnalysisConfig

__all__ = [
    "Finding", "TraceHop", "ModuleContext", "Rule", "ProjectRule", "register",
    "all_rules", "get_rule", "terminal_name",
]

#: ``# trust-lint: disable=CD201,RB301`` (line scope) or
#: ``# trust-lint: disable-file=CD201`` (whole module).  A bare ``disable``
#: with no rule list silences every rule for that line.  An optional
#: ``-- reason`` tail documents *why* (``disable=SC803 -- CPython bigint
#: internals``); the reason is recorded so audits can require one.
_DIRECTIVE_RE = re.compile(
    r"#\s*trust-lint:\s*(?P<scope>disable-file|disable)"
    r"(?:\s*=\s*(?P<rules>[A-Za-z0-9_*-]+(?:\s*,\s*[A-Za-z0-9_*-]+)*))?"
    r"(?:\s*--\s*(?P<reason>\S.*?)\s*$)?")


@dataclass(frozen=True)
class TraceHop:
    """One hop of a source-to-sink taint trace."""

    path: str
    line: int
    note: str

    def location(self) -> str:
        """``path:line`` for human output."""
        return f"{self.path}:{self.line}"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Dataflow rules (SF110/SF111, SC800–SC805) attach the full source-to-sink
    ``trace``; purely syntactic rules leave it empty.  The trace never
    enters the fingerprint, so SARIF's ``partialFingerprints`` survive
    trace refinements.
    """

    rule: str
    message: str
    path: str
    module: str
    line: int
    col: int
    source_line: str
    trace: tuple[TraceHop, ...] = ()
    severity: str = "error"  # "error" | "warning" | "note"

    def fingerprint(self) -> str:
        """Stable id for SARIF's ``partialFingerprints``: survives pure
        line motion."""
        basis = f"{self.module}::{self.rule}::{self.source_line.strip()}"
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        """``path:line:col`` for human output."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: Path
    display_path: str
    module: str  # dotted module name, e.g. "repro.net.webserver"
    package: str  # top-two-component package, e.g. "repro.net"
    source: str
    tree: ast.Module
    is_package: bool = False  # True for a package __init__.py
    lines: list[str] = field(default_factory=list)
    #: line number -> rule ids suppressed there (``None`` = all rules).
    line_suppressions: dict[int, set[str] | None] = field(
        init=False, default_factory=dict)
    #: rule ids suppressed for the whole file (``None`` = all rules).
    file_suppressions: set[str] | None = field(init=False,
                                               default_factory=set)
    #: line number -> the ``-- reason`` text of its directive, when given.
    suppression_reasons: dict[int, str] = field(init=False,
                                                default_factory=dict)

    @classmethod
    def build(cls, path: Path, display_path: str, module: str,
              source: str, is_package: bool = False) -> "ModuleContext":
        """Parse source and collect suppression directives."""
        tree = ast.parse(source, filename=display_path)
        ctx = cls(
            path=path,
            display_path=display_path,
            module=module,
            package=".".join(module.split(".")[:2]),
            source=source,
            tree=tree,
            is_package=is_package,
            lines=source.splitlines(),
        )
        ctx._collect_suppressions()
        return ctx

    def _collect_suppressions(self) -> None:
        if "trust-lint" not in self.source:
            return  # no directives anywhere: skip the tokenize pass
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(self.source).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE_RE.search(token.string)
            if match is None:
                continue
            rules_text = match.group("rules")
            rules: set[str] | None
            if rules_text is None or "*" in rules_text:
                rules = None  # all rules
            else:
                rules = {r.strip() for r in rules_text.split(",") if r.strip()}
            reason = match.group("reason")
            if match.group("scope") == "disable-file":
                if rules is None or self.file_suppressions is None:
                    self.file_suppressions = None
                else:
                    self.file_suppressions |= rules
            else:
                existing = self.line_suppressions.get(token.start[0], set())
                if rules is None or existing is None:
                    self.line_suppressions[token.start[0]] = None
                else:
                    self.line_suppressions[token.start[0]] = existing | rules
                if reason:
                    self.suppression_reasons[token.start[0]] = reason

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Is ``rule_id`` suppressed at ``line`` (or file-wide)?"""
        if self.file_suppressions is None or rule_id in self.file_suppressions:
            return True
        if line in self.line_suppressions:
            rules = self.line_suppressions[line]
            return rules is None or rule_id in rules
        return False

    def source_line(self, line: int) -> str:
        """The text of one 1-indexed source line ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at an AST node."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id, message=message, path=self.display_path,
            module=self.module, line=line, col=col,
            source_line=self.source_line(line),
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set ``id``/``name``/``summary`` and implement
    :meth:`check`.  ``id`` is the stable identifier used in reports,
    suppression comments and config.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    severity: str = "error"  # default severity of this rule's findings

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule computed over the whole project at once, not per module.

    Project rules (the taint rules) exist in the registry so they share
    the id/enable/suppress machinery, but the engine never calls
    their per-module :meth:`check`; their findings come out of the
    project-wide pass in :mod:`repro.analysis.taint`.
    """

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        return iter(())


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id."""
    _ensure_rules_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise ValueError(f"unknown rule id {rule_id!r}") from None


def _ensure_rules_loaded() -> None:
    # Importing the rules package populates the registry via @register.
    from . import rules  # noqa: F401


def terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain, else None.

    ``session_key`` -> ``session_key``; ``self._device_key`` ->
    ``_device_key``; anything else (calls, subscripts, literals) -> None,
    so rules only ever reason about names the author actually wrote.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def iter_nodes(tree: ast.AST, *types) -> Iterable[ast.AST]:
    """``ast.walk`` filtered to the given node types."""
    for node in ast.walk(tree):
        if isinstance(node, types):
            yield node
