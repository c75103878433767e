"""TB001 — trust-boundary imports: enforce the layering DAG.

The paper's trusted computing base (``repro.crypto``, ``repro.flock``)
must be auditable in isolation: if the crypto substrate could import the
web server, a refactor could silently route key material through untrusted
code.  The allowed edges live in :data:`repro.analysis.config.LAYERING`;
this rule flags any ``repro.*`` import outside them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import LAYERING, AnalysisConfig
from ..core import Finding, ModuleContext, Rule, register

__all__ = ["TrustBoundaryImports"]


def _package_of(module: str) -> str:
    """Top-two-component package of a dotted module name."""
    return ".".join(module.split(".")[:2])


def _resolve_relative(ctx: ModuleContext, node: ast.ImportFrom) -> str | None:
    """Absolute module a relative import refers to, or None if unresolvable."""
    parts = ctx.module.split(".")
    if not ctx.is_package:
        parts = parts[:-1]  # level 1 refers to the containing package
    extra_levels = node.level - 1
    if extra_levels >= len(parts):
        return None
    if extra_levels:
        parts = parts[:-extra_levels]
    base = list(parts)
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


@register
class TrustBoundaryImports(Rule):
    id = "TB001"
    name = "trust-boundary-imports"
    summary = ("repro package imports must follow the layering DAG; the "
               "trusted layers may never import untrusted ones")

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        allowed = LAYERING.get(ctx.package)
        if allowed is None:
            return  # unconstrained package
        permitted = allowed | {ctx.package}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_target(ctx, node, alias.name,
                                                 permitted)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    target = _resolve_relative(ctx, node)
                    if target is not None:
                        yield from self._check_target(ctx, node, target,
                                                      permitted)
                    continue
                if node.module == "repro":
                    # ``from repro import net`` names subpackages directly.
                    for alias in node.names:
                        yield from self._check_target(
                            ctx, node, f"repro.{alias.name}", permitted)
                elif node.module:
                    yield from self._check_target(ctx, node, node.module,
                                                  permitted)

    def _check_target(self, ctx: ModuleContext, node: ast.AST, target: str,
                      permitted: frozenset[str] | set[str]) -> Iterator[Finding]:
        if not (target == "repro" or target.startswith("repro.")):
            return
        target_pkg = _package_of(target)
        if target_pkg in permitted:
            return
        yield ctx.finding(
            self.id, node,
            f"layering violation: {ctx.package} may not import {target_pkg} "
            f"(allowed: {', '.join(sorted(permitted)) or 'none'})")
