"""TRUST-det: whole-program determinism & shard-isolation analysis.

The parallel fleet cut needs two guarantees the other three stages do
not give: every simulation output must be a pure function of the run
configuration (no wall clock, no OS entropy, no hash-seed-dependent
iteration order reaching anything observable), and shard state must be
confined so workers can run in separate processes without silently
diverging.  This package is the fourth assurance stage, sharing the
taint pass's symbol table and call graph:

1. :mod:`.syntactic` — DT601/602/603/605: calls that are
   nondeterministic at the call site (wall clock, unseeded RNG,
   ``id()``/``__hash__`` keying, environment/filesystem-order reads).
2. :mod:`.flow` — DT604/606: interprocedural order-taint, seeded at set
   construction and reported where the order reaches an output, digest
   or wire-encode sink (or a float accumulation, for DT606).
3. :mod:`.escape` — RC610/611/612: state that crosses the shard
   boundary outside the wire codec / migration conduits.

Entry point: :func:`run_det` takes the module contexts and the engine's
shared symbol index, and returns findings sorted by location.
"""

from __future__ import annotations

from ..config import AnalysisConfig
from ..core import Finding, ModuleContext, get_rule
from ..taint.symbols import ProjectIndex
from .escape import check_escapes
from .flow import OrderFlowAnalysis
from .syntactic import check_module_sources

__all__ = ["run_det"]


def run_det(contexts: list[ModuleContext], config: AnalysisConfig,
            index: ProjectIndex) -> list[Finding]:
    """Run all three determinism passes; returns sorted findings.

    ``index`` is the one symbol table the engine builds for every stage
    of a run.
    """
    findings: list[Finding] = []
    emitted: set[tuple] = set()

    def emit(rule_id: str, ctx: ModuleContext, node, message: str,
             trace: tuple) -> None:
        if not config.rule_enabled(rule_id):
            return
        if config.in_det_exempt_module(ctx.module):
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if ctx.is_suppressed(rule_id, line):
            return
        marker = (rule_id, ctx.display_path, line, col)
        if marker in emitted:
            return
        emitted.add(marker)
        findings.append(Finding(
            rule=rule_id, message=message, path=ctx.display_path,
            module=ctx.module, line=line, col=col,
            source_line=ctx.source_line(line), trace=tuple(trace),
            severity=get_rule(rule_id).severity))

    for ctx in sorted(contexts, key=lambda c: c.module):
        if config.in_det_exempt_module(ctx.module):
            continue
        check_module_sources(ctx, index, config, emit)
    check_escapes(contexts, index, config, emit)
    flow = OrderFlowAnalysis(contexts, config, index=index)
    findings.extend(flow.run())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
