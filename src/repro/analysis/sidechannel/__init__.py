"""TRUST-sc: interprocedural constant-time / side-channel analysis.

The paper's long-lived secrets — device keys, session MACs, fingerprint
templates — are exercised continuously over a remote channel, which is
exactly where secret-dependent timing is observable.  The PV4xx model
checker deliberately assumes perfect crypto, so this sixth assurance
stage polices the gap: it shares the taint pass's ProjectIndex/symbol
table and re-reads its secrecy lattice as *timing taint*, reporting
SC800–SC805 wherever a secret-derived value steers control flow, memory
addressing, or a variable-time bigint primitive inside the four
secret-bearing packages (see :mod:`.flow` for the lattice and the
explicit declassification model).

The static pass is paired with a dynamic witness in :mod:`.witness`: a
deterministic branch/opcode-trace harness (dudect-style, built on
``sys.monitoring``) that runs MAC compare, the ChaCha20 keystream, and
the RSA private op on crafted secret-input pairs and asserts
byte-identical operation traces — the interpreter-level check the
static lattice cannot make about CPython's own internals.

Entry point: :func:`run_sc` mirrors ``run_det`` — same module contexts
and shared index in, findings sorted by location out.
"""

from __future__ import annotations

from ..config import AnalysisConfig
from ..core import Finding, ModuleContext
from ..taint.symbols import ProjectIndex
from .flow import SidechannelAnalysis

__all__ = ["run_sc", "SidechannelAnalysis"]


def run_sc(contexts: list[ModuleContext], config: AnalysisConfig,
           index: ProjectIndex) -> list[Finding]:
    """Run the side-channel flow pass; returns sorted findings.

    ``index`` is the one symbol table the engine builds for every stage
    of a run.
    """
    flow = SidechannelAnalysis(contexts, config, index=index)
    findings = flow.run()
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
