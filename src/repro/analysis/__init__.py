"""TRUST-lint: AST-based static analysis enforcing the paper's invariants.

The security argument of the paper is structural: FLock is a *trusted*
module whose private keys and fingerprint templates never cross into
host/browser code, all randomness feeding key material is cryptographically
sound, and the only weak hash in the system (MD5) is confined to the
frame-hash display path where collision resistance is not load-bearing.
``repro.analysis`` turns those prose invariants into machine-checked rules
that every refactor runs under:

========  ===================================================================
Rule      Invariant
========  ===================================================================
TB001     trust-boundary imports: the layering DAG of ``repro.*`` packages
          (``repro.flock``/``repro.crypto`` may never import the untrusted
          ``repro.net``/``repro.core``/``repro.baselines``/``repro.attacks``)
CD201     crypto discipline: no stdlib ``random`` inside ``repro.crypto`` or
          ``repro.flock`` — key material comes from ``repro.crypto.rng``
CD202     crypto discipline: no ``==``/``!=`` on secret-named byte values —
          use ``repro.crypto.constant_time_equal``
CD203     crypto discipline: MD5 only on the frame-hash display path
RB301     robustness: no bare/broad ``except`` that swallows silently
RB302     robustness: no mutable default arguments
SF110     secret flow: a secret, by its own name or through any chain of
          aliases, containers, f-strings and calls, reaches ``print``,
          logging, ``warnings.warn``, an exception argument, a
          ``__repr__``/``__str__`` return or a configured sink outside the
          trusted layers, with the full source-to-sink trace
SF111     trust boundary dataflow: a secret crosses from the trusted
          FLock layer into untrusted code without an approved wrapper
SC800-805 constant-time discipline: no secret-dependent branches, loop
          bounds, lookups, variable-time bigint ops, length-sized
          allocations or ``==`` compares on the remote-observable path
          (SC805 retires the old CD210 compare rule)
========  ===================================================================

SF110/SF111 come from the opt-in interprocedural taint pass
(``repro.analysis.taint``): a project-wide symbol table and call graph,
per-function taint summaries iterated to a fixed point, and findings
that carry every hop from source to sink.  Enable it with ``--taint``
(tune it via the ``[tool.trust-lint.taint]`` sub-table): the default
run is lint only, so secret-sink findings need the flag.  ``repro-lint
graph`` dumps the call graph the pass resolves.  SC800–SC805 come from
the side-channel pass (``repro.analysis.sidechannel``, ``--sc``), which
re-reads the same lattice as timing taint and pairs with a dynamic
branch-trace witness (``python -m repro.analysis.sidechannel``).

The package is self-contained (stdlib only; its single domain edge is
the side-channel witness executing ``repro.crypto`` under trace) and
runs as ``python -m repro.analysis <paths>`` or via the ``repro-lint``
console script.  The one way to silence a finding is an inline
``# trust-lint: disable=RULE -- reason`` comment.
"""

from .config import AnalysisConfig
from .core import Finding, ModuleContext, Rule, TraceHop, all_rules, get_rule
from .engine import AnalysisReport, analyze_paths, analyze_sources
from .reporters import render_json, render_sarif, render_text
from .taint import run_taint

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "Rule",
    "TraceHop",
    "all_rules",
    "get_rule",
    "analyze_paths",
    "analyze_sources",
    "render_json",
    "render_sarif",
    "render_text",
    "run_taint",
]
