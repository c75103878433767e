"""TRUST-taint: project-wide secret-flow dataflow analysis.

This package checks what the paper cares about most: key material,
fingerprint templates and minutiae must never leave the FLock trust
boundary, whether a secret reaches an observable sink by its own name
or through any number of assignments, tuple unpackings, container hops
or function calls between the source and the sink.  It is the one
owner of that property: the per-module rules in
:mod:`repro.analysis.rules` do not check secret sinks.

Pipeline (all stdlib, all AST-level):

1. :mod:`.symbols` builds a project-wide symbol table and call graph:
   every function/method with its parameters, every class with its
   attribute types, and per-module import alias maps so call sites
   resolve across modules.
2. :mod:`.analysis` computes per-function taint summaries (which
   parameters flow to returns, sinks, or ``self`` attributes; whether
   the return value carries secret taint) and iterates them to a fixed
   point over the call graph.
3. A final reporting pass walks every function with the stable
   summaries and emits findings for SF110 / SF111, each with a full
   source-to-sink trace (:class:`repro.analysis.core.TraceHop`); the
   side-channel pass subclasses the same walker to report SC800–SC805.
"""

from __future__ import annotations

from .analysis import TaintAnalysis, run_taint
from .model import FunctionSummary, SinkRecord, Token
from .symbols import FunctionInfo, ProjectIndex, build_index

__all__ = [
    "TaintAnalysis", "run_taint", "FunctionSummary", "SinkRecord", "Token",
    "FunctionInfo", "ProjectIndex", "build_index",
]
