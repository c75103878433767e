"""SF110/SF111 — project-wide secret-flow dataflow rules.

These rules are :class:`~repro.analysis.core.ProjectRule` subclasses:
registering them here gives them ids, ``--list-rules`` entries, config
enable/disable and suppression support — but their findings
are computed by the interprocedural pass in :mod:`repro.analysis.taint`,
not by a per-module ``check``.  The engine runs that pass when taint
analysis is requested (``repro-lint --taint``).

Rule → paper-invariant mapping:

SF110
    Key material, templates and minutiae must never become *observable*
    outside the trusted layers.  SF110 fires where a secret reaches an
    observable sink — ``print``, a logging call, ``warnings.warn``, an
    exception argument, a ``__repr__``/``__str__``/``__format__`` return
    value, or a ``[tool.trust-lint.taint] extend-sinks`` call — whether
    by its own name (``print(session_key)``) or after any number of
    assignments, tuple unpackings, container hops, f-strings or calls
    (``x = session_key; print(x)`` and far longer chains), in any scope:
    nested defs, lambdas and class bodies included.
SF111
    The FLock module is the paper's trust boundary: raw secrets it holds
    (device template, session keys, private keys) may only leave it as
    HMAC tags, hashes, ciphertext or signatures.  SF111 fires where an
    untrusted frame receives a raw secret straight from a boundary call.

CD210 (retired)
    The derived non-constant-time-compare rule this module used to
    register is subsumed by SC805 in the side-channel stage
    (:mod:`repro.analysis.rules.sidechannel`), which follows the same
    MAC/digest lattice interprocedurally across all six SC sinks.
SF101 (retired)
    Folded into SF110: a secret passed by its own name reports there.
"""

from __future__ import annotations

from ..core import ProjectRule, register

__all__ = ["SecretSink", "BoundarySecretExport"]


@register
class SecretSink(ProjectRule):
    id = "SF110"
    name = "secret-sink"
    summary = ("a secret, by name or through any aliasing/dataflow, "
               "reaches an observable sink (print/logging/warnings/"
               "exception/__repr__ or a configured sink) outside the "
               "trusted layers")


@register
class BoundarySecretExport(ProjectRule):
    id = "SF111"
    name = "boundary-secret-export"
    summary = ("a raw secret crosses from the trusted FLock boundary into "
               "an untrusted layer without an approved wrapper "
               "(HMAC/hash/ciphertext/signature)")
