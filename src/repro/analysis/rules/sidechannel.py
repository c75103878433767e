"""SC8xx — interprocedural constant-time / side-channel discipline rules.

These are :class:`~repro.analysis.core.ProjectRule` subclasses like the
taint and determinism rules: registering them here gives them ids,
``--list-rules`` entries, config enable/disable and suppression
support — but their findings are computed by the project-wide
side-channel pass in :mod:`repro.analysis.sidechannel`, which the
engine runs when asked (``repro-lint --sc``).

Rule → remote-timing invariant mapping:

The paper's secrets (device keys, session MACs, fingerprint templates)
are exercised continuously over a remote channel, which is exactly
where secret-dependent timing is observable.  The PV4xx model checker
assumes perfect crypto, so this stage is the one that polices the gap:
it re-reads the taint pass's secrecy lattice as *timing taint* and
flags every place where a secret-derived value steers control flow,
memory addressing or a variable-time bigint primitive inside the four
secret-bearing packages (``crypto``, ``flock``, ``fingerprint``,
``net``).

Declassification is explicit, so clean code is provably clean rather
than suppressed: the single ``constant_time_equal`` helper, one-way
MAC/hash/sign producers (post-MAC outputs are public by protocol), and
the audited ``modpow`` boundary in ``repro.crypto.rsa`` (CPython bigint
internals are variable-time below the reach of any Python-level
analysis; the branch-trace witness pins the Python-level trace instead).

SC805 subsumes and retires the purely local CD210: the same
MAC/digest-producer lattice now flows interprocedurally and reports
with full source-to-sink traces.  ``CD210`` is no rule id any more, so
``--disable`` and ``[tool.trust-lint] disable`` reject it.
"""

from __future__ import annotations

from ..core import ProjectRule, register

__all__ = [
    "SecretDependentBranch", "SecretDependentLoopExit",
    "SecretIndexedAccess", "VariableTimeBigint", "SecretLengthFlow",
    "NonConstantTimeEquality",
]


@register
class SecretDependentBranch(ProjectRule):
    id = "SC800"
    name = "secret-dependent-branch"
    summary = ("control flow (if/while/ternary/assert) forks on a value "
               "derived from secret material (interprocedural, with trace) "
               "— the two paths do different work, so the branch condition "
               "is observable through timing")


@register
class SecretDependentLoopExit(ProjectRule):
    id = "SC801"
    name = "secret-dependent-loop-exit"
    summary = ("a loop bound or early exit (break/return inside a loop, "
               "while-test) depends on secret material — iteration count "
               "leaks the secret through timing; process fixed-size work "
               "and select the result arithmetically")


@register
class SecretIndexedAccess(ProjectRule):
    id = "SC802"
    name = "secret-indexed-access"
    summary = ("a subscript index or membership lookup is derived from "
               "secret material — the memory address probed depends on the "
               "secret, so cache timing reveals it (classic S-box leak)")


@register
class VariableTimeBigint(ProjectRule):
    id = "SC803"
    name = "variable-time-bigint"
    summary = ("a variable-time bigint operation (pow/divmod/floor-div/mod) "
               "on secret operands outside the audited modpow boundary — "
               "CPython integer arithmetic is value-dependent, so operand "
               "magnitude leaks through timing")


@register
class SecretLengthFlow(ProjectRule):
    id = "SC804"
    name = "secret-length-flow"
    summary = ("the length of secret material flows into an iteration "
               "bound or allocation size (range/bytes/bytearray/list) — "
               "trip count and allocation timing reveal the length; pad "
               "to a fixed size first")


@register
class NonConstantTimeEquality(ProjectRule):
    id = "SC805"
    name = "non-constant-time-equality"
    summary = ("==/!= on bytes derived from key material or a MAC/digest "
               "producer (interprocedural, with trace) — bytes.__eq__ "
               "exits at the first mismatch, leaking the comparison prefix; "
               "route it through crypto.constant_time_equal (subsumes the "
               "retired local CD210)")
