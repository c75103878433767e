"""CT7xx — wire-contract extraction & API-conformance rules.

Like the taint and determinism rules, these are
:class:`~repro.analysis.core.ProjectRule` registrations: the ids live in
the registry for ``--list-rules``, config enable/disable and
suppressions, but the findings come out of the project-wide contract
pass in :mod:`repro.analysis.contract` (``repro-lint --contract``).

Rule → protocol-promotion invariant mapping:

CT700–CT704 (static conformance)
    The continuous-authentication protocol only works if client and
    server agree *exactly* on the wire: which message types exist, which
    fields each carries, which versions are accepted, and which reason
    codes a rejection can carry.  Each CT rule flags one way the two
    sides drift apart without any test noticing: an endpoint neither
    side can reach, a field one side encodes and the other never
    decodes, a rejection reason nothing observes, a version gate that
    disagrees with the codec, and a decode path that fails open.

CT705 (contract drift guard)
    The extracted contract is committed as a canonical
    ``contract.json`` artifact; CT705 diffs the live tree against it so
    a breaking protocol change cannot merge without explicitly updating
    the artifact — the hook the v1→v2 promotion lifecycle consumes.
"""

from __future__ import annotations

from ..core import ProjectRule, register

__all__ = [
    "UnreachableEndpoint", "SchemaFieldDrift", "UnobservedReasonCode",
    "VersionGateMismatch", "FailOpenDecode", "ContractGoldenDrift",
]


@register
class UnreachableEndpoint(ProjectRule):
    id = "CT700"
    name = "unreachable-endpoint"
    summary = ("an endpoint is registered but no TrustClient call shape "
               "ever sends its message type — or the client sends a "
               "message type no endpoint is registered for")


@register
class SchemaFieldDrift(ProjectRule):
    id = "CT701"
    name = "schema-field-drift"
    summary = ("a wire field is encoded by one side but never decoded by "
               "the other (or decoded but never produced) — the message "
               "schemas of client and server have drifted apart")


@register
class UnobservedReasonCode(ProjectRule):
    id = "CT702"
    name = "unobserved-reason-code"
    summary = ("a rejection reason code is emitted server-side but never "
               "handled client-side nor asserted by any test — the "
               "vocabulary can silently change without anything noticing")


@register
class VersionGateMismatch(ProjectRule):
    id = "CT703"
    name = "version-gate-mismatch"
    summary = ("the dispatch registry's envelope-version gate disagrees "
               "with the codec's supported-version set (or a gate is "
               "missing) — the two halves accept different protocols")


@register
class FailOpenDecode(ProjectRule):
    id = "CT704"
    name = "fail-open-decode"
    summary = ("a decode path does not fail closed: an exception handler "
               "swallows malformed input, or a wire field is read "
               "without a require() presence check / with a default")


@register
class ContractGoldenDrift(ProjectRule):
    id = "CT705"
    name = "contract-golden-drift"
    summary = ("the wire contract extracted from the tree differs from "
               "the committed golden contract.json — a protocol change "
               "must regenerate the artifact to merge (breaking changes "
               "are errors, additive ones warnings)")
