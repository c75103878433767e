"""PV4xx — protocol model-checking rules (``repro-lint verify``).

These are :class:`~repro.analysis.core.ProjectRule` subclasses like the
taint family: registering them here gives them ids, ``--list-rules``
entries and config enable/disable, while
their findings come out of the explicit-state model checker in
:mod:`repro.analysis.verify` rather than a per-module ``check``.

Rule → paper-claim mapping:

PV400
    Not an invariant: the bounded exploration ran out of state budget,
    so coverage is partial.  Severity ``note``.
PV401
    Secrecy (§4, §6): no private key, session key, biometric template
    or reset password may ever enter the Dolev-Yao adversary's
    knowledge closure.
PV402
    Per-touch authentication (§3, Fig. 10): every authenticated session
    the server holds traces back to a fresh verified touch on a genuine
    FLock — no session from forged/attacker-minted key material, no
    challenge cleared without a genuine attestation.
PV403
    Freshness: a handler accepted a message that its nonce/signature/
    attestation check should have rejected — replayed or forged traffic
    was treated as genuine.
PV404
    Identity uniqueness (§5 reset/transfer): reset and transfer never
    leave two devices simultaneously able to authenticate for one
    account, and never an adversary-controlled binding.
PV405
    Safe error states: every failure path restores a safe state — no
    live sessions surviving an identity reset, no FLock session key
    left open after a failed login.
"""

from __future__ import annotations

from ..core import ProjectRule, register

__all__ = ["StateSpaceBudgetExceeded", "SecretReachesAdversary",
           "SessionWithoutVerifiedTouch", "ReplayOrForgeryAccepted",
           "DualDeviceBinding", "UnsafeErrorState"]


@register
class StateSpaceBudgetExceeded(ProjectRule):
    id = "PV400"
    name = "state-space-budget-exceeded"
    summary = ("the bounded exploration hit its state budget before "
               "exhausting the space — verification coverage is partial")
    severity = "note"


@register
class SecretReachesAdversary(ProjectRule):
    id = "PV401"
    name = "secret-reaches-adversary"
    summary = ("a secret term (private key, session key, biometric "
               "template, reset password) enters the Dolev-Yao "
               "adversary's knowledge closure")


@register
class SessionWithoutVerifiedTouch(ProjectRule):
    id = "PV402"
    name = "session-without-verified-touch"
    summary = ("the server holds an authenticated session that does not "
               "trace back to a fresh verified touch on a genuine FLock")


@register
class ReplayOrForgeryAccepted(ProjectRule):
    id = "PV403"
    name = "replay-or-forgery-accepted"
    summary = ("a protocol handler accepted a replayed or forged message "
               "that its freshness/signature/attestation check should "
               "have rejected")


@register
class DualDeviceBinding(ProjectRule):
    id = "PV404"
    name = "dual-device-binding"
    summary = ("reset/transfer left two devices able to authenticate for "
               "one account, or bound the account to an "
               "adversary-controlled key")


@register
class UnsafeErrorState(ProjectRule):
    id = "PV405"
    name = "unsafe-error-state"
    summary = ("an error or reset path left an unsafe state behind "
               "(live sessions after identity reset, open FLock session "
               "key after a failed login)")
