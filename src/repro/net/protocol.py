"""The TRUST wire protocols: registration (Fig. 9) and continuous
authentication (Fig. 10), run end-to-end over the untrusted channel.

The one client surface is :class:`TrustClient` — a facade owning one
device / channel pair and a (reassignable) server endpoint — whose methods
(``register``, ``login``, ``request``, ``answer_challenge``) play the honest
roles faithfully: every verification the paper requires happens, in order,
inside the component the paper assigns it to (certificate + MAC checks in
FLock, nonce/session/risk checks in the server).  Every method returns
one result type, :class:`ProtocolOutcome`, carrying success/failure, the
failure reason code, and cost accounting (message count, bytes each way,
FLock crypto time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto import Certificate, CertificateError
from repro.fingerprint import MasterFingerprint
from repro.flock import FlockError, StorageError
from repro.obs import Instrumentation, NOOP

from .channel import UntrustedChannel
from .device import MobileDevice
from .message import (
    MSG_CHALLENGE_RESPONSE,
    MSG_LOGIN_SUBMIT,
    MSG_PAGE_REQUEST,
    MSG_REGISTRATION_SUBMIT,
    Envelope,
    ProtocolError,
)
from .webserver import WebServer

__all__ = ["ProtocolOutcome", "TrustSession", "TrustClient"]


@dataclass
class ProtocolOutcome:
    """Result + cost of one protocol run: a Fig. 9 registration, a Fig. 10
    login (``session`` is set on success), request or challenge answer."""

    success: bool
    reason: str  # "ok" or a failure reason code
    messages: int
    bytes_to_server: int
    bytes_to_device: int
    crypto_time_s: float
    frame_hash: bytes | None
    session: "TrustSession | None"

    @property
    def challenged(self) -> bool:
        """Whether the server withheld content pending re-authentication."""
        return self.reason == "challenge-required"


@dataclass
class TrustSession:
    """Device-side state of one logged-in Fig. 10 session."""

    domain: str
    account: str
    session_id: str
    next_nonce: bytes
    #: The server's challenge nonce awaiting an answer, if any.
    challenge_nonce: bytes | None = field(default=None, init=False)


#: Presses of a critical button before the UI gives up on a verified
#: touch: a genuine user may need a couple, an impostor never gets one.
VERIFY_ATTEMPTS = 4


def verified_touch(device: MobileDevice, touch_xy: tuple[float, float],
                   master: MasterFingerprint, rng: np.random.Generator,
                   time_s: float) -> bool:
    """Touch a critical button until one capture verifies (or give up).

    Models the paper's minimum-touch-time / critical-button countermeasure:
    the UI will not proceed until a *verified* fingerprint arrives, so the
    genuine user may press the button up to :data:`VERIFY_ATTEMPTS` times,
    half a second apart.
    """
    for attempt in range(VERIFY_ATTEMPTS):
        _, outcome = device.touch_at(touch_xy[0], touch_xy[1],
                                     time_s + attempt * 0.5, master, rng)
        if outcome.verified:
            return True
    return False


class _CostMeter:
    """Snapshot-based accounting of channel/crypto costs for one run."""

    def __init__(self, device: MobileDevice,
                 channel: UntrustedChannel) -> None:
        self._device = device
        self._channel = channel
        self._messages0 = channel.message_count
        self._to_server0 = channel.bytes_to_server
        self._to_device0 = channel.bytes_to_device
        self._crypto0 = device.flock.crypto.time_spent_s

    def outcome(self, success: bool, reason: str,
                frame_hash: bytes | None = None,
                session: TrustSession | None = None) -> ProtocolOutcome:
        """Snapshot-difference the meters into the run's result."""
        return ProtocolOutcome(
            success=success, reason=reason,
            messages=self._channel.message_count - self._messages0,
            bytes_to_server=self._channel.bytes_to_server - self._to_server0,
            bytes_to_device=self._channel.bytes_to_device - self._to_device0,
            crypto_time_s=self._device.flock.crypto.time_spent_s - self._crypto0,
            frame_hash=frame_hash, session=session,
        )


class TrustClient:
    """One device's client-side view of a TRUST service.

    Owns the (device, channel) pair for its lifetime; ``server`` is a plain
    attribute so a shard router may re-point the client at a different
    :class:`WebServer` replica between interactions (per-account state
    migrates with the account database, not the client).  All server
    traffic goes through :meth:`WebServer.dispatch`, the single inbound
    surface.
    """

    def __init__(self, device: MobileDevice, server: WebServer,
                 channel: UntrustedChannel | None = None,
                 obs: Instrumentation | None = None) -> None:
        self.device = device
        self.server = server
        self.channel = channel if channel is not None else UntrustedChannel()
        self.obs = obs if obs is not None else NOOP

    def _stamp(self, envelope: Envelope) -> Envelope:
        """Tag outgoing traffic with the live trace id (never MACed)."""
        if self.obs.enabled:
            envelope.trace_id = self.obs.tracer.current_trace_id
        return envelope

    def _finish(self, span, op: str, result: ProtocolOutcome):
        """Stamp a client span + op counter with a run's outcome."""
        span.set_attribute("success", result.success)
        span.set_attribute("reason", result.reason)
        self.obs.metrics.counter(
            "client.ops", help="protocol runs by op and reason").inc(
            op=op, reason=result.reason)
        return result

    # ---------------------------------------------- Fig. 9 registration
    def register(self, account: str, touch_xy: tuple[float, float],
                 master: MasterFingerprint, rng: np.random.Generator,
                 now: int = 0, time_s: float = 0.0) -> ProtocolOutcome:
        """Run the Fig. 9 device-to-user-account binding, end to end.

        ``touch_xy`` is where the registration button sits (it must be over
        a fingerprint sensor — the paper's critical-button countermeasure),
        and ``master`` is the finger that physically touches it.
        """
        with self.obs.tracer.span("client.register", account=account) as span:
            result = self._register(account, touch_xy, master, rng, now,
                                    time_s)
            self._finish(span, "register", result)
        return result

    def _register(self, account, touch_xy, master, rng, now,
                  time_s) -> ProtocolOutcome:
        device, server, channel = self.device, self.server, self.channel
        meter = _CostMeter(device, channel)
        flock = device.flock

        # Step 1: server -> device: page + cert + nonce, signed.
        page_envelope = channel.send(server.registration_page(), "to-device")
        if page_envelope is None:
            return meter.outcome(False, "message-dropped")
        try:
            page_envelope.require("domain", "nonce", "page", "server_cert",
                                  "mac")
            server_cert = Certificate.from_bytes(
                page_envelope.fields["server_cert"])
            # Step 2 (FLock): verify cert chain, then the page signature.
            user_public_key = flock.begin_service_binding(
                server.domain, account, server_cert, now)
        except (ProtocolError, CertificateError, FlockError) as exc:
            return meter.outcome(False, f"device-rejected: {exc}")
        if not flock.crypto.verify(server_cert.public_key,
                                   page_envelope.signed_bytes(),
                                   page_envelope.mac):
            flock.abort_service_binding(server.domain)
            return meter.outcome(False, "bad-server-mac")

        # Render the page through the display repeater; touch the register
        # button; the opportunistic capture must verify the user's
        # fingerprint.  A genuine user whose capture fails the
        # quality/match gate simply touches again (the UI keeps the button
        # up), so a few attempts are allowed — an impostor fails all of
        # them.
        frame_hash = device.browser.render(page_envelope, flock)
        if not verified_touch(device, touch_xy, master, rng, time_s):
            flock.abort_service_binding(server.domain)
            return meter.outcome(False, "fingerprint-not-verified")
        flock.complete_service_binding(server.domain)

        # Steps 3-4: device -> server: signed submission.
        submission = Envelope(MSG_REGISTRATION_SUBMIT, {
            "domain": server.domain,
            "account": account,
            "nonce": page_envelope.fields["nonce"],
            "user_public_key": user_public_key.to_bytes(),
            "frame_hash": frame_hash,
            "device_cert": flock.certificate.to_bytes(),
        })
        submission.set_mac(flock.sign_as_device(submission.signed_bytes()))
        delivered = channel.send(
            device.browser.outgoing(self._stamp(submission)), "to-server")
        if delivered is None:
            return meter.outcome(False, "message-dropped")

        # Step 5: server verification + binding.
        try:
            ack = server.dispatch(delivered, now=now)
        except ProtocolError as exc:
            return meter.outcome(False, exc.reason, frame_hash=frame_hash)
        ack_delivered = channel.send(ack, "to-device")
        if ack_delivered is None:
            return meter.outcome(False, "message-dropped",
                                 frame_hash=frame_hash)
        try:
            ack_delivered.require("domain", "account", "page", "mac")
        except ProtocolError:
            return meter.outcome(False, "malformed-reply",
                                 frame_hash=frame_hash)
        return meter.outcome(True, "ok", frame_hash=frame_hash)

    # -------------------------------------------------- Fig. 10 login
    def login(self, account: str, touch_xy: tuple[float, float],
              master: MasterFingerprint, rng: np.random.Generator,
              risk: float = 0.0, now: int = 0,
              time_s: float = 0.0) -> ProtocolOutcome:
        """Run the Fig. 10 login (steps 1-3); ``session`` set on success."""
        with self.obs.tracer.span("client.login", account=account) as span:
            result = self._login(account, touch_xy, master, rng, risk, now,
                                 time_s)
            self._finish(span, "login", result)
        return result

    def _login(self, account, touch_xy, master, rng, risk, now,
               time_s) -> ProtocolOutcome:
        device, server, channel = self.device, self.server, self.channel
        meter = _CostMeter(device, channel)
        flock = device.flock
        domain = server.domain

        page_envelope = channel.send(server.login_page(), "to-device")
        if page_envelope is None:
            return meter.outcome(False, "message-dropped")
        try:
            page_envelope.require("domain", "nonce", "page", "mac")
            if not flock.verify_server_signature(domain,
                                                 page_envelope.signed_bytes(),
                                                 page_envelope.mac):
                return meter.outcome(False, "bad-server-mac")
        except (ProtocolError, FlockError, StorageError) as exc:
            # StorageError: the device holds no record for this domain any
            # more (e.g. it was the source of an identity transfer).
            return meter.outcome(False, f"device-rejected: {exc}")

        frame_hash = device.browser.render(page_envelope, flock)
        if not verified_touch(device, touch_xy, master, rng, time_s):
            return meter.outcome(False, "fingerprint-not-verified")

        sealed_key = flock.open_session(domain)
        submission = Envelope(MSG_LOGIN_SUBMIT, {
            "domain": domain,
            "account": account,
            "nonce": page_envelope.fields["nonce"],
            "sealed_session_key": sealed_key,
            "frame_hash": frame_hash,
            "risk": float(risk),
        })
        # The bound per-service key signs the core submission; the session
        # MAC then covers core + signature.  Without this signature anyone
        # who can seal a key of their own choosing for the server opens an
        # authenticated session for the account (see PV402 / TRUST-verify).
        submission.fields["signature"] = flock.sign_for_service(
            domain, submission.signed_bytes())
        submission.set_mac(flock.session_mac(domain,
                                             submission.signed_bytes()))
        delivered = channel.send(
            device.browser.outgoing(self._stamp(submission)), "to-server")
        if delivered is None:
            flock.close_session(domain)
            return meter.outcome(False, "message-dropped")
        try:
            content = server.dispatch(delivered, now=now)
        except ProtocolError as exc:
            flock.close_session(domain)
            return meter.outcome(False, exc.reason, frame_hash=frame_hash)

        content_delivered = channel.send(content, "to-device")
        if content_delivered is None:
            flock.close_session(domain)
            return meter.outcome(False, "message-dropped",
                                 frame_hash=frame_hash)
        if not flock.verify_session_mac(domain,
                                        content_delivered.signed_bytes(),
                                        content_delivered.mac):
            flock.close_session(domain)
            return meter.outcome(False, "bad-content-mac",
                                 frame_hash=frame_hash)
        # Fail closed on a structurally short reply: every field the
        # session state is about to be built from must be present.
        try:
            content_delivered.require("domain", "account", "session",
                                      "nonce", "page", "mac")
        except ProtocolError:
            flock.close_session(domain)
            return meter.outcome(False, "malformed-reply",
                                 frame_hash=frame_hash)
        device.browser.render(content_delivered, flock)

        session = TrustSession(
            domain=domain, account=account,
            session_id=content_delivered.fields["session"],
            next_nonce=content_delivered.fields["nonce"],
        )
        return meter.outcome(True, "ok", frame_hash=frame_hash,
                             session=session)

    # ------------------------------------- Fig. 10 continuous requests
    def request(self, session: TrustSession, risk: float,
                rng: np.random.Generator,
                touch_xy: tuple[float, float] | None = None,
                master: MasterFingerprint | None = None,
                now: int = 0, time_s: float = 0.0) -> ProtocolOutcome:
        """One post-login interaction (Fig. 10 step 4).

        When ``touch_xy``/``master`` are given, the request is triggered by
        a physical touch whose fingerprint is captured opportunistically
        (its outcome is the caller's input to ``risk``); passing None
        models a request issued without any touch — which is exactly what
        injected fake user actions look like, and what the risk report
        exposes.
        """
        with self.obs.tracer.span("client.request", risk=float(risk)) as span:
            result = self._request(session, risk, rng, touch_xy, master, now,
                                   time_s)
            self._finish(span, "request", result)
        return result

    def _request(self, session, risk, rng, touch_xy, master, now,
                 time_s) -> ProtocolOutcome:
        device, server, channel = self.device, self.server, self.channel
        meter = _CostMeter(device, channel)
        flock = device.flock

        frame_hash = flock.current_frame_hash
        if touch_xy is not None:
            if master is None:
                raise ValueError("a physical touch needs the touching finger")
            device.touch_at(touch_xy[0], touch_xy[1], time_s, master, rng)

        request = Envelope(MSG_PAGE_REQUEST, {
            "account": session.account,
            "session": session.session_id,
            "nonce": session.next_nonce,
            "frame_hash": frame_hash,
            "risk": float(risk),
        })
        try:
            request.set_mac(flock.session_mac(session.domain,
                                              request.signed_bytes()))
        except FlockError as exc:
            return meter.outcome(False, f"device-rejected: {exc}")
        delivered = channel.send(
            device.browser.outgoing(self._stamp(request)), "to-server")
        if delivered is None:
            return meter.outcome(False, "message-dropped")
        try:
            page = server.dispatch(delivered, now=now)
        except ProtocolError as exc:
            if exc.reason == "risk-too-high":
                flock.close_session(session.domain)
            return meter.outcome(False, exc.reason)

        page_delivered = channel.send(page, "to-device")
        if page_delivered is None:
            return meter.outcome(False, "message-dropped")
        if not flock.verify_session_mac(session.domain,
                                        page_delivered.signed_bytes(),
                                        page_delivered.mac):
            return meter.outcome(False, "bad-content-mac")
        try:
            page_delivered.require("domain", "account", "session",
                                   "nonce", "mac")
            if page_delivered.msg_type == "challenge":
                page_delivered.require("challenge_nonce")
            else:
                page_delivered.require("page")
        except ProtocolError:
            return meter.outcome(False, "malformed-reply")
        if page_delivered.msg_type == "challenge":
            # The server withheld content pending a fresh verified touch.
            session.next_nonce = page_delivered.fields["nonce"]
            session.challenge_nonce = page_delivered.fields["challenge_nonce"]
            flock.begin_challenge(session.domain, session.challenge_nonce)
            return meter.outcome(False, "challenge-required", session=session)
        device.browser.render(page_delivered, flock)
        session.next_nonce = page_delivered.fields["nonce"]
        return meter.outcome(True, "ok", frame_hash=frame_hash,
                             session=session)

    # ----------------------------------------- challenge re-attestation
    def answer_challenge(self, session: TrustSession,
                         touch_xy: tuple[float, float],
                         master: MasterFingerprint,
                         rng: np.random.Generator, now: int = 0,
                         time_s: float = 0.0) -> ProtocolOutcome:
        """Answer a pending re-authentication challenge with a verified
        touch.

        The user touches a critical button; only when a capture *verifies*
        will FLock mint the attestation.  An impostor exhausts the attempts
        and the session stays frozen (the server keeps withholding
        content).
        """
        with self.obs.tracer.span("client.challenge") as span:
            result = self._answer_challenge(session, touch_xy, master, rng,
                                            now, time_s)
            self._finish(span, "challenge", result)
        return result

    def _answer_challenge(self, session, touch_xy, master, rng, now,
                          time_s) -> ProtocolOutcome:
        device, server, channel = self.device, self.server, self.channel
        meter = _CostMeter(device, channel)
        flock = device.flock
        if session.challenge_nonce is None:
            return meter.outcome(False, "no-challenge-pending")

        if not verified_touch(device, touch_xy, master, rng, time_s):
            return meter.outcome(False, "fingerprint-not-verified")
        try:
            attestation = flock.attest_challenge(session.domain)
        except FlockError as exc:
            return meter.outcome(False, f"device-rejected: {exc}")

        response = Envelope(MSG_CHALLENGE_RESPONSE, {
            "account": session.account,
            "session": session.session_id,
            "nonce": session.next_nonce,
            "attestation": attestation,
        })
        response.set_mac(flock.session_mac(session.domain,
                                           response.signed_bytes()))
        delivered = channel.send(
            device.browser.outgoing(self._stamp(response)), "to-server")
        if delivered is None:
            return meter.outcome(False, "message-dropped")
        try:
            page = server.dispatch(delivered, now=now)
        except ProtocolError as exc:
            return meter.outcome(False, exc.reason)
        page_delivered = channel.send(page, "to-device")
        if page_delivered is None:
            return meter.outcome(False, "message-dropped")
        if not flock.verify_session_mac(session.domain,
                                        page_delivered.signed_bytes(),
                                        page_delivered.mac):
            return meter.outcome(False, "bad-content-mac")
        try:
            page_delivered.require("domain", "account", "session",
                                   "nonce", "page", "mac")
        except ProtocolError:
            return meter.outcome(False, "malformed-reply")
        device.browser.render(page_delivered, flock)
        session.next_nonce = page_delivered.fields["nonce"]
        session.challenge_nonce = None
        return meter.outcome(True, "ok", session=session)

