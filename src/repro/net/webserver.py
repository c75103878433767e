"""The remote web server of the TRUST deployment (Figs. 8-10).

The server owns a CA-signed key pair, an account database mapping accounts
to device public keys (established by the Fig. 9 binding), per-login
sessions keyed by a session id, one-time nonces, and one audit log: frame
hashes (what each user actually saw when they acted).  Every verification
failure raises :class:`ProtocolError` with a stable reason code and
increments a rejection counter — the attack benchmarks assert on those
codes.

Inbound traffic enters through **one** uniform entry point,
:meth:`WebServer.dispatch`, which routes on the envelope's ``MSG_*`` type
over the typed :data:`WebServer.ENDPOINTS` registry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.crypto import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    DecryptionError,
    HmacDrbg,
    RsaPublicKey,
    constant_time_equal,
    generate_keypair,
    hmac_sha256,
    sha256,
)
from repro.obs import CounterMetric, Instrumentation, NOOP
from .message import (
    MSG_CHALLENGE,
    MSG_CHALLENGE_RESPONSE,
    MSG_CONTENT_PAGE,
    MSG_LOGIN_PAGE,
    MSG_LOGIN_SUBMIT,
    MSG_PAGE_REQUEST,
    MSG_REGISTRATION_PAGE,
    MSG_REGISTRATION_SUBMIT,
    SUPPORTED_PROTOCOL_VERSIONS,
    Envelope,
    ProtocolError,
)

__all__ = ["Endpoint", "SessionState", "WebServer"]


@dataclass(frozen=True)
class Endpoint:
    """One entry in the server's typed dispatch registry."""

    msg_type: str
    handler: "Callable[[WebServer, Envelope, int], Envelope]"
    summary: str


def _endpoint(registry: dict, msg_type: str, summary: str):
    """Class-body decorator registering a method as a dispatch endpoint."""
    def wrap(method):
        registry[msg_type] = Endpoint(msg_type, method, summary)
        return method
    return wrap

#: Domain-separation prefix for FLock challenge attestations; must match
#: :attr:`repro.flock.FlockModule.ATTEST_PREFIX` (the module produces the
#: attestation, the server recomputes it).
ATTEST_PREFIX = b"flock-attest:"


@dataclass
class SessionState:
    """One logged-in session (Fig. 10 post-login state)."""

    session_id: str
    account: str
    session_key: bytes
    expected_nonce: bytes
    request_count: int = field(default=0, init=False)
    #: The challenge nonce awaiting an answer, if any.
    pending_challenge: bytes | None = field(default=None, init=False)
    challenges_issued: int = field(default=0, init=False)
    challenges_passed: int = field(default=0, init=False)


@dataclass(frozen=True)
class _AccountRecord:
    """Server-side state of one account."""
    public_key: RsaPublicKey | None
    password_hash: bytes  # legacy fallback used only for identity reset


class WebServer:
    """One remote service (bank, e-mail, ...) speaking the TRUST protocol."""

    #: Sessions whose reported risk exceeds this are terminated server-side.
    #: Matches the device's k-of-n breach point for k=2, n=8: a window with
    #: fewer than 2 verified touches reports risk > (8-2)/8 = 0.75.
    RISK_TERMINATION_THRESHOLD = 0.75

    #: Above this (but at or below termination), the server withholds
    #: content and demands a FLock-attested fresh verified touch — the
    #: remote analogue of the paper's CHALLENGE response.
    RISK_CHALLENGE_THRESHOLD = 0.5

    #: Typed dispatch registry: ``MSG_*`` type -> :class:`Endpoint`.
    #: Populated by the ``@_endpoint`` decorators on the ``_serve_*``
    #: methods below; shared by all instances (handlers are unbound).
    ENDPOINTS: dict[str, Endpoint] = {}

    def __init__(self, domain: str, ca: CertificateAuthority, seed: bytes,
                 key_bits: int = 1024, verification_cache=None,
                 obs: Instrumentation | None = None,
                 replica_of: "WebServer | None" = None) -> None:
        """A server whose key pair is generated from ``seed``.

        ``replica_of`` is a server of the same domain, built from the same
        seed and key size.  This server then takes its key pair, the one
        its own generation would give, instead of generating it again.
        Each server gets a certificate of its own, and a replica draws its
        nonces from a DRBG of its own: ``seed`` personalized with the domain
        and that certificate's serial.  Replicas that shared the first
        server's stream would mint its nonces, so a login recorded on one
        shard would verify on another once its account moved there.
        """
        self.domain = domain
        self.ca = ca
        if replica_of is None:
            self._rng = HmacDrbg(seed, personalization=domain.encode())
            self._key = generate_keypair(self._rng, bits=key_bits)
        else:
            self._key = replica_of._key
        self.certificate: Certificate = ca.issue(
            domain, "web-server", self._key.public_key)
        if replica_of is not None:
            self._rng = HmacDrbg(seed, personalization=b"%s#%d" % (
                domain.encode(), self.certificate.serial))
        self._accounts: dict[str, _AccountRecord] = {}
        self._sessions: dict[str, SessionState] = {}
        self._outstanding_nonces: dict[bytes, str] = {}  # nonce -> purpose
        self.frame_audit_log: list[tuple[str, bytes]] = []
        #: Per-replica rejection counts by reason code; pools sum them.
        self.rejections: Counter = Counter()
        #: Dispatched envelopes by endpoint: the server's own live
        #: instrument, so per-shard accounting works with tracing off.
        self.dispatch_calls = CounterMetric(
            "server.dispatch_calls", help="dispatched envelopes by endpoint")
        #: Injected bundle supplies the tracer.
        self.obs = obs if obs is not None else NOOP
        # Duck-typed memoizer (``memoize(kind, key, compute)``); only the
        # clock-independent signature predicate ever goes through it.
        self.verification_cache = verification_cache
        self.pages: dict[str, bytes] = {
            "registration": b"<html>register at " + domain.encode() + b"</html>",
            "login": b"<html>login to " + domain.encode() + b"</html>",
            "content": b"<html>account home of " + domain.encode() + b"</html>",
        }

    # ------------------------------------------------------------ accounts
    def create_account(self, account: str, password: str) -> None:
        """Pre-TRUST account creation (password is the reset fallback)."""
        if account in self._accounts:
            raise ValueError(f"account {account!r} exists")
        self._accounts[account] = _AccountRecord(
            public_key=None, password_hash=sha256(password.encode()))

    def account_key(self, account: str) -> RsaPublicKey | None:
        """The device public key bound to an account, or None."""
        record = self._accounts.get(account)
        return record.public_key if record is not None else None

    def reset_identity(self, account: str, password: str) -> None:
        """Identity reset (section IV-B): drop the key binding by password."""
        record = self._accounts.get(account)
        if record is None:
            raise ProtocolError("unknown-account", account)
        if not constant_time_equal(record.password_hash,
                                   sha256(password.encode())):
            self.rejections["bad-password"] += 1
            raise ProtocolError("bad-password", account)
        self._accounts[account] = _AccountRecord(
            public_key=None, password_hash=record.password_hash)
        # Terminate the account's live sessions: they were opened under
        # the binding the reset just revoked, and letting them run on
        # leaves an authenticated session with no key behind it (PV405).
        for session_id in [sid for sid, session in self._sessions.items()
                           if session.account == account]:
            session = self._sessions.pop(session_id)
            self._outstanding_nonces.pop(session.expected_nonce, None)

    # ---------------------------------------------------- account migration
    # Per-account sharding support (repro.runtime): a pool of replicas can
    # move an account's server-side state between shards.  The record is an
    # opaque token — callers transport it, they never look inside.

    def accounts(self) -> list[str]:
        """All account names provisioned on this replica, sorted."""
        return sorted(self._accounts)

    def export_account(self, account: str) -> "_AccountRecord":
        """Remove and return an account's record for migration.

        The account's live sessions are terminated: they were opened
        against this replica's nonce state, which does not migrate.
        """
        record = self._accounts.pop(account, None)
        if record is None:
            raise ProtocolError("unknown-account", account)
        for session_id in [sid for sid, session in self._sessions.items()
                           if session.account == account]:
            session = self._sessions.pop(session_id)
            self._outstanding_nonces.pop(session.expected_nonce, None)
        return record

    def import_account(self, account: str, record: "_AccountRecord") -> None:
        """Adopt an account record exported from another replica."""
        if account in self._accounts:
            raise ValueError(f"account {account!r} exists")
        self._accounts[account] = record

    # -------------------------------------------------------------- nonces
    def _fresh_nonce(self, purpose: str) -> bytes:
        nonce = self._rng.generate(16)
        self._outstanding_nonces[nonce] = purpose
        return nonce

    def _consume_nonce(self, nonce: bytes, purpose: str) -> None:
        actual = self._outstanding_nonces.get(nonce)
        if actual != purpose:
            self.rejections["bad-nonce"] += 1
            raise ProtocolError("bad-nonce",
                                f"nonce not outstanding for {purpose}")
        del self._outstanding_nonces[nonce]

    def _reject(self, reason: str, detail: str = "") -> ProtocolError:
        self.rejections[reason] += 1
        return ProtocolError(reason, detail)

    # ------------------------------------------------------------ dispatch
    def dispatch(self, envelope: Envelope, now: int = 0) -> Envelope:
        """The uniform inbound entry point: route by message type.

        Checks the envelope's wire-schema version, looks the type up in
        :data:`ENDPOINTS` and invokes the endpoint handler with the
        caller's clock.  Rejections use the same stable reason codes as
        everything else: ``unsupported-version`` for a version outside
        :data:`~repro.net.message.SUPPORTED_PROTOCOL_VERSIONS` and
        ``unknown-endpoint`` for an unregistered message type.
        """
        if envelope.version not in SUPPORTED_PROTOCOL_VERSIONS:
            raise self._reject("unsupported-version",
                               f"envelope version {envelope.version} not in "
                               f"{sorted(SUPPORTED_PROTOCOL_VERSIONS)}")
        endpoint = self.ENDPOINTS.get(envelope.msg_type)
        if endpoint is None:
            raise self._reject("unknown-endpoint", envelope.msg_type)
        self.dispatch_calls.inc(endpoint=envelope.msg_type)
        with self.obs.tracer.span("server.dispatch", domain=self.domain,
                                  endpoint=envelope.msg_type) as span:
            if envelope.trace_id is not None:
                # The client's trace id rides outside the MAC; recording it
                # on the span correlates this dispatch with the gesture.
                span.set_attribute("client_trace", envelope.trace_id)
            try:
                reply = endpoint.handler(self, envelope, now)
            except ProtocolError as exc:
                span.set_attribute("decision", exc.reason)
                raise
            span.set_attribute("decision", "ok")
            return reply

    def _cert_signature_valid(self, cert: Certificate) -> bool:
        """CA-signature predicate, memoized when a cache is installed.

        Only the pure signature check is cached (keyed on the full cert
        fingerprint); validity-window and role constraints are
        clock-dependent and recomputed by the caller every time.
        """
        if self.verification_cache is None:
            return cert.signature_valid(self.ca.public_key)
        return self.verification_cache.memoize(
            "cert-signature", cert.fingerprint(),
            lambda: cert.signature_valid(self.ca.public_key))

    # -------------------------------------------------- Fig. 9 registration
    def registration_page(self) -> Envelope:
        """Step 1: page + cert + fresh nonce, signed by the server key."""
        envelope = Envelope(MSG_REGISTRATION_PAGE, {
            "domain": self.domain,
            "nonce": self._fresh_nonce("registration"),
            "page": self.pages["registration"],
            "server_cert": self.certificate.to_bytes(),
        })
        return envelope.set_mac(self._key.sign(envelope.signed_bytes()))

    @_endpoint(ENDPOINTS, MSG_REGISTRATION_SUBMIT,
               "Fig. 9 step 5: bind an account to a device public key")
    def _serve_registration(self, envelope: Envelope, now: int) -> Envelope:
        """Step 5: verify the submission, bind account -> public key."""
        envelope.require("domain", "account", "nonce", "user_public_key",
                         "frame_hash", "device_cert", "mac")
        if envelope.fields["domain"] != self.domain:
            raise self._reject("wrong-domain", envelope.fields["domain"])
        account = envelope.fields["account"]
        record = self._accounts.get(account)
        if record is None:
            raise self._reject("unknown-account", account)
        if record.public_key is not None:
            raise self._reject("already-bound", account)
        self._consume_nonce(envelope.fields["nonce"], "registration")

        try:
            device_cert = Certificate.from_bytes(envelope.fields["device_cert"])
            if not self._cert_signature_valid(device_cert):
                raise CertificateError(
                    f"bad CA signature on certificate for "
                    f"{device_cert.subject!r}")
            device_cert.check_constraints(now, expected_role="flock-device")
        except CertificateError as exc:
            raise self._reject("bad-device-cert", str(exc)) from exc
        if not device_cert.public_key.verify(envelope.signed_bytes(),
                                             envelope.mac):
            raise self._reject("bad-mac", "registration signature invalid")

        try:
            # from_bytes validates type and framing, raising ValueError on
            # any malformation — no broader net is needed here.
            user_key = RsaPublicKey.from_bytes(
                envelope.fields["user_public_key"])
        except ValueError as exc:
            raise self._reject("malformed-message",
                               f"unparseable public key: {exc}") from exc
        self._accounts[account] = _AccountRecord(
            public_key=user_key, password_hash=record.password_hash)
        self.frame_audit_log.append((account, envelope.fields["frame_hash"]))

        # The ack needs no nonce: registration is complete and the next
        # interaction (login) gets its own fresh nonce.  Issuing one here
        # would leak an outstanding nonce per binding, forever.
        ack = Envelope(MSG_CONTENT_PAGE, {
            "domain": self.domain,
            "account": account,
            "page": b"<html>registration complete</html>",
        })
        return ack.set_mac(self._key.sign(ack.signed_bytes()))

    # ------------------------------------------------------ Fig. 10 login
    def login_page(self) -> Envelope:
        """Step 1: login page + fresh nonce N_WS1, signed by the server."""
        envelope = Envelope(MSG_LOGIN_PAGE, {
            "domain": self.domain,
            "nonce": self._fresh_nonce("login"),
            "page": self.pages["login"],
        })
        return envelope.set_mac(self._key.sign(envelope.signed_bytes()))

    @_endpoint(ENDPOINTS, MSG_LOGIN_SUBMIT,
               "Fig. 10 step 3: open a session from a login submission")
    def _serve_login(self, envelope: Envelope, now: int) -> Envelope:
        """Step 3: recover the session key, verify, open a session."""
        envelope.require("domain", "account", "nonce", "sealed_session_key",
                         "frame_hash", "risk", "signature", "mac")
        if envelope.fields["domain"] != self.domain:
            raise self._reject("wrong-domain", envelope.fields["domain"])
        account = envelope.fields["account"]
        record = self._accounts.get(account)
        if record is None or record.public_key is None:
            raise self._reject("unknown-account", account)
        self._consume_nonce(envelope.fields["nonce"], "login")

        try:
            session_key = self._key.decrypt(
                envelope.fields["sealed_session_key"])
        except DecryptionError as exc:
            raise self._reject("bad-session-key", str(exc)) from exc
        expected_mac = hmac_sha256(session_key, envelope.signed_bytes())
        if not constant_time_equal(expected_mac, envelope.mac):
            raise self._reject("bad-mac", "login MAC invalid")

        # The MAC only proves possession of the sealed key — which the
        # sender chose.  Binding the session to the *account* requires the
        # device signature under the key registered at Fig. 9 binding;
        # it covers every field except the signature itself and the MAC.
        unsigned = Envelope(envelope.msg_type,
                            {name: value
                             for name, value in envelope.fields.items()
                             if name != "signature"})
        if not record.public_key.verify(unsigned.signed_bytes(),
                                        envelope.fields["signature"]):
            raise self._reject("bad-device-signature",
                               "login not signed by the bound device key")

        risk = float(envelope.fields["risk"])
        if risk > self.RISK_TERMINATION_THRESHOLD:
            raise self._reject("risk-too-high", f"login risk {risk:.2f}")

        session_id = self._rng.generate(8).hex()
        next_nonce = self._fresh_nonce(f"session:{session_id}")
        session = SessionState(
            session_id=session_id, account=account,
            session_key=session_key, expected_nonce=next_nonce,
        )
        self._sessions[session_id] = session
        self.frame_audit_log.append((account, envelope.fields["frame_hash"]))

        page = Envelope(MSG_CONTENT_PAGE, {
            "domain": self.domain,
            "account": account,
            "session": session_id,
            "nonce": next_nonce,
            "page": self.pages["content"],
        })
        return page.set_mac(hmac_sha256(session_key, page.signed_bytes()))

    # ---------------------------------------- Fig. 10 continuous requests
    @_endpoint(ENDPOINTS, MSG_PAGE_REQUEST,
               "Fig. 10 step 4: serve one continuously-authenticated page")
    def _serve_request(self, envelope: Envelope, now: int) -> Envelope:
        """Step 4 (repeated): verify a post-login request, serve a page."""
        envelope.require("account", "session", "nonce", "frame_hash",
                         "risk", "mac")
        session = self._sessions.get(envelope.fields["session"])
        if session is None:
            raise self._reject("unknown-session", envelope.fields["session"])
        if session.account != envelope.fields["account"]:
            raise self._reject("wrong-account", envelope.fields["account"])
        if not constant_time_equal(envelope.fields["nonce"],
                                   session.expected_nonce):
            raise self._reject("bad-nonce", "stale or replayed nonce")
        expected_mac = hmac_sha256(session.session_key,
                                   envelope.signed_bytes())
        if not constant_time_equal(expected_mac, envelope.mac):
            raise self._reject("bad-mac", "request MAC invalid")

        self._consume_nonce(session.expected_nonce,
                            f"session:{session.session_id}")
        risk = float(envelope.fields["risk"])
        self.frame_audit_log.append(
            (session.account, envelope.fields["frame_hash"]))

        if risk > self.RISK_TERMINATION_THRESHOLD:
            # Continuous identity management: terminate on identity fraud.
            del self._sessions[session.session_id]
            raise self._reject("risk-too-high",
                               f"session risk {risk:.2f}; terminated")

        session.expected_nonce = self._fresh_nonce(
            f"session:{session.session_id}")

        if (session.pending_challenge is not None
                or risk > self.RISK_CHALLENGE_THRESHOLD):
            # Withhold content until a FLock-attested verified touch
            # answers the challenge (remote CHALLENGE response).
            if session.pending_challenge is None:
                session.pending_challenge = self._rng.generate(16)
                session.challenges_issued += 1
            challenge = Envelope(MSG_CHALLENGE, {
                "domain": self.domain,
                "account": session.account,
                "session": session.session_id,
                "nonce": session.expected_nonce,
                "challenge_nonce": session.pending_challenge,
            })
            return challenge.set_mac(hmac_sha256(session.session_key,
                                                 challenge.signed_bytes()))

        session.request_count += 1
        page = Envelope(MSG_CONTENT_PAGE, {
            "domain": self.domain,
            "account": session.account,
            "session": session.session_id,
            "nonce": session.expected_nonce,
            "page": self.pages["content"]
            + f" request #{session.request_count}".encode(),
        })
        return page.set_mac(hmac_sha256(session.session_key,
                                        page.signed_bytes()))

    @_endpoint(ENDPOINTS, MSG_CHALLENGE_RESPONSE,
               "Resume a session from a FLock-attested challenge answer")
    def _serve_challenge_response(self, envelope: Envelope, now: int) -> Envelope:
        """Verify a FLock challenge attestation; resume the session."""
        envelope.require("account", "session", "nonce", "attestation", "mac")
        session = self._sessions.get(envelope.fields["session"])
        if session is None:
            raise self._reject("unknown-session", envelope.fields["session"])
        if session.pending_challenge is None:
            raise self._reject("no-challenge-pending", session.session_id)
        if not constant_time_equal(envelope.fields["nonce"],
                                   session.expected_nonce):
            raise self._reject("bad-nonce", "stale challenge response")
        expected_mac = hmac_sha256(session.session_key,
                                   envelope.signed_bytes())
        if not constant_time_equal(expected_mac, envelope.mac):
            raise self._reject("bad-mac", "challenge response MAC invalid")
        expected_attestation = hmac_sha256(
            session.session_key,
            ATTEST_PREFIX + session.pending_challenge)
        if not constant_time_equal(envelope.fields["attestation"],
                                   expected_attestation):
            raise self._reject("bad-attestation",
                               "challenge attestation invalid")

        self._consume_nonce(session.expected_nonce,
                            f"session:{session.session_id}")
        session.pending_challenge = None
        session.challenges_passed += 1
        session.expected_nonce = self._fresh_nonce(
            f"session:{session.session_id}")
        page = Envelope(MSG_CONTENT_PAGE, {
            "domain": self.domain,
            "account": session.account,
            "session": session.session_id,
            "nonce": session.expected_nonce,
            "page": self.pages["content"] + b" (challenge passed)",
        })
        return page.set_mac(hmac_sha256(session.session_key,
                                        page.signed_bytes()))

    # ---------------------------------------------------------- audit API
    def session(self, session_id: str) -> SessionState | None:
        """Look up a live session by id, or None."""
        return self._sessions.get(session_id)

    @property
    def active_sessions(self) -> int:
        """Number of live sessions."""
        return len(self._sessions)
