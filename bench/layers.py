"""The layer table: which public callables belong to which layer.

Each :class:`Boundary` names a layer, the callables whose calls are its
spans, and the workloads on which it must record calls (the traced run
fails when one of those records none).  The crypto boundary is derived
from ``repro.crypto.__all__`` at install time, so it follows whatever the
package exports.  ``OP_BOUNDARIES`` is the subset an untraced run
installs: the client calls and gestures whose latency is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from .probe import Probe, Probes, resolve

__all__ = ["Boundary", "LAYERS", "OP_BOUNDARIES", "active_layers", "install",
           "layer_names"]

ONBOARD = "onboard-modeled"
STEADY = "steady-requests"
CONTINUOUS = "continuous-image"
FLEETS = frozenset({ONBOARD, STEADY})
PROTOCOL = FLEETS | {CONTINUOUS}

#: Outcomes of a protocol call that are decisions of the protocol, not
#: failures: success, a risk challenge, a risk termination, and a touch
#: that never verified (the biometric false-reject the critical button
#: retries against).
EXPECTED_OUTCOMES = frozenset({"ok", "challenge-required", "risk-too-high",
                               "fingerprint-not-verified"})

#: Critical-button operations: each needs one verified touch.
CRITICAL_OPS = ("register", "login", "challenge")

_DISPATCH = {"registration-submit": "register", "login-submit": "login",
             "page-request": "request", "challenge-response": "challenge"}


def _dispatch_layer(args: tuple) -> str:
    return "net.dispatch." + _DISPATCH.get(args[1].msg_type, "other")


def _reason(result) -> str:
    return result.reason


def _touch_labels(event) -> tuple:
    return ("touch",) + (("captured",) if event.captured else ()) \
        + (("verified",) if event.verified else ())


@dataclass(frozen=True)
class Boundary:
    """One layer: its callables (``"module:Qual.name"``) and probe."""

    layer: str
    targets: tuple[str, ...]
    active: frozenset[str] = frozenset()
    probe: Probe | None = None


def _client(method: str, op: str) -> Boundary:
    return Boundary("net.client", (f"repro.net.protocol:TrustClient.{method}",),
                    PROTOCOL, Probe("net.client", op=op, outcome=_reason))


OP_BOUNDARIES = (
    _client("register", "register"),
    _client("login", "login"),
    _client("request", "request"),
    _client("answer_challenge", "challenge"),
    Boundary("core.pipeline",
             ("repro.core.pipeline:ContinuousAuthPipeline.process_gesture",),
             frozenset({CONTINUOUS}),
             Probe("core.pipeline", op="gesture",
                   outcome=lambda event: event.outcome_kind.value)),
)

LAYERS = OP_BOUNDARIES + (
    Boundary("runtime.loop", ("repro.runtime.scheduler:EventLoop.run",),
             FLEETS),
    Boundary("runtime.events", ("repro.runtime.scheduler:EventLoop.schedule",),
             FLEETS, Probe("runtime.events", callback="action")),
    Boundary("runtime.factory", ("repro.runtime.fleet:DeviceFactory.__init__",
                                 "repro.runtime.fleet:DeviceFactory.build"),
             FLEETS),
    Boundary("runtime.pool_init",
             ("repro.runtime.dispatcher:ServerPool.__init__",), FLEETS),
    Boundary("runtime.cache", ("repro.runtime.cache:VerificationCache.memoize",),
             FLEETS),
    Boundary("net.dispatch", ("repro.net.webserver:WebServer.dispatch",),
             PROTOCOL, Probe(_dispatch_layer)),
    Boundary("net.pages", ("repro.net.webserver:WebServer.registration_page",
                           "repro.net.webserver:WebServer.login_page"),
             PROTOCOL),
    Boundary("net.codec", ("repro.net.message:Envelope.copy",
                           "repro.net.message:Envelope.size_bytes",
                           "repro.net.message:Envelope.signed_bytes",
                           "repro.net.message:Envelope.require",
                           "repro.net.message:Envelope.set_mac",
                           "repro.net.message:canonical_payload",
                           "repro.net.message:encode_envelope",
                           "repro.net.message:decode_envelope"),
             PROTOCOL),
    Boundary("net.channel", ("repro.net.channel:UntrustedChannel.send",),
             PROTOCOL),
    Boundary("net.browser", ("repro.net.browser:Browser.render",
                             "repro.net.browser:Browser.outgoing"),
             PROTOCOL),
    Boundary("flock.touch", ("repro.flock.module:FlockModule.handle_touch",),
             PROTOCOL, Probe("flock.touch", tally=_touch_labels)),
    Boundary("flock.match", (
        "repro.flock.fingerprint_processor:ImageFingerprintProcessor"
        ".authenticate",
        "repro.flock.fingerprint_processor:ModeledFingerprintProcessor"
        ".authenticate"), PROTOCOL),
    Boundary("flock.module", tuple(
        f"repro.flock.module:FlockModule.{method}" for method in (
            "enroll_local_user", "begin_service_binding",
            "complete_service_binding", "sign_as_device", "sign_for_service",
            "seal_for_server", "verify_server_signature", "mac",
            "open_session", "session_mac", "begin_challenge",
            "attest_challenge", "verify_session_mac", "close_session",
            "has_session", "show_frame")) + (
        "repro.flock.crypto_processor:CryptoProcessor.*",
        "repro.flock.display:DisplayRepeater.*"), PROTOCOL),
    Boundary("fingerprint.render",
             ("repro.fingerprint.impression:render_impression",), PROTOCOL),
    Boundary("fingerprint.quality",
             ("repro.fingerprint.quality:assess_quality",
              "repro.fingerprint.quality:QualityGate.evaluate"), PROTOCOL),
    Boundary("fingerprint.extract",
             ("repro.fingerprint.minutiae:minutiae_from_image",
              "repro.fingerprint.minutiae:extract_minutiae"),
             frozenset({CONTINUOUS})),
    Boundary("fingerprint.enhance",
             ("repro.fingerprint.enhancement:minutiae_with_enhancement",
              "repro.fingerprint.enhancement:enhance"),
             frozenset({CONTINUOUS})),
    Boundary("fingerprint.match",
             ("repro.fingerprint.matching:MinutiaeMatcher.match",),
             frozenset({CONTINUOUS})),
    Boundary("fingerprint.enroll",
             ("repro.fingerprint.synthesis:synthesize_master",
              "repro.fingerprint.templates:enroll_master"), PROTOCOL),
    Boundary("hardware.sense", ("repro.hardware.touchscreen:TouchPanel.locate",
                                "repro.hardware.sensor_array:SensorArray"
                                ".capture"), PROTOCOL),
    Boundary("core.risk",
             ("repro.core.identity_risk:IdentityRiskTracker.record",
              "repro.core.identity_risk:IdentityRiskTracker.assess"),
             frozenset({CONTINUOUS})),
    Boundary("core.session", ("repro.core.remote:TrustCoordinator.run_session",),
             frozenset({CONTINUOUS})),
    Boundary("obs.metrics", tuple(
        f"repro.obs.metrics:{cls}.*" for cls in (
            "Instrument", "CounterMetric", "GaugeMetric", "HistogramMetric",
            "HistogramSeries", "MetricsRegistry")), PROTOCOL),
)

#: Crypto sub-layers by callable name (``Class.method`` or bare name);
#: anything else ``repro.crypto`` exports falls in ``crypto.other``.
CRYPTO_SUBLAYERS = {
    "keygen": {"generate_keypair", "generate_prime", "is_probable_prime"},
    "rsa_private": {"RsaPrivateKey.sign", "RsaPrivateKey.decrypt", "rsa_sign",
                    "rsa_decrypt", "CertificateAuthority.issue"},
    "rsa_public": {"RsaPublicKey.verify", "RsaPublicKey.encrypt",
                   "rsa_verify", "rsa_verify_batch", "rsa_encrypt",
                   "Certificate.verify", "Certificate.signature_valid",
                   "CertificateAuthority.check"},
    "cipher": {"SessionCipher", "chacha20_block", "chacha20_xor",
               "make_session_cipher"},
    "hash_mac": {"SHA256", "MD5", "HMAC", "HmacDrbg", "sha256", "sha256_hex",
                 "new_sha256", "md5", "md5_hex", "new_md5", "hmac_sha256",
                 "hmac_md5", "hkdf_sha256", "constant_time_equal",
                 "make_drbg"},
}
CRYPTO_ACTIVE = {"keygen": PROTOCOL, "rsa_private": PROTOCOL,
                 "rsa_public": PROTOCOL, "cipher": frozenset(),
                 "hash_mac": PROTOCOL, "other": PROTOCOL}


def crypto_sublayer(owner: str | None, name: str) -> str:
    """The crypto sub-layer of ``owner.name`` (owner None: a function)."""
    keys = (f"{owner}.{name}", owner, name) if owner else (name,)
    for sublayer, members in CRYPTO_SUBLAYERS.items():
        if any(key in members for key in keys):
            return f"crypto.{sublayer}"
    return "crypto.other"


def _crypto_classes(cls: type) -> list[type]:
    """``cls`` and its subclasses defined in ``repro`` modules."""
    found = [cls]
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            found.extend(_crypto_classes(sub))
    return found


def crypto_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every public crypto callable."""
    import repro.crypto as crypto
    from .probe import public_methods
    targets = []
    for export in crypto.__all__:
        obj = getattr(crypto, export)
        if isinstance(obj, type):
            if issubclass(obj, BaseException):
                continue
            for cls in _crypto_classes(obj):
                for method in public_methods(cls):
                    targets.append((cls, method,
                                    crypto_sublayer(obj.__name__, method)))
        elif callable(obj):
            targets.append((crypto, export, crypto_sublayer(None, export)))
    return targets


def layer_names() -> list[str]:
    """Every layer the table can record, in table order."""
    names = []
    for boundary in LAYERS:
        if boundary.layer == "net.dispatch":
            names.extend(f"net.dispatch.{op}" for op in _DISPATCH.values())
        elif boundary.layer not in names:
            names.append(boundary.layer)
    names.extend(f"crypto.{sub}" for sub in CRYPTO_ACTIVE)
    return names


def active_layers(workload: str) -> list[str]:
    """Layers that must record calls when ``workload`` is traced."""
    names = [f"net.dispatch.{op}" for op in ("login", "request", "register")
             if workload in PROTOCOL]
    if workload in FLEETS:
        names.append("net.dispatch.challenge")
    names.extend(b.layer for b in LAYERS
                 if workload in b.active and b.layer != "net.dispatch")
    names.extend(f"crypto.{sub}" for sub, active in CRYPTO_ACTIVE.items()
                 if workload in active)
    return list(dict.fromkeys(names))


def install(probes: Probes, boundaries=LAYERS, crypto: bool = True) -> None:
    """Probe every target of ``boundaries`` (and the crypto exports).

    Every ``"module:Qual.name"`` must resolve; a stale entry raises
    ``LookupError`` instead of silently measuring nothing.
    """
    resolved = [(resolve(target), boundary.probe or Probe(boundary.layer))
                for boundary in boundaries for target in boundary.targets]
    if crypto:
        for owner, attr, layer in crypto_targets():
            probes.add(owner, attr, Probe(layer))
    for (owner, attr), probe in resolved:
        probes.add(owner, attr, probe)
