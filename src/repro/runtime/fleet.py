"""Fleet construction: configuration, batch-built devices, device actors.

Building one honest TRUST device costs an RSA key generation plus a
fingerprint enrollment — fine for a benchmark of one, ruinous for a fleet
of thousands.  The factory amortizes both:

- **Manufacturing batches** — the factory mints ``batch_count`` batch
  identities once: a device key pair and its CA certificate each, like
  handsets sharing a manufacturing batch's attestation material.  Every
  fleet member is constructed with its batch's key and certificate, the
  one fleet template, the one sensor layout, and a DRBG of its own (so
  nonces/session keys diverge).  A visible consequence: registrations
  present only ``batch_count`` distinct certificates, which is what gives
  the shared cert-signature cache its fleet hit rate.
- **Service-keypair pool** — per-service key generation (Fig. 9 step 2)
  draws from a pre-generated pool via ``CryptoProcessor.keypair_source``;
  the *modeled* keygen latency is still accounted, so reported protocol
  costs are unchanged — only host wall-clock shrinks.

All randomness derives from ``FleetConfig.seed`` through per-actor
``numpy`` generators keyed by device index, so construction is independent
of call order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto import (Certificate, CertificateAuthority, HmacDrbg,
                          RsaPrivateKey, generate_keypair)
from repro.fingerprint import enroll_master, synthesize_master
from repro.net import MobileDevice, TrustClient, TrustSession, default_layout

__all__ = ["BUTTON_XY", "FleetConfig", "DeviceFactory", "DeviceActor",
           "draw_risk"]

#: Where fleet users press login/confirm buttons: over the bottom-centre
#: sensor of the default layout (same spot as ``repro.eval``'s harness).
BUTTON_XY = (28.0, 80.0)
#: RSA modulus size of the fleet CA, the service and every device.  Small
#: on purpose: fleet runs measure *scheduling*, not RSA arithmetic, and
#: protocol costs use modeled latencies anyway.
KEY_BITS = 512
#: Mean think time between a device's interactions (exponential).
THINK_TIME_S = 2.0
#: Network round trip added to every operation's completion.
NETWORK_RTT_S = 0.040


@dataclass(frozen=True)
class FleetConfig:
    """One fleet scenario: population, sharding, workload mix, seeds.

    Fleet devices always run FLock's modeled fingerprint processor: only
    score distributions matter at fleet scale (the image pipeline is what
    the ``continuous-image`` sessions measure).
    """

    n_devices: int = 1000
    n_shards: int = 4
    seed: int = 7
    #: Content pages each device requests after login.
    requests_per_device: int = 3
    #: Fraction of requests reporting marginal risk (0.5, 0.75) — the
    #: server withholds content and demands a re-attested touch.
    challenge_fraction: float = 0.08
    #: Fraction of requests reporting breach-level risk (> 0.75) — the
    #: server terminates the session (``risk-too-high``).
    hijack_fraction: float = 0.01
    batch_count: int = 4
    keypair_pool_size: int = 8
    #: Device start times are spread uniformly over this window.
    ramp_s: float = 30.0
    domain: str = "www.fleet.example"

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError("n_devices must be positive")
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        if self.requests_per_device < 0:
            raise ValueError("requests_per_device must be >= 0")
        if self.batch_count < 1 or self.keypair_pool_size < 1:
            raise ValueError("batch/keypair pools must be non-empty")
        if not (0.0 <= self.challenge_fraction <= 1.0
                and 0.0 <= self.hijack_fraction <= 1.0):
            raise ValueError("challenge and hijack fractions must be in "
                             "[0, 1]")
        if self.challenge_fraction + self.hijack_fraction > 1.0:
            raise ValueError("challenge + hijack fractions must fit in [0, 1]")
        if self.ramp_s < 0:
            raise ValueError("ramp_s must be >= 0")


def _entropy(config: FleetConfig, *stream: int) -> bytes:
    """32 deterministic bytes for one named entropy stream.

    The stream's first four 64-bit outputs, little-endian: the bytes
    ``Generator.bytes(32)`` returns, without its 32-bit draws.
    """
    bits = np.random.default_rng((config.seed,) + stream).bit_generator
    return bits.random_raw(4).astype("<u8").tobytes()


def draw_risk(rng: np.random.Generator, config: FleetConfig) -> float:
    """One request's reported risk under the configured workload mix."""
    u = rng.random()
    if u < config.hijack_fraction:
        return 0.76 + 0.2 * rng.random()  # breach: terminated server-side
    if u < config.hijack_fraction + config.challenge_fraction:
        return 0.51 + 0.23 * rng.random()  # marginal: challenged
    return 0.4 * rng.random()  # benign


class DeviceFactory:
    """Builds fleet devices from a few manufacturing batches' identities."""

    def __init__(self, config: FleetConfig, ca: CertificateAuthority) -> None:
        self.config = config
        #: The one physical finger every fleet user presents.  Sharing it
        #: is sound: the modeled processor decides genuine/impostor by
        #: finger id, and per-device score draws come from per-actor rngs.
        self.master = synthesize_master(
            "fleet-right-thumb", np.random.default_rng((config.seed, 1)))
        self._template = enroll_master(
            self.master, np.random.default_rng((config.seed, 2)))
        self._ca_public_key = ca.public_key
        #: Every member's sensor layout: nothing mutates a ``SensorLayout``,
        #: and each member's controller builds its own sensor arrays.
        self._layout = default_layout()
        #: Per batch: the device key pair and the certificate its members
        #: share, issued under the batch's own subject.
        self._batches: list[tuple[RsaPrivateKey, Certificate]] = []
        for batch in range(config.batch_count):
            subject = f"fleet-proto-{batch}"
            key = generate_keypair(
                HmacDrbg(_entropy(config, 3, batch),
                         personalization=subject.encode()),
                bits=KEY_BITS)
            self._batches.append((key, ca.issue(subject, "flock-device",
                                                key.public_key)))
        pool_drbg = HmacDrbg(_entropy(config, 4),
                             personalization=b"fleet-service-keypair-pool")
        self._service_pool = [
            generate_keypair(pool_drbg, bits=KEY_BITS)
            for _ in range(config.keypair_pool_size)]

    def build(self, index: int) -> MobileDevice:
        """Fleet member ``index`` of batch ``index % B``, enrolled."""
        key, certificate = self._batches[index % len(self._batches)]
        # The member's own DRBG stream: nonces, session keys and signature
        # padding diverge between members even within one batch.
        device = MobileDevice(
            f"fleet-dev-{index:05d}", _entropy(self.config, 5, index),
            layout=self._layout, processor_mode="modeled",
            key_bits=KEY_BITS, device_key=key)
        flock = device.flock
        flock.install_ca(self._ca_public_key)
        flock.set_certificate(certificate)
        flock.enroll_local_user(self._template)
        pooled = self._service_pool[index % len(self._service_pool)]
        flock.crypto.keypair_source = lambda pooled=pooled: pooled
        return device


@dataclass
class DeviceActor:
    """One simulated user + device working through its session script."""

    index: int
    account: str
    device: MobileDevice
    client: TrustClient
    rng: np.random.Generator
    #: Event label per op, built once: every event of one actor and op
    #: shares one string in the replay trace.
    labels: dict[str, str]
    session: TrustSession | None = field(default=None, init=False)
    requests_done: int = field(default=0, init=False)
