"""Identity reset and identity transfer (paper section IV-B, last part).

*Reset*: a lost device's key bindings are revoked at each web service using
the legacy password fallback (:meth:`WebServer.reset_identity`), after
which the user re-registers from the new device (the normal Fig. 9 flow).

*Transfer*: when upgrading devices, the old FLock encrypts all service
records + the biometric identity under the new device's built-in public
key — authorized by a verified fingerprint touch on the old device — and
the new device imports them, after which it can sign for every bound
service without any server-side change.
"""

from __future__ import annotations

import numpy as np

from repro.fingerprint import MasterFingerprint
from .device import MobileDevice
from .protocol import VERIFY_ATTEMPTS, verified_touch

__all__ = ["transfer_identity", "TransferError"]


class TransferError(Exception):
    """Raised when an identity transfer cannot be authorized or applied."""


def transfer_identity(old_device: MobileDevice, new_device: MobileDevice,
                      authorize_xy: tuple[float, float],
                      master: MasterFingerprint,
                      rng: np.random.Generator) -> list[str]:
    """Move all bindings from ``old_device`` to ``new_device``.

    The user authorizes the transfer by touching the old device's consent
    button (which the UI places over a fingerprint sensor); a touch whose
    opportunistic capture verifies against the old device's enrolled
    template is required — the genuine user may need a couple of presses,
    an impostor never produces one.  Returns the transferred domains.
    """
    if not verified_touch(old_device, authorize_xy, master, rng, time_s=0.0):
        raise TransferError(
            f"transfer authorization did not verify in {VERIFY_ATTEMPTS} "
            f"touches")
    bundle = old_device.flock.export_identity(
        new_device.flock.public_key, authorizing_touch_verified=True)
    domains = new_device.flock.import_identity(bundle)
    # Retire the old device: after a transfer both FLocks hold the same
    # per-service keys, so leaving the old records in place keeps two
    # devices able to authenticate for every account (PV404).
    for domain in domains:
        old_device.flock.unbind_service(domain)
    return domains
