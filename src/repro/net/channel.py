"""The untrusted Internet between device and server (assumption iii).

The channel records every envelope it carries and exposes the adversary
hooks the security analysis needs: passive interception (read everything),
replay (re-deliver a recorded envelope), and in-flight tampering.  TRUST's
defenses — nonces, MACs, session-key encryption — are what make these
capabilities useless; benchmark E10 measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .message import Envelope

__all__ = ["ChannelRecord", "UntrustedChannel"]


@dataclass(frozen=True)
class ChannelRecord:
    """One carried message, as observed by an on-path adversary."""

    index: int
    direction: str  # "to-server" | "to-device"
    envelope: Envelope


@dataclass
class UntrustedChannel:
    """Carries envelopes, logs them, and applies optional tampering."""

    tamper_hook: Callable[[Envelope, str], Envelope] | None = None
    drop_hook: Callable[[Envelope, str], bool] | None = None
    #: Fleet-scale runs carry hundreds of thousands of envelopes through
    #: one channel; set False to keep only the counters (no replay log).
    keep_log: bool = True
    log: list[ChannelRecord] = field(default_factory=list, init=False)
    #: Envelopes carried, dropped ones included.
    message_count: int = field(default=0, init=False)
    bytes_to_server: int = field(default=0, init=False)
    bytes_to_device: int = field(default=0, init=False)

    def send(self, envelope: Envelope, direction: str) -> Envelope | None:
        """Carry one envelope; returns what arrives (None if dropped).

        The adversary sees (and may modify) a *copy*: honest endpoints keep
        their own references, as in a real network stack.
        """
        if direction not in ("to-server", "to-device"):
            raise ValueError(f"unknown direction {direction!r}")
        carried = envelope.copy()
        self.message_count += 1
        if self.keep_log:
            self.log.append(
                ChannelRecord(len(self.log), direction, carried.copy()))
        size = carried.size_bytes()
        if direction == "to-server":
            self.bytes_to_server += size
        else:
            self.bytes_to_device += size
        if self.drop_hook is not None and self.drop_hook(carried, direction):
            return None
        if self.tamper_hook is not None:
            carried = self.tamper_hook(carried, direction)
        return carried

    def recorded(self, msg_type: str | None = None,
                 direction: str | None = None) -> list[ChannelRecord]:
        """Adversary's view of the traffic log, optionally filtered."""
        records = self.log
        if msg_type is not None:
            records = [r for r in records if r.envelope.msg_type == msg_type]
        if direction is not None:
            records = [r for r in records if r.direction == direction]
        return list(records)
