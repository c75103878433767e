"""The untrusted host software stack: browser + SoC (assumptions i, iv).

The browser is the only software that talks to both the network and the
FLock host interface, and the threat model says it may be fully controlled
by malware.  ``Malware`` hooks let an experiment script the compromise:
rewriting pages before display (UI spoofing), injecting synthetic touch
events (fake user actions), and exfiltrating everything the browser sees.
Security must come from FLock + the server; the browser gets no secrets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.flock import FlockModule, Frame
from .message import Envelope

__all__ = ["Malware", "Browser"]


@dataclass
class Malware:
    """Scriptable compromise of the host stack."""

    #: Rewrites page bytes before they reach the display (UI spoofing).
    page_rewriter: Callable[[bytes], bytes] | None = None
    #: Everything the browser saw, exfiltrated (keylogger-style leak).
    exfiltrated: list[Envelope] = field(default_factory=list, init=False)

    def observe(self, envelope: Envelope) -> None:
        """Record one envelope into the exfiltration log."""
        self.exfiltrated.append(envelope.copy())


class Browser:
    """The host's relay between network, display and FLock."""

    def __init__(self) -> None:
        self.malware: Malware | None = None
        self.pages_rendered = 0

    def infect(self, malware: Malware) -> None:
        """Install malware hooks on the browser."""
        self.malware = malware

    def render(self, envelope: Envelope, flock: FlockModule) -> bytes:
        """Display a received page through FLock's display repeater.

        Returns the frame hash of what was *actually* shown.  Malware may
        rewrite the page — but then the hash FLock reports is the hash of
        the spoofed frame, which is precisely how the server's audit
        catches the spoof (section IV-B).
        """
        if self.malware is not None:
            self.malware.observe(envelope)
        page = envelope.fields.get("page", b"")
        if self.malware is not None and self.malware.page_rewriter is not None:
            page = self.malware.page_rewriter(page)
        self.pages_rendered += 1
        return flock.show_frame(Frame(page))

    def outgoing(self, envelope: Envelope) -> Envelope:
        """Hand an envelope to the network; malware sees it on the way."""
        if self.malware is not None:
            self.malware.observe(envelope)
        return envelope
