"""Off-line frame-hash auditing (paper section IV-B).

    "a server can always verify user operations by checking the frame hash
    codes sent from TRUST. [...] displayed view of a web page can only
    belong to a finite set of all the possible views of the original page.
    [...] To avoid expensive computation, a server can store the returned
    frame hash code in a log and perform verification during off-line
    audit process."

``FrameAuditor`` is that off-line process: it enumerates the reachable
quantized views of every page a server served (including dynamically
suffixed content pages), hashes them once into a whitelist, and checks a
server's audit log against it.  Any logged hash outside the whitelist
means the user acted on a frame the server never sent — the UI-spoofing
signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flock import Frame, FrameHashEngine
from .webserver import WebServer

__all__ = ["AuditFinding", "AuditReport", "FrameAuditor"]


@dataclass(frozen=True)
class AuditFinding:
    """One suspicious audit-log entry."""

    account: str
    entry_index: int
    frame_hash: bytes


@dataclass
class AuditReport:
    """Outcome of auditing one account's frame-hash log."""

    account: str
    total_entries: int
    verified_entries: int
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No suspicious entries were found."""
        return not self.findings


class FrameAuditor:
    """Builds a reachable-view hash whitelist for one server and audits."""

    #: Content-page request numbers the whitelist enumerates.
    MAX_DYNAMIC_REQUESTS = 64

    def __init__(self, server: WebServer, max_scroll_px: int = 256) -> None:
        if max_scroll_px < 0:
            raise ValueError("max scroll must be non-negative")
        self.server = server
        self.max_scroll_px = int(max_scroll_px)
        self.engine = FrameHashEngine()
        self._whitelist: set[bytes] | None = None

    def _pages(self) -> list[bytes]:
        pages = list(self.server.pages.values())
        # Content pages carry a per-request suffix (see
        # WebServer._serve_request); enumerate the plausible range.
        content = self.server.pages["content"]
        for request_number in range(1, self.MAX_DYNAMIC_REQUESTS + 1):
            pages.append(content + f" request #{request_number}".encode())
        pages.append(b"<html>registration complete</html>")
        return pages

    def whitelist(self) -> set[bytes]:
        """All reachable-view hashes of every page this server serves."""
        if self._whitelist is None:
            hashes: set[bytes] = set()
            for page in self._pages():
                for view in Frame(page).reachable_views(self.max_scroll_px):
                    hashes.add(self.engine.hash_frame(view))
            self._whitelist = hashes
        return self._whitelist

    def audit_account(self, account: str) -> AuditReport:
        """Check every logged frame hash for ``account``."""
        whitelist = self.whitelist()
        entries = [(index, frame_hash)
                   for index, (logged_account, frame_hash)
                   in enumerate(self.server.frame_audit_log)
                   if logged_account == account]
        findings = [
            AuditFinding(account=account, entry_index=index,
                         frame_hash=frame_hash)
            for index, frame_hash in entries
            if frame_hash not in whitelist
        ]
        return AuditReport(
            account=account,
            total_entries=len(entries),
            verified_entries=len(entries) - len(findings),
            findings=findings,
        )
