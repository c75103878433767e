"""Conventional cookie-session web server — the E10 security strawman.

What TRUST replaces: password login issuing a long-lived bearer cookie,
requests authenticated *only* by possession of that cookie.  No nonces, no
MACs, no frame hashes, no continuous identity.  The attack benchmarks run
the same adversaries against this server and against TRUST; here replay,
theft and hijack all succeed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import HmacDrbg, constant_time_equal, sha256
from repro.net.message import Envelope, ProtocolError

__all__ = ["CookieWebServer"]


@dataclass
class _CookieSession:
    """One bearer-cookie session."""
    cookie: bytes
    account: str


class CookieWebServer:
    """Password + bearer-cookie service (no TRUST hardware involved)."""

    def __init__(self, domain: str, seed: bytes) -> None:
        self.domain = domain
        self._rng = HmacDrbg(seed, personalization=domain.encode())
        self._passwords: dict[str, bytes] = {}
        self._sessions: dict[bytes, _CookieSession] = {}
        self.rejections = 0

    def create_account(self, account: str, password: str) -> None:
        """Register an account with a password (the only credential here)."""
        if account in self._passwords:
            raise ValueError(f"account {account!r} exists")
        self._passwords[account] = sha256(password.encode())

    def login(self, account: str, password: str) -> Envelope:
        """Password check; on success, issue a bearer cookie."""
        stored = self._passwords.get(account)
        if stored is None or not constant_time_equal(
                stored, sha256(password.encode())):
            self.rejections += 1
            raise ProtocolError("bad-credentials", account)
        cookie = self._rng.generate(16)
        self._sessions[cookie] = _CookieSession(cookie=cookie, account=account)
        return Envelope("cookie-login-ok", {
            "domain": self.domain, "account": account, "cookie": cookie,
            "page": b"<html>cookie content</html>",
        })

    def handle_request(self, envelope: Envelope) -> Envelope:
        """Anyone holding the cookie is the user. That's the whole check."""
        envelope.require("cookie")
        session = self._sessions.get(envelope.fields["cookie"])
        if session is None:
            self.rejections += 1
            raise ProtocolError("bad-cookie")
        return Envelope("cookie-content", {
            "domain": self.domain, "account": session.account,
            "page": b"<html>cookie content</html>",
        })
