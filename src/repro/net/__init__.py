"""The remote half of TRUST: devices, servers, CA, channel, protocols.

Implements Fig. 8's deployment — mobile devices with FLock modules, web
servers, a CA — plus the Fig. 9 registration and Fig. 10 continuous
authentication protocols over an adversary-observable channel.
"""

from .message import (
    MSG_CHALLENGE,
    MSG_CHALLENGE_RESPONSE,
    MSG_CONTENT_PAGE,
    MSG_LOGIN_PAGE,
    MSG_LOGIN_SUBMIT,
    MSG_PAGE_REQUEST,
    MSG_REGISTRATION_PAGE,
    MSG_REGISTRATION_SUBMIT,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    Envelope,
    ProtocolError,
    canonical_payload,
    decode_envelope,
    encode_envelope,
)
from .channel import ChannelRecord, UntrustedChannel
from .webserver import Endpoint, SessionState, WebServer
from .browser import Browser, Malware
from .device import MobileDevice, default_layout
from .protocol import ProtocolOutcome, TrustClient, TrustSession
from .reset_transfer import TransferError, transfer_identity
from .audit import AuditFinding, AuditReport, FrameAuditor
from .cookies import cookie_size_bytes, decode_cookie, encode_cookie

__all__ = [
    "Envelope", "ProtocolError", "canonical_payload",
    "PROTOCOL_VERSION", "SUPPORTED_PROTOCOL_VERSIONS",
    "encode_envelope", "decode_envelope",
    "MSG_REGISTRATION_PAGE", "MSG_REGISTRATION_SUBMIT", "MSG_LOGIN_PAGE",
    "MSG_LOGIN_SUBMIT", "MSG_CONTENT_PAGE", "MSG_PAGE_REQUEST",
    "MSG_CHALLENGE", "MSG_CHALLENGE_RESPONSE",
    "ChannelRecord", "UntrustedChannel",
    "Endpoint", "SessionState", "WebServer",
    "Browser", "Malware",
    "MobileDevice", "default_layout",
    "ProtocolOutcome", "TrustClient", "TrustSession",
    "TransferError", "transfer_identity",
    "AuditFinding", "AuditReport", "FrameAuditor",
    "encode_cookie", "decode_cookie", "cookie_size_bytes",
]
