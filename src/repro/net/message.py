"""Protocol messages and their canonical MAC encoding (Figs. 9-10).

Every TRUST message is a set of key-value fields plus a MAC computed over
the *canonical encoding* of those fields — sorted ``key=hex(value)`` lines —
so both endpoints MAC exactly the same bytes regardless of field order.
The MAC is either an RSA signature (registration, where no shared key
exists yet) or an HMAC under the session key (post-login traffic), matching
the paper's "MAC: Encrypt_K(hash of key-value pairs)" notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ProtocolError",
    "canonical_payload",
    "Envelope",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "encode_envelope",
    "decode_envelope",
    "MSG_REGISTRATION_PAGE",
    "MSG_REGISTRATION_SUBMIT",
    "MSG_LOGIN_PAGE",
    "MSG_LOGIN_SUBMIT",
    "MSG_CONTENT_PAGE",
    "MSG_PAGE_REQUEST",
    "MSG_CHALLENGE",
    "MSG_CHALLENGE_RESPONSE",
]

#: The wire-schema version this code base speaks.  Version 1 is the frozen
#: byte format of every stored replay/fuzz corpus; new versions must be
#: added to :data:`SUPPORTED_PROTOCOL_VERSIONS` explicitly, and decoding an
#: unknown version fails closed with a stable reason code.
PROTOCOL_VERSION = 1

#: Versions an endpoint will accept.  Strictly checked both by
#: :func:`decode_envelope` and by ``WebServer.dispatch``.
SUPPORTED_PROTOCOL_VERSIONS = frozenset({1})


class ProtocolError(Exception):
    """Raised when an endpoint rejects a message; carries a reason code."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


MSG_REGISTRATION_PAGE = "registration-page"
MSG_REGISTRATION_SUBMIT = "registration-submit"
MSG_LOGIN_PAGE = "login-page"
MSG_LOGIN_SUBMIT = "login-submit"
MSG_CONTENT_PAGE = "content-page"
MSG_PAGE_REQUEST = "page-request"
MSG_CHALLENGE = "challenge"
MSG_CHALLENGE_RESPONSE = "challenge-response"


def _encode_value(value) -> str:
    if isinstance(value, bytes):
        return "b:" + value.hex()
    if isinstance(value, bool):
        return "B:" + ("1" if value else "0")
    if isinstance(value, int):
        return "i:" + str(value)
    if isinstance(value, float):
        return "f:" + repr(value)
    if isinstance(value, str):
        return "s:" + value
    raise TypeError(f"unsupported field type {type(value).__name__}")


def canonical_payload(fields: dict) -> bytes:
    """Canonical byte encoding of a field dict (the MAC/signature input)."""
    # Hot path: every MAC/signature/verification encodes its envelope, so
    # the common field types are dispatched on exact type inline; anything
    # else (including subclasses) falls through to _encode_value, which
    # keeps the authoritative isinstance semantics and error message.
    lines = []
    append = lines.append
    for field_name in sorted(fields):
        if field_name == "mac":
            continue  # the MAC never covers itself
        value = fields[field_name]
        cls = type(value)
        if cls is bytes:
            append(field_name + "=b:" + value.hex())
        elif cls is bool:
            append(field_name + "=B:" + ("1" if value else "0"))
        elif cls is int:
            append(field_name + "=i:" + str(value))
        elif cls is float:
            append(field_name + "=f:" + repr(value))
        elif cls is str:
            append(field_name + "=s:" + value)
        else:
            append(field_name + "=" + _encode_value(value))
    return "\n".join(lines).encode("utf-8")


class _Fields(dict):
    """An envelope's field dict, keeping the encoding last made of it.

    ``encoding`` is ``(msg_type, signed bytes)`` or None.  Every mutator
    drops it before changing the dict, except setting ``mac``: the MAC
    never covers itself.
    """

    encoding: tuple[str, bytes] | None = None

    def __setitem__(self, name, value) -> None:
        if name != "mac":
            self.encoding = None
        dict.__setitem__(self, name, value)

    def __delitem__(self, name) -> None:
        self.encoding = None
        dict.__delitem__(self, name)

    def pop(self, *args):
        self.encoding = None
        return dict.pop(self, *args)

    def popitem(self):
        self.encoding = None
        return dict.popitem(self)

    def setdefault(self, *args):
        self.encoding = None
        return dict.setdefault(self, *args)

    def update(self, *args, **kwargs) -> None:
        self.encoding = None
        dict.update(self, *args, **kwargs)

    def clear(self) -> None:
        self.encoding = None
        dict.clear(self)

    def __ior__(self, other):
        self.encoding = None
        return dict.__ior__(self, other)

    def copy(self) -> "_Fields":
        """A copy that starts with this dict's encoding."""
        clone = _Fields(self)
        clone.encoding = self.encoding
        return clone


@dataclass
class Envelope:
    """One message on the wire: a type tag, fields, and the MAC field.

    The envelope is deliberately a plain mutable container: the untrusted
    channel and the malware-controlled browser are *supposed* to be able to
    tamper with it.  Security comes from verification, not encapsulation.

    The MAC input is encoded once.  The first :meth:`signed_bytes` call
    keeps its bytes with the field dict, which every mutator of that dict
    clears (setting ``mac`` aside), and the kept bytes are used only while
    ``msg_type`` is the type they were made for.  The constructor copies a
    plain ``fields`` dict into that tracking dict; a plain dict assigned to
    ``fields`` later is encoded on every call.  :meth:`copy` starts with
    the original's bytes, and a change to either envelope clears only its
    own.

    ``version`` tags the wire schema the envelope was built for; endpoints
    reject versions outside :data:`SUPPORTED_PROTOCOL_VERSIONS` with the
    stable reason code ``unsupported-version``.  The v1 MAC input
    (:meth:`signed_bytes`) is frozen byte-for-byte.

    ``trace_id`` is observability metadata: the client stamps the id of the
    trace the message belongs to so the server's dispatch span can be
    correlated with the gesture that caused it.  It deliberately lives
    *outside* ``fields`` — it is never MACed (an adversary may rewrite it,
    like any routing header, without affecting verification) and when unset
    the v1 wire encoding is byte-identical to pre-trace corpora.
    """

    msg_type: str
    fields: dict = field(default_factory=_Fields)
    version: int = PROTOCOL_VERSION
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if type(self.fields) is not _Fields:
            self.fields = _Fields(self.fields)

    @property
    def mac(self) -> bytes:
        """The message's MAC/signature field (empty if unset)."""
        return self.fields.get("mac", b"")

    def set_mac(self, tag: bytes) -> "Envelope":
        """Attach the MAC/signature; returns self for chaining."""
        self.fields["mac"] = tag
        return self

    def signed_bytes(self) -> bytes:
        """What the MAC/signature covers: type tag + canonical fields."""
        fields, msg_type = self.fields, self.msg_type
        if type(fields) is not _Fields:
            return msg_type.encode("utf-8") + b"\n" + canonical_payload(fields)
        kept = fields.encoding
        if kept is None or kept[0] != msg_type:
            kept = fields.encoding = (
                msg_type,
                msg_type.encode("utf-8") + b"\n" + canonical_payload(fields))
        return kept[1]

    def require(self, *names: str) -> None:
        """Presence check; raises ProtocolError listing missing fields."""
        missing = [n for n in names if n not in self.fields]
        if missing:
            raise ProtocolError("malformed-message",
                                f"{self.msg_type} missing {missing}")

    def size_bytes(self) -> int:
        """Approximate wire size (canonical encoding + MAC)."""
        return len(self.signed_bytes()) + len(self.mac)

    def copy(self) -> "Envelope":
        """Shallow-field copy (what the channel hands adversaries)."""
        return Envelope(self.msg_type, self.fields.copy(), self.version,
                        self.trace_id)


# --------------------------------------------------------------- wire codec
# A strict, reversible byte serialization for envelopes — the format replay
# and fuzz corpora are stored in.  Unlike the canonical MAC encoding above
# (which is append-only frozen for v1), the codec escapes every value
# hex-safe so arbitrary field content round-trips exactly.

_WIRE_MAGIC = "trust-envelope"


def _encode_wire_value(value) -> str:
    if isinstance(value, bytes):
        return "b:" + value.hex()
    if isinstance(value, bool):
        return "B:" + ("1" if value else "0")
    if isinstance(value, int):
        return "i:" + str(value)
    if isinstance(value, float):
        return "f:" + repr(value)
    if isinstance(value, str):
        return "s:" + value.encode("utf-8").hex()
    raise TypeError(f"unsupported field type {type(value).__name__}")


def _decode_wire_value(encoded: str):
    tag, _, body = encoded.partition(":")
    try:
        if tag == "b":
            return bytes.fromhex(body)
        if tag == "B":
            if body not in ("0", "1"):
                raise ValueError(f"bad bool literal {body!r}")
            return body == "1"
        if tag == "i":
            return int(body)
        if tag == "f":
            return float(body)
        if tag == "s":
            return bytes.fromhex(body).decode("utf-8")
    except ValueError as exc:
        raise ProtocolError("malformed-message",
                            f"bad {tag!r} value: {exc}") from exc
    raise ProtocolError("malformed-message", f"unknown value tag {tag!r}")


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize an envelope to its versioned wire form.

    A set ``trace_id`` rides as a fourth header token (``trace=<id>``);
    when unset the header keeps its original three-token v1 form, so
    pre-trace corpora re-encode byte-identically.
    """
    header = f"{_WIRE_MAGIC} v{envelope.version} {envelope.msg_type}"
    if envelope.trace_id is not None:
        if (" " in envelope.trace_id or "\n" in envelope.trace_id
                or not envelope.trace_id):
            raise TypeError(
                f"trace id {envelope.trace_id!r} is not wire-safe")
        header += f" trace={envelope.trace_id}"
    lines = [header]
    for field_name in sorted(envelope.fields):
        if "=" in field_name or "\n" in field_name:
            raise TypeError(f"field name {field_name!r} is not wire-safe")
        lines.append(
            f"{field_name}={_encode_wire_value(envelope.fields[field_name])}")
    return "\n".join(lines).encode("utf-8")


def decode_envelope(data: bytes) -> Envelope:
    """Parse wire bytes back into an :class:`Envelope`, strictly.

    Every malformation — bad magic, bad header, duplicate fields,
    unparseable values — raises :class:`ProtocolError` with reason
    ``malformed-message``; a well-formed envelope of a version outside
    :data:`SUPPORTED_PROTOCOL_VERSIONS` raises reason
    ``unsupported-version``.  Nothing else escapes.
    """
    try:
        text = data.decode("utf-8")
    except (UnicodeDecodeError, AttributeError) as exc:
        raise ProtocolError("malformed-message",
                            f"undecodable envelope bytes: {exc}") from exc
    lines = text.split("\n")
    header = lines[0].split(" ")
    if len(header) not in (3, 4) or header[0] != _WIRE_MAGIC:
        raise ProtocolError("malformed-message", "bad envelope header")
    trace_id: str | None = None
    if len(header) == 4:
        if not header[3].startswith("trace=") or header[3] == "trace=":
            raise ProtocolError("malformed-message",
                                f"bad header token {header[3]!r}")
        trace_id = header[3][len("trace="):]
    _, version_tag, msg_type = header[:3]
    if not version_tag.startswith("v") or not version_tag[1:].isdigit():
        raise ProtocolError("malformed-message",
                            f"bad version tag {version_tag!r}")
    version = int(version_tag[1:])
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        raise ProtocolError("unsupported-version",
                            f"envelope version {version} not in "
                            f"{sorted(SUPPORTED_PROTOCOL_VERSIONS)}")
    if not msg_type:
        raise ProtocolError("malformed-message", "empty message type")
    fields: dict = {}
    for line in lines[1:]:
        field_name, sep, value = line.partition("=")
        if not sep or not field_name:
            raise ProtocolError("malformed-message",
                                f"bad field line {line!r}")
        if field_name in fields:
            raise ProtocolError("malformed-message",
                                f"duplicate field {field_name!r}")
        fields[field_name] = _decode_wire_value(value)
    return Envelope(msg_type, fields, version, trace_id)
