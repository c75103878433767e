"""Cookie-extension encoding of TRUST envelopes (paper section IV-B).

    "The FLock module relies on cookie extensions for exchanging data with
    a remote server." (assumption ii)

TRUST messages ride inside ordinary HTTP cookies so that no browser or
proxy changes are needed.  This codec renders an
:class:`~repro.net.message.Envelope` as a ``Cookie:`` header value — one
``trust-*`` attribute per field, values base64url-encoded with a one-byte
type tag — and parses it back.  Round-tripping preserves the envelope
bit-for-bit, so MACs verify across the encoding boundary; tests assert
both that and the size overhead the encoding costs.
"""

from __future__ import annotations

import base64

from .message import Envelope, ProtocolError

__all__ = ["encode_cookie", "decode_cookie", "cookie_size_bytes"]

#: Cookie attribute namespace.
_PREFIX = "trust-"
_TYPE_TAGS = {"b": bytes, "s": str, "i": int, "f": float, "B": bool}


def _encode_value(value) -> str:
    if isinstance(value, bytes):
        tag, raw = "b", value
    elif isinstance(value, bool):
        tag, raw = "B", (b"1" if value else b"0")
    elif isinstance(value, int):
        tag, raw = "i", str(value).encode("ascii")
    elif isinstance(value, float):
        tag, raw = "f", repr(value).encode("ascii")
    elif isinstance(value, str):
        tag, raw = "s", value.encode("utf-8")
    else:
        raise TypeError(f"unsupported cookie value type {type(value).__name__}")
    return tag + base64.urlsafe_b64encode(raw).decode("ascii")


def _decode_value(encoded: str):
    if not encoded:
        raise ProtocolError("malformed-cookie", "empty value")
    tag, payload = encoded[0], encoded[1:]
    if tag not in _TYPE_TAGS:
        raise ProtocolError("malformed-cookie", f"unknown type tag {tag!r}")
    try:
        # validate=True: reject non-alphabet bytes instead of silently
        # discarding them (the default lenient mode would mask tampering).
        # binascii.Error (bad alphabet/padding) and the UnicodeEncodeError
        # from non-ASCII input are both ValueError subclasses.
        raw = base64.b64decode(payload.encode("ascii"), altchars=b"-_",
                               validate=True)
    except ValueError as exc:
        raise ProtocolError("malformed-cookie", str(exc)) from exc
    if tag == "b":
        return raw
    if tag == "B":
        return raw == b"1"
    try:
        # int/float/utf-8 conversions of attacker bytes raise ValueError
        # subclasses (incl. UnicodeDecodeError); surface them all as the
        # protocol-level reject, never a crash.
        if tag == "i":
            return int(raw.decode("ascii"))
        if tag == "f":
            return float(raw.decode("ascii"))
        return raw.decode("utf-8")
    except ValueError as exc:
        raise ProtocolError("malformed-cookie", str(exc)) from exc


def encode_cookie(envelope: Envelope) -> str:
    """Render an envelope as one ``Cookie:`` header value."""
    parts = [f"{_PREFIX}type={_encode_value(envelope.msg_type)}"]
    for field_name in sorted(envelope.fields):
        if "=" in field_name or ";" in field_name or " " in field_name:
            raise ValueError(f"field name {field_name!r} not cookie-safe")
        parts.append(
            f"{_PREFIX}{field_name}={_encode_value(envelope.fields[field_name])}")
    return "; ".join(parts)


def decode_cookie(header: str) -> Envelope:
    """Parse a ``Cookie:`` header value back into an envelope.

    Non-``trust-`` attributes (ordinary site cookies sharing the header)
    are ignored; a missing type attribute, a repeated ``trust-``
    attribute or any malformed one raises :class:`ProtocolError`.
    """
    msg_type: str | None = None
    fields: dict = {}
    seen: set[str] = set()
    for part in header.split(";"):
        part = part.strip()
        if not part or "=" not in part:
            continue
        name, _, encoded = part.partition("=")
        name = name.strip()
        if not name.startswith(_PREFIX):
            continue  # unrelated cookie riding the same header
        if name in seen:
            # Keeping either copy would let one override the other;
            # ``decode_envelope`` refuses a repeated field the same way.
            raise ProtocolError("malformed-cookie", f"repeated {name}")
        seen.add(name)
        field_name = name[len(_PREFIX):]
        value = _decode_value(encoded.strip())
        if field_name == "type":
            if not isinstance(value, str):
                raise ProtocolError("malformed-cookie", "type must be str")
            msg_type = value
        else:
            fields[field_name] = value
    if msg_type is None:
        raise ProtocolError("malformed-cookie", "missing trust-type")
    return Envelope(msg_type, fields)


def cookie_size_bytes(envelope: Envelope) -> int:
    """Wire size of the cookie encoding (for overhead accounting)."""
    return len(encode_cookie(envelope).encode("ascii"))
