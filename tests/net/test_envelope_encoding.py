"""The encoding an envelope keeps between ``signed_bytes()`` calls.

An envelope encodes its MAC input once and keeps those bytes until what it
says changes.  Every way to change it must drop them: a MAC verified over
bytes the envelope no longer holds would accept a tampered message.  Each
case below signs a request under the session key, lets the first
``signed_bytes()`` call keep its encoding, changes the envelope one way,
and requires fresh bytes and a ``bad-mac`` rejection from the server.
"""

import numpy as np
import pytest

import repro.net.message as message
from repro.net import (
    MSG_CONTENT_PAGE,
    MSG_PAGE_REQUEST,
    Envelope,
    ProtocolError,
    TrustClient,
    canonical_payload,
)
from repro.runtime import FleetConfig, FleetSimulation
from .conftest import BUTTON_XY


def fresh_bytes(envelope: Envelope) -> bytes:
    """The MAC input encoded from scratch, as the v1 format defines it."""
    return (envelope.msg_type.encode() + b"\n"
            + canonical_payload(envelope.fields))


@pytest.fixture()
def session(deployment, channel, alice_master):
    device, server = deployment
    outcome = TrustClient(device, server, channel).login(
        "alice", BUTTON_XY, alice_master, np.random.default_rng(21))
    assert outcome.success, outcome.reason
    yield outcome.session
    device.flock.close_session(server.domain)


def signed_request(device, session, msg_type=MSG_PAGE_REQUEST) -> Envelope:
    """A well-formed request MACed under the session key.

    ``mac`` comes first so that ``popitem()`` takes a covered field, and
    ``note`` is a covered field the server does not require.
    """
    request = Envelope(msg_type, {
        "mac": b"",
        "account": session.account,
        "session": session.session_id,
        "nonce": session.next_nonce,
        "frame_hash": device.flock.current_frame_hash,
        "risk": 0.1,
        "note": "signed",
    })
    return request.set_mac(device.flock.session_mac(session.domain,
                                                    request.signed_bytes()))


def _set_item(envelope):
    envelope.fields["risk"] = 0.0


def _del_item(envelope):
    del envelope.fields["note"]


def _pop(envelope):
    envelope.fields.pop("note")


def _popitem(envelope):
    assert envelope.fields.popitem() == ("note", "signed")


def _update(envelope):
    envelope.fields.update(risk=0.0)


def _setdefault(envelope):
    envelope.fields.setdefault("added", "unsigned")


def _clear(envelope):
    kept = dict(envelope.fields)
    envelope.fields.clear()
    # Refill through dict's own method, which leaves a kept encoding as it
    # is: only clear() can have dropped it.
    dict.update(envelope.fields, kept, risk=0.0)


def _ior(envelope):
    envelope.fields |= {"risk": 0.0}


def _reassign_fields(envelope):
    envelope.fields = {**envelope.fields, "risk": 0.0}


MUTATIONS = [_set_item, _del_item, _pop, _popitem, _update, _setdefault,
             _clear, _ior, _reassign_fields]


class TestEveryChangeDropsTheEncoding:
    @pytest.mark.parametrize("change", MUTATIONS,
                             ids=lambda change: change.__name__.strip("_"))
    def test_changed_request_is_encoded_afresh_and_rejected(
            self, deployment, session, change):
        device, server = deployment
        request = signed_request(device, session)
        signed = request.signed_bytes()
        change(request)
        assert request.signed_bytes() == fresh_bytes(request) != signed
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(request)
        assert exc_info.value.reason == "bad-mac"

    def test_retyped_request_is_encoded_afresh_and_rejected(
            self, deployment, session):
        """A MAC made for one message type does not carry to another."""
        device, server = deployment
        request = signed_request(device, session, msg_type=MSG_CONTENT_PAGE)
        signed = request.signed_bytes()
        request.msg_type = MSG_PAGE_REQUEST
        assert request.signed_bytes() == fresh_bytes(request) != signed
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(request)
        assert exc_info.value.reason == "bad-mac"

    def test_a_reassigned_plain_dict_is_read_on_every_call(self):
        envelope = Envelope("t", {"x": 1})
        envelope.fields = {"x": 2}
        first = envelope.signed_bytes()
        envelope.fields["x"] = 3
        assert envelope.signed_bytes() == fresh_bytes(envelope) != first

    def test_the_unchanged_request_is_accepted(self, deployment, session):
        """The control: without a change, the same request is served."""
        device, server = deployment
        request = signed_request(device, session)
        request.signed_bytes()
        page = server.dispatch(request)
        assert page.msg_type == MSG_CONTENT_PAGE
        session.next_nonce = page.fields["nonce"]


class TestWhatKeepsTheEncoding:
    def test_setting_the_mac_keeps_it(self):
        envelope = Envelope("t", {"x": 1})
        kept = envelope.signed_bytes()
        envelope.set_mac(b"\x01" * 32)
        assert envelope.signed_bytes() is kept
        envelope.fields["mac"] = b"\x02" * 32
        assert envelope.signed_bytes() is kept
        assert kept == fresh_bytes(envelope)

    def test_a_copy_starts_with_the_bytes_and_changes_alone(self):
        original = Envelope("t", {"x": 1, "y": b"\x00"})
        kept = original.signed_bytes()
        clone = original.copy()
        assert clone.signed_bytes() is kept
        clone.fields["x"] = 2
        assert original.signed_bytes() is kept
        assert clone.signed_bytes() == fresh_bytes(clone) != kept
        original.fields.pop("y")
        assert clone.signed_bytes() == fresh_bytes(clone)
        assert original.signed_bytes() == fresh_bytes(original)

    def test_constructor_copies_a_plain_dict(self):
        fields = {"x": 1}
        envelope = Envelope("t", fields)
        envelope.signed_bytes()
        fields["x"] = 2
        assert envelope.fields == {"x": 1}
        assert envelope.signed_bytes() == fresh_bytes(envelope)

    def test_equality_and_repr_read_the_fields_alone(self):
        envelope = Envelope("t", {"x": 1})
        other = Envelope("t", {"x": 1})
        envelope.signed_bytes()
        assert envelope == other
        assert envelope == Envelope("t", dict(envelope.fields))
        assert repr(envelope) == repr(other) == (
            "Envelope(msg_type='t', fields={'x': 1}, version=1, "
            "trace_id=None)")


#: A fleet whose every operation succeeds or is challenged.
COUNTED = FleetConfig(n_devices=12, n_shards=2, seed=11,
                      requests_per_device=4, challenge_fraction=0.25,
                      hijack_fraction=0.0, batch_count=2,
                      keypair_pool_size=2, ramp_s=5.0)

#: Encodings each outcome needs, one per envelope state that is signed,
#: verified or sized:
#: - register: the page, the submission and the ack;
#: - login: the page, the submission before and after its signature field,
#:   the server's signature-free view of it, and the content page;
#: - request, challenge: the message and its reply.
ENCODINGS = {("register", "ok"): 3, ("login", "ok"): 5,
             ("request", "ok"): 2, ("request", "challenge-required"): 2,
             ("challenge", "ok"): 2}


def test_a_fleet_encodes_each_envelope_once(monkeypatch):
    """Channel copies, byte counts and verifies reuse the sender's bytes."""
    calls = []

    def counted(fields):
        calls.append(1)
        return canonical_payload(fields)

    monkeypatch.setattr(message, "canonical_payload", counted)
    result = FleetSimulation(COUNTED).run()
    outcomes = result.metrics.registry.snapshot()["fleet.interactions"]
    counts = {(series["labels"]["op"], series["labels"]["reason"]):
              series["value"] for series in outcomes["series"]}
    assert set(counts) <= set(ENCODINGS), counts
    assert counts["request", "challenge-required"] > 0
    expected = sum(ENCODINGS[key] * count for key, count in counts.items())
    assert len(calls) == expected
