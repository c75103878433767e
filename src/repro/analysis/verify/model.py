"""Abstract model of the TRUST protocol stack for the PV4xx checker.

The model mirrors ``repro.net`` at message-handler granularity without
importing it (the analysis package is stdlib-only).  Cryptography is
symbolic: a MAC is the term ``("!mac", key, payload)`` and verification
is literal term equality — exactly the Dolev-Yao idealization.  The
adversary owns the network: every sent message lands in its recorded
``pool``, delivery of any recorded or synthesized message to any server
handler models replay/reorder/redirect, and never delivering one models
a drop.  Its knowledge set is the closure of the pool (see
``properties.close_knowledge``).

Honest protocol runs are *atomic* transitions mirroring the synchronous
:class:`~repro.net.protocol.TrustClient` methods (one transition = one
``TrustClient.login(...)`` call, including the device-side cleanup its
failure paths perform).  Interrupted variants model the adversary
dropping the uplink mid-run.  This keeps the interleaving explosion
bounded while the recorded messages still give the adversary every
replay opportunity the fully asynchronous system would.

``MUTATIONS`` are deliberate protocol breakages used by tests (and the
``--mutate`` CLI flag) to prove the checker finds the bugs this repo
has already fixed: each named mutation removes one guard or cleanup
and must produce a PV4xx counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

__all__ = [
    "Dev", "Sess", "Srv", "World", "VerifyOptions", "Scenario",
    "SCENARIOS", "MUTATIONS", "build_world", "successors", "fmt",
    "canonicalize",
]

# --------------------------------------------------------------- terms
#
# Every value in the model is a nested tuple ("term").  Constructors
# below are the only places term shapes are spelled out.

SRV_SK = ("srv", "sk")          # the server's private RSA key
SRV_PK = ("srv", "pk")
BIO_TPL = ("bio-template",)     # the enrolled biometric template
RESET_PWD = ("reset-password",)  # the out-of-band reset fallback
ATK = ("junk",)                 # an attacker-chosen opaque atom
ATK_PK = ("atkkey", "pk")       # the adversary's own keypair
ATK_SK_PRIV = ("atkkey", "sk")
ATK_SESS = ("sess", "atk")      # a session value the adversary minted


def dev_sk(name: str) -> tuple:
    """The built-in (CA-certified) device key, private half."""
    return ("devcert", name, "sk")


def dev_pk(name: str) -> tuple:
    return ("devcert", name, "pk")


def svc_sk(name: str) -> tuple:
    """The per-service signing key a device mints at registration."""
    return ("svc", name, "sk")


def svc_pk(name: str) -> tuple:
    return ("svc", name, "pk")


def nonce(i: int) -> tuple:
    return ("nonce", i)


def cnonce(i: int) -> tuple:
    return ("cn", i)


def sess_k(i: int) -> tuple:
    """Session key #i — always minted inside a (modelled) FLock."""
    return ("sess", i)


def sid(i: int) -> tuple:
    return ("sid", i)


def mac_term(k: tuple, *payload) -> tuple:
    return ("!mac", k, tuple(payload))


def sig_term(k: tuple, *payload) -> tuple:
    return ("!sig", k, tuple(payload))


def seal_term(pk: tuple, *payload) -> tuple:
    return ("!seal", pk, tuple(payload))


def msg(mtype: str, **fields) -> tuple:
    return ("!msg", mtype, tuple(sorted(fields.items())))


def msg_fields(m: tuple) -> dict:
    return dict(m[2])


def sk_for(pk: tuple) -> tuple:
    """The private half matching a public term (sealing/signing duals)."""
    if pk == SRV_PK:
        return SRV_SK
    if pk == ATK_PK:
        return ATK_SK_PRIV
    if pk and pk[0] in ("devcert", "svc") and pk[-1] == "pk":
        return pk[:-1] + ("sk",)
    return ("no-priv",)


def key_origin(k: tuple) -> str:
    """"dev" for FLock-minted session keys, "atk" otherwise.

    Only devices mint ``("sess", <int>)`` terms, and only inside a
    login that demanded a verified touch — so origin doubles as the
    "was there a fresh verified touch behind this key" bit PV402 needs.
    """
    if isinstance(k, tuple) and len(k) == 2 and k[0] == "sess" \
            and isinstance(k[1], int):
        return "dev"
    return "atk"


def fmt(t) -> str:
    """Compact human rendering of a term for transcripts."""
    if not isinstance(t, tuple) or not t:
        return repr(t)
    tag = t[0]
    if tag == "nonce":
        return f"n{t[1]}"
    if tag == "cn":
        return f"c{t[1]}"
    if tag == "sid":
        return f"s{t[1]}"
    if tag == "sess":
        return "k_atk" if t[1] == "atk" else f"k{t[1]}"
    if t == SRV_PK:
        return "pk_srv"
    if t == SRV_SK:
        return "sk_srv"
    if tag == "svc":
        return f"{t[2]}_svc({t[1]})"
    if tag == "devcert":
        return f"{t[2]}_dev({t[1]})"
    if tag == "atkkey":
        return f"{t[1]}_atk"
    if t == BIO_TPL:
        return "biometric-template"
    if t == RESET_PWD:
        return "reset-password"
    if t == ATK:
        return "junk"
    if tag == "!mac":
        return f"mac[{fmt(t[1])}]"
    if tag == "!sig":
        return f"sig[{fmt(t[1])}]"
    if tag == "!seal":
        inner = ", ".join(fmt(x) for x in t[2])
        return f"seal[{fmt(t[1])}]({inner})"
    if tag == "!msg":
        inner = ", ".join(f"{k}={fmt(v)}" for k, v in t[2])
        return f"{t[1]}({inner})"
    return repr(t)


# --------------------------------------------------------------- state

class Dev(NamedTuple):
    """Abstract device + its FLock, for one account at one service."""

    name: str
    bound: bool          # holds a service record (post-registration)
    svc: tuple | None    # the service public key it can sign under
    sk: tuple | None     # the open FLock session key, if any
    sess: tuple | None   # (sid, next_nonce, pending_challenge | None)
    present: bool        # the genuine user can produce verified touches


class Sess(NamedTuple):
    """One server-side session (webserver.SessionState)."""

    s: tuple             # session id term
    sk: tuple            # the unsealed session key term
    expected: tuple      # the nonce the next request must carry
    pend: tuple | None   # pending challenge nonce, if any
    origin: str          # key_origin() of sk at acceptance time


class Srv(NamedTuple):
    """The abstract web server for one account."""

    bound: tuple | None  # service public key bound to the account
    fresh: frozenset     # outstanding (nonce, purpose) pairs
    sessions: tuple      # Sess tuples, sorted by session id


class World(NamedTuple):
    srv: Srv
    devs: tuple          # Dev tuples, fixed order
    pool: frozenset      # every message ever sent (the adversary's tape)
    counters: tuple      # fresh-id counters: (nonce, cn, sess, sid)


_C_NONCE, _C_CN, _C_SESS, _C_SID = range(4)

#: At most this many unconsumed page nonces per purpose; mirrors a real
#: server expiring stale pages and keeps the fresh-mint branching finite.
_MAX_OUTSTANDING_PAGES = 2

#: Concurrent-session cap per account (a real server would enforce one
#: too); bounds the session dimension of the state space.
_MAX_SESSIONS = 2

#: Abstract risk levels: 0 = clean, 6 = challenge-worthy (> 0.5 scaled),
#: 9 = termination-worthy (> 0.75 scaled).
RISK_OK, RISK_CHALLENGE, RISK_TERMINATE = 0, 6, 9

MUTATIONS: dict[str, str] = {
    "skip-login-signature-check":
        "_serve_login omits the bound-device-key signature check",
    "skip-replay-check":
        "the server accepts stale/replayed session nonces",
    "skip-attestation-check":
        "_serve_challenge_response omits the FLock attestation check",
    "keep-sessions-on-reset":
        "reset_identity leaves the account's live sessions running",
    "keep-old-device-records":
        "transfer_identity leaves the old device's records in place",
    "plaintext-transfer-bundle":
        "transfer_identity ships the identity bundle unencrypted",
    "keep-key-on-login-failure":
        "login failure paths keep the FLock session key open",
}


@dataclass(frozen=True)
class VerifyOptions:
    """Exploration knobs for one scenario run."""

    depth: int = 12
    max_states: int = 150_000
    adversary: bool = True
    malware: bool = True          # session-MAC oracle on infected hosts
    mutations: frozenset = frozenset()
    actions: frozenset = frozenset(
        {"register", "login", "request", "answer", "reset", "transfer"})
    risks: tuple = (RISK_OK,)


# --------------------------------------------------- state manipulation

def _set_dev(world: World, i: int, dev: Dev) -> World:
    devs = list(world.devs)
    devs[i] = dev
    return world._replace(devs=tuple(devs))


def _set_srv(world: World, **kw) -> World:
    return world._replace(srv=world.srv._replace(**kw))


def _fresh(world: World, kind: int) -> tuple[World, int]:
    counters = list(world.counters)
    value = counters[kind]
    counters[kind] = value + 1
    return world._replace(counters=tuple(counters)), value


def _fresh_nonce(world: World, purpose) -> tuple[World, tuple]:
    world, i = _fresh(world, _C_NONCE)
    n = nonce(i)
    world = _set_srv(world, fresh=world.srv.fresh | {(n, purpose)})
    return world, n


def _consume(world: World, n: tuple, purpose) -> World:
    return _set_srv(world, fresh=world.srv.fresh - {(n, purpose)})


def _record(world: World, *messages: tuple) -> World:
    return world._replace(pool=world.pool | set(messages))


def _record_spent(world: World, m: tuple, opts: VerifyOptions) -> World:
    """Record a submission whose one-shot nonce was just consumed.

    Once its nonce is spent the message is permanently rejectable: a
    future replay is a guaranteed no-op and its fields hold no secrets,
    so keeping it only multiplies otherwise-identical worlds.  Under
    the ``skip-replay-check`` mutation the replay *would* be accepted,
    so there (and only there) the spent copy stays on the tape.
    """
    if "skip-replay-check" in opts.mutations:
        return _record(world, m)
    return world


def _put_sess(world: World, sess: Sess) -> World:
    rest = tuple(x for x in world.srv.sessions if x.s != sess.s)
    ordered = tuple(sorted(rest + (sess,), key=lambda x: x.s[1]
                           if isinstance(x.s[1], int) else -1))
    return _set_srv(world, sessions=ordered)


def _drop_sess(world: World, s: tuple) -> World:
    keep = []
    fresh = world.srv.fresh
    for x in world.srv.sessions:
        if x.s == s:
            fresh = fresh - {(x.expected, ("s", x.s))}
        else:
            keep.append(x)
    return _set_srv(world, sessions=tuple(keep), fresh=fresh)


def _find_sess(world: World, s) -> Sess | None:
    for x in world.srv.sessions:
        if x.s == s:
            return x
    return None


def _outstanding_pages(world: World, purpose: str) -> int:
    return sum(1 for _n, p in world.srv.fresh if p == purpose)


def _guard(ok: bool, mutation: str | None, opts: VerifyOptions,
           events: list, handler: str, name: str) -> bool:
    """Evaluate one verification guard.

    The guard is always *evaluated*; an enabled mutation only skips
    *enforcement*, emitting a ``forged-accept`` event so PV403 can flag
    every acceptance that real verification would have rejected.
    """
    if ok:
        return True
    if mutation is not None and mutation in opts.mutations:
        events.append(("forged-accept", handler, name))
        return True
    return False


# ------------------------------------------------------ server handlers
#
# Each mirrors one WebServer handler: (world, message, events, opts) ->
# (world, reply | None, kind).  Guard order matches the real code.  A
# rejected message returns the world unchanged apart from state the real
# handler also mutates before the failing check (consumed nonces).

def _srv_login(world: World, m: tuple, events: list,
               opts: VerifyOptions) -> tuple[World, tuple | None, str]:
    f = msg_fields(m)
    n = f["n"]
    if world.srv.bound is None:
        return world, None, "reject"
    if not _guard((n, "login") in world.srv.fresh, "skip-replay-check",
                  opts, events, "_serve_login", "nonce-freshness"):
        return world, None, "reject"
    # _serve_login consumes the nonce before the MAC/signature checks.
    world = _consume(world, n, "login")
    sealed = f["sealed"]
    if not (isinstance(sealed, tuple) and sealed[0] == "!seal"
            and sealed[1] == SRV_PK and len(sealed[2]) == 1):
        return world, None, "reject"
    k = sealed[2][0]
    dsig = f["dsig"]
    if f["auth"] != mac_term(k, "login", n, sealed, dsig, f["risk"]):
        return world, None, "reject"
    if not _guard(dsig == sig_term(sk_for(world.srv.bound),
                                   "login", n, sealed),
                  "skip-login-signature-check", opts, events,
                  "_serve_login", "device-signature"):
        return world, None, "reject"
    if f["risk"] > 7:
        return world, None, "reject"
    if len(world.srv.sessions) >= _MAX_SESSIONS:
        return world, None, "reject"
    world, si = _fresh(world, _C_SID)
    s = sid(si)
    world, n2 = _fresh_nonce(world, ("s", s))
    world = _put_sess(world, Sess(s, k, n2, None, key_origin(k)))
    reply = msg("content", s=s, n=n2, auth=mac_term(k, "content", s, n2))
    return world, reply, "content"


def _srv_request(world: World, m: tuple, events: list,
                 opts: VerifyOptions) -> tuple[World, tuple | None, str]:
    f = msg_fields(m)
    s = f["s"]
    sess = _find_sess(world, s)
    if sess is None:
        return world, None, "reject"
    if not _guard(f["n"] == sess.expected, "skip-replay-check", opts,
                  events, "_serve_request", "nonce"):
        return world, None, "reject"
    if f["auth"] != mac_term(sess.sk, "req", s, f["n"], f["risk"]):
        return world, None, "reject"
    world = _consume(world, sess.expected, ("s", s))
    if f["risk"] > 7:
        world = _drop_sess(world, s)
        return world, None, "terminated"
    world, n2 = _fresh_nonce(world, ("s", s))
    pend = sess.pend
    if pend is not None or f["risk"] > 5:
        if pend is None:
            world, ci = _fresh(world, _C_CN)
            pend = cnonce(ci)
        world = _put_sess(world, sess._replace(expected=n2, pend=pend))
        reply = msg("challenge", s=s, n=n2, cn=pend,
                    auth=mac_term(sess.sk, "chal", s, n2, pend))
        return _record(world, reply), reply, "challenge"
    world = _put_sess(world, sess._replace(expected=n2))
    reply = msg("content", s=s, n=n2,
                auth=mac_term(sess.sk, "content", s, n2))
    return world, reply, "content"


def _srv_answer(world: World, m: tuple, events: list,
                opts: VerifyOptions) -> tuple[World, tuple | None, str]:
    f = msg_fields(m)
    s = f["s"]
    sess = _find_sess(world, s)
    if sess is None:
        return world, None, "reject"
    if sess.pend is None:
        if not _guard(False, "skip-replay-check", opts, events,
                      "_serve_challenge_response", "no-challenge-pending"):
            return world, None, "reject"
    if not _guard(f["n"] == sess.expected, "skip-replay-check", opts,
                  events, "_serve_challenge_response", "nonce"):
        return world, None, "reject"
    if f["auth"] != mac_term(sess.sk, "resp", s, f["n"], f["att"]):
        return world, None, "reject"
    genuine = (sess.pend is not None
               and f["att"] == mac_term(sess.sk, "attest", sess.pend))
    if not _guard(genuine, "skip-attestation-check", opts, events,
                  "_serve_challenge_response", "attestation"):
        return world, None, "reject"
    events.append(("challenge-cleared", "genuine" if genuine else "forged"))
    world = _consume(world, sess.expected, ("s", s))
    world, n2 = _fresh_nonce(world, ("s", s))
    world = _put_sess(world, sess._replace(expected=n2, pend=None))
    reply = msg("content", s=s, n=n2,
                auth=mac_term(sess.sk, "content", s, n2))
    return world, reply, "content"


def _srv_register(world: World, m: tuple, events: list,
                  opts: VerifyOptions) -> tuple[World, tuple | None, str]:
    f = msg_fields(m)
    n = f["n"]
    if world.srv.bound is not None:
        return world, None, "reject"
    if (n, "reg") not in world.srv.fresh:
        return world, None, "reject"
    world = _consume(world, n, "reg")
    pk = f["pk"]
    # The submission must be signed by the CA-certified device key of
    # the device that minted pk — term equality models cert + signature.
    signer = ("no-signer",)
    if isinstance(pk, tuple) and pk[0] == "svc":
        signer = dev_sk(pk[1])
    if f["auth"] != sig_term(signer, "reg-submit", n, pk):
        return world, None, "reject"
    world = _set_srv(world, bound=pk)
    reply = msg("reg-ack", pk=pk, auth=sig_term(SRV_SK, "reg-ack", pk))
    return world, reply, "content"


_HANDLERS = {
    "login-submit": ("adv-login", _srv_login),
    "page-request": ("adv-request", _srv_request),
    "chal-resp": ("adv-answer", _srv_answer),
    "reg-submit": ("adv-register", _srv_register),
}


# ----------------------------------------------------- honest protocol
#
# Atomic round-trips mirroring repro.net.protocol orchestrations,
# including the device-side cleanup their failure paths perform.

def _do_register(world: World, i: int, opts: VerifyOptions,
                 deliver: bool = True) -> tuple[World, tuple, tuple]:
    events: list = []
    d = world.devs[i]
    world, n = _fresh_nonce(world, "reg")
    page = msg("reg-page", n=n, auth=sig_term(SRV_SK, "reg-page", n))
    lines = [f"server -> {d.name}: {fmt(page)}"]
    # Device: verify the server signature (valid), render, verified
    # touch (user present), mint the service keypair, store the record.
    # Per the real code the record is stored *before* the submission is
    # sent, so a dropped submission leaves the device bound one-sidedly.
    world = _set_dev(world, i, d._replace(bound=True, svc=svc_pk(d.name)))
    sub = msg("reg-submit", n=n, pk=svc_pk(d.name),
              auth=sig_term(dev_sk(d.name), "reg-submit", n, svc_pk(d.name)))
    lines.append(f"{d.name} -> server: {fmt(sub)} [verified touch]")
    if deliver:
        world = _record_spent(world, sub, opts)
        world, reply, _kind = _srv_register(world, sub, events, opts)
        if reply is not None:
            lines.append(f"server -> {d.name}: {fmt(reply)}")
        else:
            lines.append(f"server rejects the registration of {d.name}")
    else:
        world = _record(world, sub)
        lines.append("adversary drops the submission (device now bound, "
                     "server not)")
    return world, tuple(events), tuple(lines)


def _do_login(world: World, i: int, opts: VerifyOptions,
              page: tuple | None = None, risk: int = RISK_OK,
              deliver: bool = True) -> tuple[World, tuple, tuple]:
    events: list = []
    d = world.devs[i]
    lines = []
    if page is None:
        world, n = _fresh_nonce(world, "login")
        page = msg("login-page", n=n,
                   auth=sig_term(SRV_SK, "login-page", n))
        world = _record(world, page)
        lines.append(f"server -> {d.name}: {fmt(page)}")
    else:
        n = msg_fields(page)["n"]
        lines.append(f"adversary -> {d.name}: replayed {fmt(page)}")
    # Device: server signature on the page is genuine either way; a
    # verified touch gates the submission; FLock mints the session key
    # and seals it for the server.
    world, ki = _fresh(world, _C_SESS)
    k = sess_k(ki)
    sealed = seal_term(SRV_PK, k)
    dsig = sig_term(sk_for(d.svc), "login", n, sealed)
    sub = msg("login-submit", n=n, sealed=sealed, dsig=dsig, risk=risk,
              auth=mac_term(k, "login", n, sealed, dsig, risk))
    world = _set_dev(world, i, d._replace(sk=k))
    lines.append(f"{d.name} -> server: {fmt(sub)} [verified touch]")
    reply = None
    if deliver:
        world = _record_spent(world, sub, opts)
        world, reply, _kind = _srv_login(world, sub, events, opts)
    else:
        world = _record(world, sub)
        lines.append("adversary drops the submission")
    d = world.devs[i]
    if reply is not None:
        rf = msg_fields(reply)
        world = _set_dev(world, i,
                         d._replace(sess=(rf["s"], rf["n"], None)))
        lines.append(f"server -> {d.name}: {fmt(reply)}")
    else:
        # Every login failure path closes the FLock session (the fix
        # the keep-key mutation reverts).
        if "keep-key-on-login-failure" not in opts.mutations:
            world = _set_dev(world, i, d._replace(sk=None))
            lines.append(f"{d.name}: login failed; FLock session closed")
        else:
            lines.append(f"{d.name}: login failed; FLock session key "
                         "left open (mutated)")
    return world, tuple(events), tuple(lines)


def _do_request(world: World, i: int,
                opts: VerifyOptions, risk: int) -> tuple[World, tuple, tuple]:
    events: list = []
    d = world.devs[i]
    s, n_next, pend = d.sess
    req = msg("page-request", s=s, n=n_next, risk=risk,
              auth=mac_term(d.sk, "req", s, n_next, risk))
    world = _record_spent(world, req, opts)
    lines = [f"{d.name} -> server: {fmt(req)}"]
    world, reply, kind = _srv_request(world, req, events, opts)
    d = world.devs[i]
    if kind == "terminated":
        # risk-too-high: the orchestration closes the device side too.
        world = _set_dev(world, i, d._replace(sk=None, sess=None))
        lines.append(f"server terminates {fmt(s)} (risk {risk}); "
                     f"{d.name} closes its FLock session")
    elif kind == "challenge":
        rf = msg_fields(reply)
        world = _set_dev(world, i,
                         d._replace(sess=(s, rf["n"], rf["cn"])))
        lines.append(f"server -> {d.name}: {fmt(reply)} "
                     "[content withheld]")
    elif kind == "content":
        rf = msg_fields(reply)
        world = _set_dev(world, i, d._replace(sess=(s, rf["n"], pend)))
        lines.append(f"server -> {d.name}: {fmt(reply)}")
    else:
        lines.append(f"server rejects the request on {fmt(s)}")
    return world, tuple(events), tuple(lines)


def _do_answer(world: World, i: int,
               opts: VerifyOptions) -> tuple[World, tuple, tuple]:
    events: list = []
    d = world.devs[i]
    s, n_next, cn = d.sess
    # A verified touch is required before FLock attests (user present).
    att = mac_term(d.sk, "attest", cn)
    resp = msg("chal-resp", s=s, n=n_next, att=att,
               auth=mac_term(d.sk, "resp", s, n_next, att))
    world = _record_spent(world, resp, opts)
    lines = [f"{d.name} -> server: {fmt(resp)} [verified touch, "
             "FLock attestation]"]
    world, reply, kind = _srv_answer(world, resp, events, opts)
    d = world.devs[i]
    if kind == "content":
        rf = msg_fields(reply)
        world = _set_dev(world, i, d._replace(sess=(s, rf["n"], None)))
        lines.append(f"server -> {d.name}: {fmt(reply)} "
                     "[challenge cleared]")
    else:
        lines.append(f"server rejects the challenge answer on {fmt(s)}")
    return world, tuple(events), tuple(lines)


def _do_reset(world: World,
              opts: VerifyOptions) -> tuple[World, tuple, tuple]:
    lines = ["user -> server: identity reset "
             "(password fallback, out of band)"]
    sessions = world.srv.sessions
    fresh = world.srv.fresh
    if "keep-sessions-on-reset" not in opts.mutations:
        for sess in sessions:
            fresh = fresh - {(sess.expected, ("s", sess.s))}
        lines.append(f"server drops the key binding and terminates "
                     f"{len(sessions)} live session(s)")
        sessions = ()
    else:
        lines.append("server drops the key binding but keeps "
                     f"{len(sessions)} live session(s) running (mutated)")
    world = _set_srv(world, bound=None, sessions=sessions, fresh=fresh)
    return world, (), tuple(lines)


def _do_transfer(world: World, i: int, j: int,
                 opts: VerifyOptions) -> tuple[World, tuple, tuple]:
    a = world.devs[i]
    b = world.devs[j]
    moved_sk = sk_for(a.svc)
    if "plaintext-transfer-bundle" in opts.mutations:
        bundle = msg("xfer", sk0=moved_sk, tpl=BIO_TPL)
        note = " (unencrypted, mutated)"
    else:
        bundle = msg("xfer", blob=seal_term(dev_pk(b.name),
                                            moved_sk, BIO_TPL))
        note = ""
    world = _record(world, bundle)
    lines = [f"{a.name} -> {b.name}: {fmt(bundle)}{note} "
             "[verified touch authorizes the export]",
             f"{b.name} imports the service record"]
    world = _set_dev(world, j, b._replace(bound=True, svc=a.svc))
    if "keep-old-device-records" not in opts.mutations:
        world = _set_dev(world, i, world.devs[i]._replace(
            bound=False, svc=None, sk=None, sess=None))
        lines.append(f"{a.name} retires its record and closes its "
                     "sessions")
    else:
        lines.append(f"{a.name} keeps its record and sessions (mutated)")
    return world, (), tuple(lines)


# ----------------------------------------------------------- successors

def successors(world: World, opts: VerifyOptions
               ) -> Iterator[tuple[str, str, World, tuple, tuple]]:
    """Every enabled transition: (kind, label, world', events, lines)."""
    yield from _honest_successors(world, opts)
    if opts.adversary:
        yield from _adversary_successors(world, opts)


def _honest_successors(world, opts):
    srv = world.srv
    for i, d in enumerate(world.devs):
        if ("register" in opts.actions and d.present and not d.bound
                and srv.bound is None
                and _outstanding_pages(world, "reg")
                < _MAX_OUTSTANDING_PAGES):
            w2, ev, lines = _do_register(world, i, opts)
            yield ("register", f"register({d.name})", w2, ev, lines)
            w2, ev, lines = _do_register(world, i, opts, deliver=False)
            yield ("register", f"register({d.name}) interrupted",
                   w2, ev, lines)
        if ("login" in opts.actions and d.present and d.bound
                and d.sk is None and d.sess is None):
            if _outstanding_pages(world, "login") < _MAX_OUTSTANDING_PAGES:
                for risk in opts.risks:
                    if risk == RISK_CHALLENGE:
                        continue  # login risk is pass/terminate only
                    w2, ev, lines = _do_login(world, i, opts, risk=risk)
                    yield ("login", f"login({d.name}, risk={risk})",
                           w2, ev, lines)
                w2, ev, lines = _do_login(world, i, opts, deliver=False)
                yield ("login", f"login({d.name}) interrupted",
                       w2, ev, lines)
            if opts.adversary:
                for page in _pool_sorted(world, "login-page"):
                    w2, ev, lines = _do_login(world, i, opts, page=page)
                    yield ("login",
                           f"login({d.name}) on a replayed page",
                           w2, ev, lines)
        if ("request" in opts.actions and d.sess is not None
                and d.sess[2] is None and d.sk is not None):
            for risk in opts.risks:
                w2, ev, lines = _do_request(world, i, opts, risk)
                yield ("request", f"request({d.name}, risk={risk})",
                       w2, ev, lines)
        if ("answer" in opts.actions and d.present and d.sk is not None
                and d.sess is not None and d.sess[2] is not None):
            w2, ev, lines = _do_answer(world, i, opts)
            yield ("answer", f"answer({d.name})", w2, ev, lines)
        if "transfer" in opts.actions and d.present and d.bound:
            for j, other in enumerate(world.devs):
                if j != i and not other.bound:
                    w2, ev, lines = _do_transfer(world, i, j, opts)
                    yield ("transfer",
                           f"transfer({d.name} -> {other.name})",
                           w2, ev, lines)
    if "reset" in opts.actions and srv.bound is not None:
        w2, ev, lines = _do_reset(world, opts)
        yield ("reset", "reset", w2, ev, lines)


def _pool_sorted(world, mtype):
    return sorted((m for m in world.pool if m[1] == mtype), key=repr)


def _adversary_successors(world, opts):
    # Replay: any recorded to-server message to its handler.
    for m in sorted(world.pool, key=repr):
        entry = _HANDLERS.get(m[1])
        if entry is None:
            continue
        kind, handler = entry
        events: list = []
        w2, _reply, verdict = handler(world, m, events, opts)
        lines = (f"adversary -> server: replayed {fmt(m)}",
                 f"server verdict: {verdict}")
        yield (kind, f"adv-replay({m[1]})", w2, tuple(events), lines)
    # Synthesis: login submissions built from the adversary's knowledge
    # (its own session value sealed for the server, recomputed MAC, and
    # either junk or a lifted signature in the dsig slot).
    observed_sigs = sorted(
        {msg_fields(m)["dsig"] for m in world.pool
         if m[1] == "login-submit"}, key=repr)
    for n, purpose in sorted(world.srv.fresh, key=repr):
        if purpose != "login":
            continue
        sealed = seal_term(SRV_PK, ATK_SESS)
        for dsig in [ATK] + observed_sigs:
            forged = msg("login-submit", n=n, sealed=sealed, dsig=dsig,
                         risk=RISK_OK,
                         auth=mac_term(ATK_SESS, "login", n, sealed,
                                       dsig, RISK_OK))
            events = []
            w2, _reply, verdict = _srv_login(world, forged, events, opts)
            lines = (f"adversary -> server: forged {fmt(forged)}",
                     f"server verdict: {verdict}")
            yield ("adv-login", "adv-forge(login-submit)", w2,
                   tuple(events), lines)
    # Synthesis: registration submissions with the adversary's key
    # swapped in (the lifted signature cannot cover it).
    for m in _pool_sorted(world, "reg-submit"):
        f = msg_fields(m)
        forged = msg("reg-submit", n=f["n"], pk=ATK_PK, auth=f["auth"])
        events = []
        w2, _reply, verdict = _srv_register(world, forged, events, opts)
        lines = (f"adversary -> server: forged {fmt(forged)}",
                 f"server verdict: {verdict}")
        yield ("adv-register", "adv-forge(reg-submit)", w2,
               tuple(events), lines)
    # Reorder against the device: an old challenge for the same session
    # carries a valid MAC, so the device accepts it and desyncs.
    for m in _pool_sorted(world, "challenge"):
        f = msg_fields(m)
        for i, d in enumerate(world.devs):
            if (d.sess is not None and d.sk is not None
                    and d.sess[0] == f["s"]
                    and (d.sess[1], d.sess[2]) != (f["n"], f["cn"])):
                w2 = _set_dev(world, i,
                              d._replace(sess=(f["s"], f["n"], f["cn"])))
                lines = (f"adversary -> {d.name}: out-of-order "
                         f"{fmt(m)}",
                         f"{d.name} accepts the stale challenge "
                         "(MAC verifies) and desyncs")
                yield ("adv-channel", "adv-reorder(challenge)", w2, (),
                       lines)
    # Malware on the host: the FLock session_mac oracle will MAC any
    # payload except attestations, so a forged challenge answer carries
    # a valid MAC but junk in the attestation slot.
    if opts.malware:
        for i, d in enumerate(world.devs):
            if (d.sess is not None and d.sk is not None
                    and d.sess[2] is not None):
                s, n_next, _cn = d.sess
                forged = msg("chal-resp", s=s, n=n_next, att=ATK,
                             auth=mac_term(d.sk, "resp", s, n_next, ATK))
                events = []
                w2, _reply, verdict = _srv_answer(world, forged, events,
                                                  opts)
                lines = (f"malware on {d.name} -> server: forged "
                         f"{fmt(forged)} (session-MAC oracle)",
                         f"server verdict: {verdict}")
                yield ("malware", "malware-forge(chal-resp)", w2,
                       tuple(events), lines)


# -------------------------------------------------------- canonical form
#
# Fresh-id allocation order is an artifact of the path taken, not of the
# protocol state: two worlds differing only by a bijective renaming of
# nonce/cn/sess/sid integers behave identically forever.  Renumbering
# ids in first-encounter order over a deterministic traversal collapses
# those isomorphic worlds, which is what keeps the login scenario's BFS
# from exploding in minted-key serial numbers.

_ID_TAGS = ("nonce", "cn", "sess", "sid")


def canonicalize(world: World) -> World:
    mapping: dict = {}
    counts = {tag: 0 for tag in _ID_TAGS}

    def ren(t):
        if not isinstance(t, tuple):
            return t
        if (len(t) == 2 and t[0] in counts and isinstance(t[1], int)):
            if t not in mapping:
                mapping[t] = (t[0], counts[t[0]])
                counts[t[0]] += 1
            return mapping[t]
        return tuple(ren(x) for x in t)

    # Deterministic encounter order: devices, server, then the pool
    # (sets sorted by their pre-renaming repr).
    devs = tuple(Dev(d.name, d.bound, ren(d.svc), ren(d.sk),
                     ren(d.sess), d.present) for d in world.devs)
    bound = ren(world.srv.bound)
    sessions = tuple(sorted(
        (Sess(ren(x.s), ren(x.sk), ren(x.expected), ren(x.pend),
              x.origin) for x in world.srv.sessions),
        key=lambda x: x.s[1]))
    fresh = frozenset(ren(pair) for pair in
                      sorted(world.srv.fresh, key=repr))
    pool = frozenset(ren(m) for m in sorted(world.pool, key=repr))
    counters = tuple(counts[tag] for tag in _ID_TAGS)
    return World(Srv(bound, fresh, sessions), devs, pool, counters)


# ------------------------------------------------------------ scenarios

@dataclass(frozen=True)
class Scenario:
    """One verification entry point: start state + allowed actions."""

    name: str
    entry: str          # the repro.net callable this scenario enters at
    description: str
    devices: tuple
    setup: tuple        # honest steps applied (unmutated) to build state
    actions: frozenset
    risks: tuple


SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario("register", "TrustClient.register",
             "Fig. 9 binding from a blank device",
             ("A",), (),
             frozenset({"register"}), (RISK_OK,)),
    Scenario("login", "TrustClient.login",
             "Fig. 10 login against a bound account",
             ("A",), ("register:A",),
             frozenset({"login", "request"}), (RISK_OK, RISK_TERMINATE)),
    Scenario("session", "TrustClient.request",
             "post-login continuous requests at every risk level",
             ("A",), ("register:A", "login:A"),
             frozenset({"request", "answer"}),
             (RISK_OK, RISK_CHALLENGE, RISK_TERMINATE)),
    Scenario("challenge", "TrustClient.answer_challenge",
             "a pending re-authentication challenge",
             ("A",), ("register:A", "login:A", "challenge:A"),
             frozenset({"request", "answer"}),
             (RISK_OK, RISK_CHALLENGE)),
    Scenario("reset", "reset_identity",
             "identity reset with a live session",
             ("A",), ("register:A", "login:A"),
             frozenset({"reset", "login", "request", "register"}),
             (RISK_OK,)),
    Scenario("transfer", "transfer_identity",
             "identity transfer to a second device",
             ("A", "B"), ("register:A", "login:A"),
             frozenset({"transfer", "login", "request", "reset"}),
             (RISK_OK,)),
)}

#: Setup always runs against the *unmutated* protocol: mutations model
#: a broken implementation under test, not a corrupted start state.
_SETUP_OPTS = VerifyOptions(adversary=False, malware=False)


def build_world(scenario: Scenario) -> World:
    """The scenario's initial world, built by running its setup steps."""
    devs = tuple(Dev(name, False, None, None, None, True)
                 for name in scenario.devices)
    world = World(Srv(None, frozenset(), ()), devs, frozenset(),
                  (0, 0, 0, 0))
    index = {name: i for i, name in enumerate(scenario.devices)}
    for step in scenario.setup:
        op, _, name = step.partition(":")
        i = index[name]
        if op == "register":
            world, _, _ = _do_register(world, i, _SETUP_OPTS)
        elif op == "login":
            world, _, _ = _do_login(world, i, _SETUP_OPTS)
        elif op == "challenge":
            world, _, _ = _do_request(world, i, _SETUP_OPTS,
                                      RISK_CHALLENGE)
        else:  # pragma: no cover - setup steps are spelled above
            raise ValueError(f"unknown setup step {step!r}")
    return world
