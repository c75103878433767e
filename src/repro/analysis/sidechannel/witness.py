"""Dynamic branch-trace equivalence witness for the SC8xx rules.

The static pass proves the *absence of secret-dependent control flow*
up to its model; this harness checks the same property dynamically,
dudect-style but deterministic: run each constant-time primitive on a
crafted pair of secret inputs chosen to maximally diverge under a
naive implementation (equal tag vs. tag broken at byte 0, all-zero
key vs. all-ones key, two unrelated private keys) and assert the two
executions produce **byte-identical control-flow traces** through the
crypto package.

Trace capture:

- Python >= 3.12: ``sys.monitoring`` (PEP 669) LINE + BRANCH + JUMP
  events — every conditional edge taken, cheaply.
- Python < 3.12: ``sys.settrace`` with ``f_trace_opcodes`` — the full
  opcode stream, which subsumes branch events at higher overhead.

Only frames from ``repro.crypto`` are recorded — including the audited
modpow boundary (the CRT ``_private_op`` and the ``_ladder_pow``
decryption runs on), whose Python-level control flow must not vary even
though CPython's bigint arithmetic below it may.  The traced code is the
code every caller runs: there is one RSA implementation.

Run the package as a module for the CI smoke check (the printing entry
point lives in ``__main__``)::

    python -m repro.analysis.sidechannel
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import crypto
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.mac import constant_time_equal, hmac_sha256
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import generate_keypair

__all__ = ["WitnessResult", "record_trace", "compare_traces",
           "witness_cases", "run_witness"]

#: Directory whose code objects the recorder keeps.
_CRYPTO_DIR = str(Path(crypto.__file__).resolve().parent)


def _in_scope(code) -> bool:
    return code.co_filename.startswith(_CRYPTO_DIR)


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one trace-equivalence case."""

    name: str
    equal: bool
    events_a: int
    events_b: int
    #: Index of the first differing event, or -1 when equal; with the
    #: two events at that index (None past the shorter trace's end).
    divergence_index: int = -1
    diverged_a: tuple | None = None
    diverged_b: tuple | None = None


def _record_monitoring(fn: Callable[[], object],
                       in_scope: Callable) -> list[tuple]:
    """PEP 669 recorder: LINE + BRANCH + JUMP events (3.12+)."""
    mon = sys.monitoring
    tool = mon.PROFILER_ID
    events: list[tuple] = []

    def on_line(code, lineno):
        if in_scope(code):
            events.append(("line", code.co_name, lineno))

    def _on_edge(kind):
        def callback(code, src, dst):
            if in_scope(code):
                events.append((kind, code.co_name, src, dst))
        return callback

    mon.use_tool_id(tool, "trust-sc-witness")
    kinds = [(mon.events.LINE, on_line),
             (mon.events.JUMP, _on_edge("jump"))]
    # 3.13 split BRANCH into BRANCH_TAKEN/BRANCH_NOT_TAKEN.
    for attr, kind in (("BRANCH", "branch"), ("BRANCH_TAKEN", "branch+"),
                       ("BRANCH_NOT_TAKEN", "branch-")):
        event = getattr(mon.events, attr, None)
        if event is not None:
            kinds.append((event, _on_edge(kind)))
    try:
        mask = 0
        for event, callback in kinds:
            mon.register_callback(tool, event, callback)
            mask |= event
        mon.set_events(tool, mask)
        fn()
    finally:
        mon.set_events(tool, 0)
        for event, _ in kinds:
            mon.register_callback(tool, event, None)
        mon.free_tool_id(tool)
    return events


def _record_settrace(fn: Callable[[], object],
                     in_scope: Callable) -> list[tuple]:
    """Fallback recorder: per-opcode tracing via ``sys.settrace``."""
    events: list[tuple] = []

    def tracer(frame, event, arg):
        code = frame.f_code
        if not in_scope(code):
            return None  # skip this frame entirely
        frame.f_trace_opcodes = True
        if event == "opcode":
            events.append(("op", code.co_name, frame.f_lineno,
                           frame.f_lasti))
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
    return events


def record_trace(fn: Callable[[], object],
                 in_scope: Callable = _in_scope) -> list[tuple]:
    """Control-flow trace of ``fn()`` restricted to ``in_scope`` code
    objects (by default: everything in ``repro.crypto``)."""
    if hasattr(sys, "monitoring"):
        try:
            return _record_monitoring(fn, in_scope)
        except ValueError:
            pass  # the profiler tool id is taken: fall back
    return _record_settrace(fn, in_scope)


def compare_traces(name: str, fn_a: Callable[[], object],
                   fn_b: Callable[[], object],
                   in_scope: Callable = _in_scope) -> WitnessResult:
    """Record both executions and diff their traces event-by-event."""
    trace_a = record_trace(fn_a, in_scope)
    trace_b = record_trace(fn_b, in_scope)
    if trace_a == trace_b:
        return WitnessResult(name, True, len(trace_a), len(trace_b))
    limit = min(len(trace_a), len(trace_b))
    index = next((i for i in range(limit) if trace_a[i] != trace_b[i]),
                 limit)
    return WitnessResult(
        name, False, len(trace_a), len(trace_b), index,
        trace_a[index] if index < len(trace_a) else None,
        trace_b[index] if index < len(trace_b) else None)


# --------------------------------------------------------------- the cases
def _case_mac_compare():
    """SC805's fix: equal tag vs. tag broken at byte 0 (the worst case
    for an early-exit compare) must cost identical control flow."""
    key = b"\x4b" * 32
    tag = hmac_sha256(key, b"continuous remote identity management")
    broken = bytes([tag[0] ^ 0xFF]) + tag[1:]
    return ("mac-compare",
            lambda: constant_time_equal(tag, tag),
            lambda: constant_time_equal(tag, broken))


def _case_chacha20_keystream():
    """The keystream schedule must not branch on key bits: all-zero vs.
    all-ones keys over the same plaintext."""
    nonce = b"\x17" * 12
    plaintext = b"touch-display biometric frame payload!!!"
    return ("chacha20-keystream",
            lambda: chacha20_xor(b"\x00" * 32, nonce, plaintext),
            lambda: chacha20_xor(b"\xff" * 32, nonce, plaintext))


def _case_rsa_private_op():
    """The CRT private-key operation is straight-line at the Python
    level: two unrelated keys signing one message trace alike."""
    key_a = generate_keypair(HmacDrbg(b"\x01" * 32), bits=512)
    key_b = generate_keypair(HmacDrbg(b"\x02" * 32), bits=512)
    message = b"account binding attestation"
    return ("rsa-private-op",
            lambda: key_a.sign(message),
            lambda: key_b.sign(message))


def _case_rsa_decrypt():
    """Neither the Montgomery ladder nor PKCS#1 v1.5 unpadding may leak:
    decrypting short vs. long plaintexts traces identically."""
    rng = HmacDrbg(b"\x03" * 32)
    key = generate_keypair(HmacDrbg(b"\x04" * 32), bits=512)
    short = key.public_key.encrypt(b"\x42", rng)
    long = key.public_key.encrypt(b"\x42" * 24, rng)
    return ("rsa-decrypt-unpad",
            lambda: key.decrypt(short),
            lambda: key.decrypt(long))


def witness_cases():
    """(name, run_a, run_b) triples for every witnessed primitive."""
    return [_case_mac_compare(), _case_chacha20_keystream(),
            _case_rsa_private_op(), _case_rsa_decrypt()]


def run_witness() -> list[WitnessResult]:
    """Run every case; results in declaration order."""
    return [compare_traces(name, fn_a, fn_b)
            for name, fn_a, fn_b in witness_cases()]


def trace_backend() -> str:
    """Which recorder :func:`record_trace` will use on this interpreter."""
    return ("sys.monitoring" if hasattr(sys, "monitoring")
            else "sys.settrace/opcode")
