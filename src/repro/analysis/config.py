"""TRUST-lint configuration: the layering DAG and per-rule knobs.

Everything the rules key on is declared here in one place — the allowed
import edges between ``repro.*`` packages, the identifier patterns that
count as secret, the modules allowed to touch MD5 — so that tightening an
invariant is a one-line config change, reviewable on its own.

Defaults can be overridden from a ``[tool.trust-lint]`` table in
``pyproject.toml`` (see :meth:`AnalysisConfig.from_pyproject`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from functools import lru_cache
from pathlib import Path
from typing import Callable

__all__ = ["AnalysisConfig", "LAYERING", "find_pyproject"]


#: The layering DAG: package -> packages it may import (besides itself and
#: non-``repro`` code).  Packages absent from the map are unconstrained.
#: Edges mirror DESIGN.md section 6 — most importantly, the trusted
#: substrate (``repro.crypto``, ``repro.flock``) sits *below* the untrusted
#: protocol/host layers and may never reach up into them.
LAYERING: dict[str, frozenset[str]] = {
    # Trusted substrate — strictly self-contained.
    "repro.crypto": frozenset(),
    # Host tooling, outside the runtime DAG.  The one domain edge is the
    # side-channel witness (analysis.sidechannel.witness), which must
    # *execute* the crypto under test to record its branch traces.
    "repro.analysis": frozenset({"repro.crypto"}),
    # Observability substrate: spans + metrics only, no domain imports.
    # Every layer may *emit* through it, so it must sit at the very bottom
    # of the DAG and never learn about the layers it observes.
    "repro.obs": frozenset(),
    # Pure models below the trust boundary.
    "repro.fingerprint": frozenset(),
    "repro.hardware": frozenset({"repro.fingerprint", "repro.obs"}),
    "repro.touchgen": frozenset({"repro.hardware", "repro.fingerprint"}),
    # The trusted module composes crypto + sensing, nothing above it.
    "repro.flock": frozenset({
        "repro.crypto", "repro.fingerprint", "repro.hardware", "repro.obs",
    }),
    # Untrusted host/protocol layers.
    "repro.net": frozenset({
        "repro.crypto", "repro.fingerprint", "repro.flock", "repro.hardware",
        "repro.obs",
    }),
    "repro.core": frozenset({
        "repro.crypto", "repro.fingerprint", "repro.flock", "repro.hardware",
        "repro.net", "repro.obs", "repro.touchgen",
    }),
    "repro.eval": frozenset({
        "repro.crypto", "repro.fingerprint", "repro.flock", "repro.hardware",
        "repro.net", "repro.obs", "repro.touchgen", "repro.core",
    }),
    "repro.baselines": frozenset({
        "repro.crypto", "repro.fingerprint", "repro.hardware", "repro.net",
        "repro.touchgen",
    }),
    "repro.attacks": frozenset({
        "repro.baselines", "repro.core", "repro.crypto", "repro.eval",
        "repro.fingerprint", "repro.flock", "repro.hardware", "repro.net",
        "repro.obs", "repro.touchgen",
    }),
    # Fleet-scale simulation runtime: orchestrates everything below it,
    # but nothing below may reach up into it (caches are injected
    # duck-typed, never imported from the serving layers).
    "repro.runtime": frozenset({
        "repro.core", "repro.crypto", "repro.eval", "repro.fingerprint",
        "repro.flock", "repro.hardware", "repro.net", "repro.obs",
        "repro.touchgen",
    }),
}


def _lower_tuple(values) -> tuple[str, ...]:
    return tuple(str(v).lower() for v in values)


def _str_tuple(values) -> tuple[str, ...]:
    return tuple(str(v) for v in values)


@lru_cache(maxsize=None)
def _match(low: str, patterns: tuple[str, ...]) -> bool:
    """Cached fnmatch-any: the taint pass asks about the same few
    hundred identifiers millions of times."""
    return any(fnmatchcase(low, p) for p in patterns)


@dataclass(frozen=True)
class AnalysisConfig:
    """One immutable bundle of every knob the rules read."""

    #: Allowed import edges; see :data:`LAYERING`.
    layering: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(LAYERING))

    #: Packages whose internals legitimately hold secrets; SF101 does not
    #: fire inside them (the trusted boundary is what keeps them safe).
    trusted_packages: tuple[str, ...] = ("repro.crypto", "repro.flock")

    #: Packages holding *device-bound* secret state (SF111).  Narrower than
    #: :attr:`trusted_packages`: ``repro.crypto`` is a pure library whose
    #: outputs belong to whoever called it (a server generating its own CA
    #: keys is fine), but a secret handed out by the stateful FLock module
    #: is the paper's trust boundary leaking.
    boundary_packages: tuple[str, ...] = ("repro.flock",)

    #: Identifier patterns (fnmatch, lowercased) that denote secret values.
    secret_patterns: tuple[str, ...] = (
        "*key*", "*template*", "minutiae*", "*seed*", "*secret*",
        "*password*", "*private*",
    )

    #: Patterns that override :attr:`secret_patterns` — identifiers that
    #: *look* secret but are public by construction (public keys, key sizes,
    #: keystroke-dynamics features, ...).
    public_patterns: tuple[str, ...] = (
        "*public*", "*keystroke*", "*keyboard*", "keyword*",
        "key_bits", "*_key_bits", "key_size", "key_len", "key_id", "*_key_id",
        "n_template*", "template_id", "*template_count*",
        # Identifiers: derived from secrets but public by design.
        "*_id", "*_ids",
        # Keyboard-layout geometry (keys per row, key width/height).
        "keys_per_*", "key_w", "key_h",
        # Match/risk scores and quality metrics are the authentication
        # *output* the host is meant to see.
        "*score*", "*quality*",
        # Sealed/encrypted names declare already-sanitized content.
        "sealed_*", "*_sealed", "*ciphertext*", "*encrypted*",
        # Name patterns *about* secrets (this analyzer's own config).
        "*_patterns",
    )

    #: Packages where stdlib ``random`` is banned outright (CD201).
    rng_clean_packages: tuple[str, ...] = ("repro.crypto", "repro.flock")

    #: Patterns for byte-valued names whose equality must be constant-time
    #: (CD202).  Deliberately suffix-anchored: ``*key`` not ``*key*`` so
    #: ``key_bits`` style size fields never match.
    secret_bytes_patterns: tuple[str, ...] = (
        "key", "*_key", "mac", "*_mac", "tag", "*_tag", "digest", "*digest",
        "signature", "*_signature", "*secret*", "token", "*_token",
        "*hmac*", "*password*",
    )

    #: Overrides for :attr:`secret_bytes_patterns` (public-by-construction).
    bytes_public_patterns: tuple[str, ...] = (
        "public_key", "*public_key",
    )

    #: Symbols that count as weak-hash use (CD203).
    weak_hash_names: tuple[str, ...] = ("md5", "MD5", "md5_hex", "hmac_md5")

    #: Modules allowed to reference MD5: the digest module that defines
    #: it, the crypto package surface, and the frame-hash display path the
    #: paper scopes MD5 to.
    weak_hash_allowed_modules: tuple[str, ...] = (
        "repro.crypto", "repro.crypto.mac", "repro.flock.display",
    )

    #: Extra identifier patterns (beyond :attr:`secret_patterns`) that seed
    #: secret taint in the interprocedural pass only.
    taint_sources: tuple[str, ...] = ()

    #: Extra callable-name patterns the taint pass treats as observable
    #: sinks, on top of the built-in print/logging/exception/__repr__ set.
    taint_sinks: tuple[str, ...] = ()

    #: Callable-name patterns whose *results* are clean: one-way or
    #: sealing transforms (HMAC, hashes, ciphertext, signatures) plus
    #: taint-free observers.  A secret pushed through one of these may
    #: legitimately cross the trust boundary.
    taint_sanitizers: tuple[str, ...] = (
        "hmac*", "hkdf*", "sha256*", "sha1*", "md5*", "*hash*", "*digest",
        "hexdigest", "encrypt*", "*_encrypt", "seal*", "sign*", "verify*",
        "constant_time_equal", "attest*", "len", "bool", "type", "id",
        "isinstance", "hasattr", "range",
        # Size observers and seeded-RNG constructors: their outputs do
        # not reveal the material that parameterised them.
        "*length*", "bit_length", "default_rng",
    )

    #: Callable-name patterns whose results demand constant-time equality
    #: (SC805): MAC/digest/signature producers.  They are *confidentiality*
    #: sanitizers (a MAC tag may be shown to the network) but comparing one
    #: with ``==`` leaks the comparison prefix through timing.
    ctime_producer_patterns: tuple[str, ...] = (
        "hmac*", "*digest*", "mac", "*_mac", "sha256", "sha1", "md5*",
        "*hash*", "sign", "*signature*", "tag", "*_tag",
    )

    #: Rule ids disabled wholesale.
    disabled_rules: tuple[str, ...] = ()

    #: Default paths scanned when the CLI is invoked without arguments.
    default_paths: tuple[str, ...] = ("src",)

    #: Default baseline file (empty string: no baseline).
    baseline_path: str = ""

    # --------------------------------------------------- determinism (DT/RC)
    #: Module prefixes the determinism pass skips entirely.  The analysis
    #: toolchain is host tooling — it times itself with ``perf_counter``
    #: and walks the filesystem by design — and never runs inside a
    #: fleet shard, so it is exempt by default.
    det_exempt_modules: tuple[str, ...] = ("repro.analysis",)

    #: Callable-name patterns that count as order-observable sinks for
    #: DT604: anything whose output, digest or wire encoding would change
    #: if its input arrived in a different iteration order.
    det_order_sinks: tuple[str, ...] = (
        "join", "encode*", "*_encode", "write*", "*_write", "render*",
        "*digest*", "sha256*", "sha1*", "md5*", "hmac*", "sign*",
        "dumps*", "export*", "*summary*", "format*",
    )

    #: Callable-name patterns that count as float-accumulation sinks for
    #: DT606 (order-sensitive reductions: float addition is not
    #: associative, so ``sum`` over a set is hash-order dependent).
    det_accumulation_sinks: tuple[str, ...] = (
        "sum", "*merge*", "*accumulate*",
    )

    #: Callable-name patterns that launder order taint: reductions whose
    #: result is independent of operand order, plus the canonical fix.
    det_order_sanitizers: tuple[str, ...] = (
        "sorted", "len", "min", "max", "all", "any", "bool", "count",
        "isinstance",
    )

    #: Packages the shard-isolation escape rules (RC612) police: where
    #: the future worker-process cut happens.
    det_shard_packages: tuple[str, ...] = ("repro.runtime",)

    #: Class qualnames whose instances are shard roots — each worker
    #: process owns some of them, so their internals must never be
    #: shared or reached into from outside their own methods.
    det_shard_roots: tuple[str, ...] = (
        "repro.net.webserver.WebServer",
        "repro.runtime.scheduler.EventLoop",
    )

    #: Method names that are approved cross-shard conduits: the explicit
    #: migration export/import pair and the strict wire codec.  State
    #: moving between shard roots through these calls is message
    #: passing, not sharing.
    det_conduits: tuple[str, ...] = (
        "export_account", "import_account",
        "encode_envelope", "decode_envelope",
    )

    # --------------------------------------------------- wire contract (CT)
    #: Modules holding the server side of the wire protocol: the typed
    #: endpoint registry, the dispatch entry point, and every reply the
    #: server constructs.
    contract_server_modules: tuple[str, ...] = ("repro.net.webserver",)

    #: Modules holding the strict wire codec: message-type constants, the
    #: version constants, ``encode_envelope``/``decode_envelope`` and the
    #: shared ``ProtocolError`` reason vocabulary.
    contract_codec_modules: tuple[str, ...] = ("repro.net.message",)

    #: Modules holding the client call surface (``TrustClient``).  These
    #: are held to the strict schema: every envelope they build is checked
    #: against the endpoint registry, and every reply field they read
    #: must be presence-checked first (CT704).
    contract_client_modules: tuple[str, ...] = ("repro.net.protocol",)

    #: Modules whose wire-field reads count as client-side consumption
    #: for the schema-drift rule (CT701), beyond the strict client
    #: surface (the browser renders ``page``, the device relays).
    contract_read_modules: tuple[str, ...] = (
        "repro.net.protocol", "repro.net.browser", "repro.net.device",
    )

    #: Directories searched (as text, recursively, ``*.py`` only) for
    #: reason-code assertions (CT702): a rejection code the server can
    #: emit must be asserted somewhere client- or test-side, or it is
    #: unobservable vocabulary drift.
    contract_consumer_paths: tuple[str, ...] = ("tests", "benchmarks")

    #: The committed golden contract artifact CT705 diffs against
    #: (relative to the working directory; empty string disables CT705).
    contract_golden: str = "benchmarks/results/contract.json"

    #: Function-name patterns that are strict decode paths (CT704): any
    #: exception handler inside them that fails to re-raise is a decode
    #: path that fails open on malformed input.
    contract_decode_patterns: tuple[str, ...] = ("decode*", "*_decode_*")

    #: Class-name patterns for the wire envelope constructor whose call
    #: sites define produced message schemas.
    contract_envelope_names: tuple[str, ...] = ("Envelope",)

    # --------------------------------------------------- side channel (SC)
    #: Module prefixes the side-channel pass polices: the four packages
    #: that handle long-lived secret material on the remote path.  Code
    #: outside them is still indexed (summaries resolve across the whole
    #: tree) but never reported on.
    sc_modules: tuple[str, ...] = (
        "repro.crypto", "repro.flock", "repro.fingerprint", "repro.net",
    )

    #: Callable/class-name patterns that *declassify* timing taint: the
    #: one constant-time comparator, one-way MAC/hash/sign producers
    #: (post-MAC outputs are public by protocol, and their internals are
    #: data-oblivious bit mixing), and taint-free observers.  Functions
    #: and classes matching these are also exempt from the walk — their
    #: bodies are the audited implementations of the discipline itself.
    sc_declassifiers: tuple[str, ...] = (
        "constant_time_equal",
        "hmac*", "hkdf*", "sha256*", "sha1*", "md5*", "*hash*", "*digest",
        "hexdigest", "encrypt*", "*_encrypt", "decrypt_*", "seal*", "sign*",
        "verify*", "attest*", "mac", "*_mac", "compare_*",
        "bool", "type", "id", "isinstance", "hasattr", "range",
        "bit_length", "*length*", "default_rng",
    )

    #: Extra identifier patterns (beyond :attr:`secret_patterns`) that
    #: seed *timing* taint in the side-channel pass only.
    sc_secret_patterns: tuple[str, ...] = ()

    #: Patterns that override secret seeding in the side-channel pass
    #: only: values derived from secrets whose exposure the protocol
    #: already accepts (the RSA public modulus/exponent attributes, the
    #: matcher's decision outputs).
    sc_public_patterns: tuple[str, ...] = (
        "n", "e", "modulus", "byte_length",
    )

    #: Function qualnames forming the audited variable-time bigint
    #: boundary: the only place SC suppressions are allowed to live
    #: (each reason-coded) — CPython's ``pow``/``%``/``//`` on bigints
    #: are value-dependent below the reach of any Python-level analysis,
    #: so the branch-trace witness pins their Python-level behaviour
    #: instead.
    sc_modpow_boundary: tuple[str, ...] = (
        "repro.crypto.rsa.RsaPrivateKey.__post_init__",
        "repro.crypto.rsa.RsaPrivateKey._private_op",
        "repro.crypto.rsa._ladder_pow",
    )

    # ------------------------------------------------- protocol verification
    #: BFS depth budget for ``repro-lint verify`` (transitions per trace).
    verify_depth: int = 12

    #: Total-state budget per scenario; exceeding it emits PV400 (note).
    verify_max_states: int = 150_000

    #: Scenario entry points to explore (empty tuple: all six).
    verify_entries: tuple[str, ...] = ()

    #: Whether the Dolev-Yao adversary's transitions are enabled.
    verify_adversary: bool = True

    # ------------------------------------------------------------ matching
    def is_secret_name(self, name: str) -> bool:
        """Does ``name`` denote secret material (SF101)?"""
        low = name.lower()
        if _match(low, self.public_patterns):
            return False
        return _match(low, self.secret_patterns)

    def is_secret_bytes_name(self, name: str) -> bool:
        """Does ``name`` denote a secret byte string (CD202)?"""
        low = name.lower()
        if _match(low, self.bytes_public_patterns):
            return False
        return _match(low, self.secret_bytes_patterns)

    def in_trusted_package(self, module: str) -> bool:
        """Is ``module`` inside a trusted layer (SF101 exempt)?"""
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in self.trusted_packages)

    def in_boundary_package(self, module: str) -> bool:
        """Is ``module`` inside the stateful trust boundary (SF111)?"""
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in self.boundary_packages)

    def in_rng_clean_package(self, module: str) -> bool:
        """Is ``module`` inside a package where stdlib random is banned?"""
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in self.rng_clean_packages)

    def rule_enabled(self, rule_id: str) -> bool:
        """Is the rule enabled under this config?"""
        return rule_id not in self.disabled_rules

    # ------------------------------------------------------- taint matching
    def is_taint_source_name(self, name: str) -> bool:
        """Does ``name`` seed secret taint in the interprocedural pass?"""
        low = name.lower()
        if _match(low, self.public_patterns):
            return False
        return (_match(low, self.secret_patterns)
                or _match(low, self.taint_sources))

    def is_taint_sink_name(self, name: str) -> bool:
        """Is a call to ``name`` a configured extra observable sink?"""
        return _match(name.lower(), self.taint_sinks)

    def is_sanitizer_name(self, name: str) -> bool:
        """Does a call to ``name`` launder secret taint (one-way/sealed)?"""
        return _match(name.lower(), self.taint_sanitizers)

    def is_ctime_producer_name(self, name: str) -> bool:
        """Does a call to ``name`` yield timing-sensitive bytes (SC805)?"""
        low = name.lower()
        if _match(low, self.bytes_public_patterns):
            return False
        return _match(low, self.ctime_producer_patterns)

    def is_declassified_name(self, name: str) -> bool:
        """Is ``name`` public-by-construction under either override list?

        The taint pass treats an assignment or attribute store *into* a
        public-named location as declassification: names are the audit
        surface in this codebase, and a secret landing in ``device_id``
        or ``public_key`` is either fine or a naming bug SF101-style
        review would catch.
        """
        low = name.lower()
        return (_match(low, self.public_patterns)
                or _match(low, self.bytes_public_patterns))

    # ------------------------------------------------ determinism matching
    def in_det_exempt_module(self, module: str) -> bool:
        """Is ``module`` outside the determinism pass's scope?"""
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in self.det_exempt_modules)

    def is_det_order_sink_name(self, name: str) -> bool:
        """Is a call to ``name`` an order-observable sink (DT604)?"""
        return _match(name.lower(), self.det_order_sinks)

    def is_det_accumulation_sink_name(self, name: str) -> bool:
        """Is a call to ``name`` a float-accumulation sink (DT606)?"""
        return _match(name.lower(), self.det_accumulation_sinks)

    def is_det_order_sanitizer_name(self, name: str) -> bool:
        """Does a call to ``name`` produce an order-independent result?"""
        return _match(name.lower(), self.det_order_sanitizers)

    def in_det_shard_package(self, module: str) -> bool:
        """Is ``module`` inside the shard-isolation scope (RC612)?"""
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in self.det_shard_packages)

    def is_det_conduit_name(self, name: str) -> bool:
        """Is ``name`` an approved cross-shard transfer conduit?"""
        return name in self.det_conduits

    # ------------------------------------------------ side-channel matching
    def in_sc_module(self, module: str) -> bool:
        """Is ``module`` inside the side-channel pass's scope?"""
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in self.sc_modules)

    def is_sc_secret_name(self, name: str) -> bool:
        """Does ``name`` seed timing taint in the side-channel pass?"""
        low = name.lower()
        if (_match(low, self.public_patterns)
                or _match(low, self.sc_public_patterns)):
            return False
        return (_match(low, self.secret_patterns)
                or _match(low, self.sc_secret_patterns))

    def is_sc_public_name(self, name: str) -> bool:
        """Is ``name`` public-by-protocol for timing purposes only?"""
        return _match(name.lower(), self.sc_public_patterns)

    def is_sc_declassifier_name(self, name: str) -> bool:
        """Does a call to ``name`` declassify timing taint?"""
        return _match(name.lower(), self.sc_declassifiers)

    def in_sc_modpow_boundary(self, qualname: str) -> bool:
        """Is ``qualname`` inside the audited variable-time boundary?"""
        return qualname in self.sc_modpow_boundary

    # --------------------------------------------------- contract matching
    def in_contract_server_module(self, module: str) -> bool:
        """Does ``module`` hold the server side of the wire protocol?"""
        return module in self.contract_server_modules

    def in_contract_codec_module(self, module: str) -> bool:
        """Does ``module`` hold the strict wire codec?"""
        return module in self.contract_codec_modules

    def in_contract_client_module(self, module: str) -> bool:
        """Does ``module`` hold the strict client call surface?"""
        return module in self.contract_client_modules

    def in_contract_read_module(self, module: str) -> bool:
        """Do ``module``'s field reads count as client consumption?"""
        return (module in self.contract_read_modules
                or module in self.contract_client_modules)

    def is_contract_decode_name(self, name: str) -> bool:
        """Is ``name`` a strict decode path (must fail closed, CT704)?"""
        return _match(name.lower(), self.contract_decode_patterns)

    def is_contract_envelope_name(self, name: str) -> bool:
        """Does a call to ``name`` construct a wire envelope?"""
        return name in self.contract_envelope_names

    # ----------------------------------------------------------- overrides
    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "AnalysisConfig":
        """Default config overlaid with ``[tool.trust-lint]`` from a file.

        The recognized keys are those of :data:`_OVERRIDES`: the top
        table plus its ``taint``, ``verify``, ``det``, ``contract`` and
        ``sc`` sub-tables.  Unknown keys are rejected so typos fail
        loudly.
        """
        import tomllib

        with open(pyproject, "rb") as handle:
            table = tomllib.load(handle)
        section = table.get("tool", {}).get("trust-lint", {})
        return cls.default().with_overrides(section)

    def with_overrides(self, section: dict) -> "AnalysisConfig":
        """Apply a ``[tool.trust-lint]``-shaped dict of overrides."""
        subtables = {sub: section.get(sub, {}) for sub in _OVERRIDES if sub}
        top = {k: v for k, v in section.items() if k not in subtables}
        tables = {"": top, **subtables}
        for sub, values in tables.items():
            unknown = set(values) - set(_OVERRIDES[sub])
            if unknown:
                name = f"tool.trust-lint.{sub}" if sub else "tool.trust-lint"
                raise ValueError(
                    f"unknown [{name}] options: {sorted(unknown)}")
        updates = {}
        for sub, values in tables.items():
            for key, raw in values.items():
                attr, convert = _OVERRIDES[sub][key]
                value = convert(raw)
                if key.startswith("extend-"):
                    value = getattr(self, attr) + value
                updates[attr] = value
        return replace(self, **updates)

    @classmethod
    def default(cls) -> "AnalysisConfig":
        """The stock configuration encoding the paper's invariants."""
        return cls()


#: Every ``[tool.trust-lint]`` key: sub-table ("" for the top table) ->
#: key -> (AnalysisConfig field, value conversion).  ``extend-*`` keys
#: append to the field's current value; every other key replaces it.
_OVERRIDES: dict[str, dict[str, tuple[str, Callable]]] = {
    "": {
        "paths": ("default_paths", _str_tuple),
        "disable": ("disabled_rules", _str_tuple),
        "baseline": ("baseline_path", str),
        "extend-secret-patterns": ("secret_patterns", _lower_tuple),
        "extend-public-patterns": ("public_patterns", _lower_tuple),
    },
    "taint": {
        "extend-sources": ("taint_sources", _lower_tuple),
        "extend-sinks": ("taint_sinks", _lower_tuple),
        "extend-sanitizers": ("taint_sanitizers", _lower_tuple),
    },
    "verify": {
        "depth": ("verify_depth", int),
        "max-states": ("verify_max_states", int),
        "entries": ("verify_entries", _str_tuple),
        "adversary": ("verify_adversary", bool),
    },
    "det": {
        "exempt-modules": ("det_exempt_modules", _str_tuple),
        "extend-order-sinks": ("det_order_sinks", _lower_tuple),
        "extend-accumulation-sinks": ("det_accumulation_sinks",
                                      _lower_tuple),
        "extend-sanitizers": ("det_order_sanitizers", _lower_tuple),
        "shard-packages": ("det_shard_packages", _str_tuple),
        "shard-roots": ("det_shard_roots", _str_tuple),
        "extend-conduits": ("det_conduits", _str_tuple),
    },
    "contract": {
        "server-modules": ("contract_server_modules", _str_tuple),
        "codec-modules": ("contract_codec_modules", _str_tuple),
        "client-modules": ("contract_client_modules", _str_tuple),
        "read-modules": ("contract_read_modules", _str_tuple),
        "consumer-paths": ("contract_consumer_paths", _str_tuple),
        "golden": ("contract_golden", str),
        "decode-patterns": ("contract_decode_patterns", _lower_tuple),
        "envelope-names": ("contract_envelope_names", _str_tuple),
    },
    "sc": {
        "modules": ("sc_modules", _str_tuple),
        "extend-declassifiers": ("sc_declassifiers", _lower_tuple),
        "extend-secret-patterns": ("sc_secret_patterns", _lower_tuple),
        "extend-public-patterns": ("sc_public_patterns", _lower_tuple),
        "modpow-boundary": ("sc_modpow_boundary", _str_tuple),
    },
}


def find_pyproject(start: Path) -> Path | None:
    """Walk up from ``start`` looking for a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None
