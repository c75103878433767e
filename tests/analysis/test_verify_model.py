"""The TRUST protocol model checker (repro.analysis.verify).

Three layers are covered: the Dolev-Yao knowledge closure (pure term
algebra), the explorer (clean exhaustive runs, determinism, truncation),
and the mutation harness — each deliberately broken protocol variant
must produce its designed counterexample with a readable trace.
"""

from __future__ import annotations

import pytest

from repro.analysis.verify import MUTATIONS, SCENARIOS, run_verify
from repro.analysis.verify.explorer import explore_scenario
from repro.analysis.verify.model import (
    ATK_PK,
    BIO_TPL,
    SRV_PK,
    SRV_SK,
    VerifyOptions,
    build_world,
    canonicalize,
    mac_term,
    msg,
    seal_term,
    sess_k,
)
from repro.analysis.verify.properties import close_knowledge, is_secret
from repro.analysis.verify.runner import _KIND_ANCHORS, _RULE_ANCHORS, _anchor

#: Test depth: deep enough that every mutation's counterexample appears
#: (the deepest lives at depth 4), shallow enough to stay fast.
DEPTH = 6


def _verify(**kw):
    kw.setdefault("depth", DEPTH)
    return run_verify(**kw)


class TestKnowledgeClosure:
    def test_secrets_classified(self):
        assert is_secret(SRV_SK)
        assert is_secret(BIO_TPL)
        assert is_secret(sess_k(0))
        assert not is_secret(SRV_PK)
        assert not is_secret(ATK_PK)
        assert not is_secret(("sess", "atk"))  # the adversary's own value

    def test_seal_opens_only_with_known_private_key(self):
        to_attacker = frozenset({seal_term(ATK_PK, BIO_TPL)})
        to_server = frozenset({seal_term(SRV_PK, BIO_TPL)})
        assert BIO_TPL in close_knowledge(to_attacker, ("A",))
        assert BIO_TPL not in close_knowledge(to_server, ("A",))

    def test_mac_exposes_payload_but_never_key(self):
        pool = frozenset({mac_term(sess_k(0), BIO_TPL)})
        knowledge = close_knowledge(pool, ("A",))
        assert BIO_TPL in knowledge
        assert sess_k(0) not in knowledge

    def test_message_fields_decompose_recursively(self):
        pool = frozenset({
            msg("xfer", bundle=seal_term(ATK_PK, sess_k(3)))})
        assert sess_k(3) in close_knowledge(pool, ("A",))


class TestCleanExploration:
    def test_all_scenarios_exhaust_with_zero_findings(self):
        findings, stats = _verify()
        assert findings == []
        assert stats["exhausted"] is True
        assert stats["states"] > 0
        assert stats["transitions"] >= stats["states"] - len(SCENARIOS)
        assert {s["name"] for s in stats["scenarios"]} == set(SCENARIOS)
        assert all(s["exhausted"] for s in stats["scenarios"])

    def test_exploration_is_deterministic(self):
        first_findings, first_stats = _verify(mutations=("skip-replay-check",),
                                              entries=("login",))
        second_findings, second_stats = _verify(
            mutations=("skip-replay-check",), entries=("login",))
        assert [f.message for f in first_findings] \
            == [f.message for f in second_findings]
        assert [f.trace for f in first_findings] \
            == [f.trace for f in second_findings]
        assert first_stats["states"] == second_stats["states"]
        assert first_stats["transitions"] == second_stats["transitions"]

    def test_canonicalize_is_idempotent(self):
        for scenario in SCENARIOS.values():
            world = canonicalize(build_world(scenario))
            assert canonicalize(world) == world

    def test_budget_truncation_reports_pv400(self):
        findings, stats = _verify(entries=("login",), max_states=40)
        assert stats["exhausted"] is False
        pv400 = [f for f in findings if f.rule == "PV400"]
        assert len(pv400) == 1
        assert pv400[0].severity == "note"
        assert "max-states=40" in pv400[0].message
        # Partial coverage is a caveat, not a protocol violation.
        assert all(f.rule == "PV400" for f in findings)

    def test_unknown_entry_and_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown verify entry"):
            run_verify(entries=("bogus",), depth=2)
        with pytest.raises(ValueError, match="unknown mutation"):
            run_verify(mutations=("bogus",), depth=2)


#: Every deliberately broken variant and the invariant it must trip,
#: restricted to the scenario whose counterexample is shallowest.
MUTATION_EXPECTATIONS = [
    ("skip-login-signature-check", ("login",), {"PV402", "PV403"}),
    ("skip-replay-check", ("login",), {"PV403"}),
    ("skip-attestation-check", ("challenge",), {"PV402", "PV403"}),
    ("keep-sessions-on-reset", ("reset",), {"PV405"}),
    ("keep-old-device-records", ("transfer",), {"PV404"}),
    ("plaintext-transfer-bundle", ("transfer",), {"PV401"}),
    ("keep-key-on-login-failure", ("login",), {"PV405"}),
]


class TestMutationCounterexamples:
    def test_every_mutation_is_covered(self):
        assert {m for m, _, _ in MUTATION_EXPECTATIONS} == set(MUTATIONS)

    @pytest.mark.parametrize("mutation,entries,expected",
                             [(m, e, x) for m, e, x in MUTATION_EXPECTATIONS])
    def test_mutation_produces_counterexample(self, mutation, entries,
                                              expected):
        findings, _stats = _verify(entries=entries, mutations=(mutation,))
        assert expected <= {f.rule for f in findings}, \
            f"{mutation}: got {[f.rule for f in findings]}"
        for finding in findings:
            assert finding.message.startswith("[scenario=")
            assert finding.trace, "counterexample must carry a trace"

    def test_counterexample_trace_is_a_message_transcript(self):
        findings, _stats = _verify(entries=("transfer",),
                                   mutations=("plaintext-transfer-bundle",))
        (finding,) = [f for f in findings if f.rule == "PV401"]
        assert "secret reaches the adversary" in finding.message
        notes = [hop.note for hop in finding.trace]
        # The trace narrates the abstract message sequence, anchored at
        # the real src/repro/net functions each step models.
        assert any("transfer" in note for note in notes)
        assert all(hop.path.startswith(("src/repro/", "<"))
                   for hop in finding.trace)
        assert all(hop.line >= 1 for hop in finding.trace)

    def test_counterexample_is_bfs_minimal(self):
        """The reported depth is the shortest path to the violation."""
        violations, _stats = explore_scenario(
            SCENARIOS["login"],
            VerifyOptions(depth=4,
                          mutations=frozenset({"skip-replay-check"})))
        assert "PV403" in violations
        shallow = violations["PV403"]
        deeper, _ = explore_scenario(
            SCENARIOS["login"],
            VerifyOptions(depth=DEPTH,
                          mutations=frozenset({"skip-replay-check"})))
        assert deeper["PV403"].depth == shallow.depth
        assert shallow.depth <= 4
        assert shallow.steps


class TestTraceAnchors:
    """Findings and trace hops point at real ``def`` lines: a renamed or
    deleted function would otherwise fall back to line 1 silently."""

    @pytest.mark.parametrize("rel,func", sorted(
        set(_RULE_ANCHORS.values()) | set(_KIND_ANCHORS.values())))
    def test_anchor_resolves_to_its_def(self, rel, func):
        _display, _module, line, text = _anchor(rel, func)
        assert line > 1
        assert text.lstrip().startswith(f"def {func.rsplit('.', 1)[-1]}(")

    def test_honest_login_hops_point_into_the_client(self):
        findings, _stats = _verify(depth=4, entries=("login",),
                                   mutations=("skip-login-signature-check",))
        (finding,) = [f for f in findings if f.rule == "PV402"]
        login_line = _anchor("repro/net/protocol.py", "TrustClient.login")[2]
        client_hops = [hop for hop in finding.trace
                       if hop.path == "src/repro/net/protocol.py"]
        assert client_hops
        assert all(hop.line == login_line for hop in client_hops)


class TestAdversaryMatters:
    def test_replay_counterexample_needs_the_adversary(self):
        """With the network honest, skip-replay-check is unobservable."""
        findings, _stats = _verify(entries=("login",),
                                   mutations=("skip-replay-check",),
                                   adversary=False)
        assert [f.rule for f in findings] == []

    def test_attestation_counterexample_needs_malware(self):
        """The forged attestation comes from the on-device malware."""
        findings, _stats = _verify(entries=("challenge",),
                                   mutations=("skip-attestation-check",),
                                   malware=False)
        assert "PV402" not in {f.rule for f in findings}
