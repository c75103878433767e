"""Remote identity management: TRUST end-to-end (paper section IV-B).

``TrustCoordinator`` is the piece that makes the two halves one system: it
drives a user's gesture stream through the local Fig. 6 pipeline *and*
reports the resulting identity risk to the web server on every request of
the Fig. 10 protocol.  A hijacker who takes over the phone mid-session
stops producing verified captures, the reported risk climbs, and the
server terminates the session — continuous *remote* identity management.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fingerprint import MasterFingerprint
from repro.net import (
    MobileDevice,
    ProtocolOutcome,
    TrustClient,
    TrustSession,
    UntrustedChannel,
    WebServer,
)
from repro.obs import Instrumentation, NOOP
from repro.touchgen import Gesture, GestureKind
from .identity_risk import IdentityRiskTracker
from .pipeline import ContinuousAuthPipeline

__all__ = ["RemoteSessionReport", "TrustCoordinator"]


@dataclass
class RemoteSessionReport:
    """What happened over one remote session."""

    login: ProtocolOutcome
    requests_ok: int = field(default=0, init=False)
    requests_failed: int = field(default=0, init=False)
    terminated: bool = field(default=False, init=False)
    termination_reason: str = field(default="", init=False)
    gestures_processed: int = field(default=0, init=False)
    risk_series: list[float] = field(default_factory=list, init=False)
    challenges_answered: int = field(default=0, init=False)
    challenges_failed: int = field(default=0, init=False)

    @property
    def survived(self) -> bool:
        """Login succeeded and the server never terminated the session."""
        return self.login.success and not self.terminated


class TrustCoordinator:
    """Binds one device's continuous pipeline to one remote session."""

    def __init__(self, device: MobileDevice, server: WebServer,
                 channel: UntrustedChannel, account: str,
                 tracker: IdentityRiskTracker | None = None,
                 login_button_xy: tuple[float, float] = (28.0, 80.0),
                 obs: Instrumentation | None = None) -> None:
        self.device = device
        self.server = server
        self.channel = channel
        self.account = account
        self.login_button_xy = login_button_xy
        self.obs = obs if obs is not None else NOOP
        if obs is not None:
            # One bundle end to end: the device's capture/match path and
            # the protocol client share this coordinator's tracer, so one
            # gesture yields one trace tree from sensor to server verdict.
            device.flock.obs = obs
        self.client = TrustClient(device, server, channel, obs=self.obs)
        self.tracker = tracker if tracker is not None else IdentityRiskTracker()
        self.pipeline = ContinuousAuthPipeline(device.flock, device.panel,
                                               self.tracker, obs=self.obs)
        self.session: TrustSession | None = None

    def open(self, master: MasterFingerprint, rng: np.random.Generator,
             time_s: float = 0.0) -> ProtocolOutcome:
        """Fig. 10 login, reporting the current window risk."""
        outcome = self.client.login(self.account, self.login_button_xy,
                                    master, rng,
                                    risk=self.tracker.assess().risk,
                                    time_s=time_s)
        self.session = outcome.session
        return outcome

    def run_session(self, gestures: list[Gesture],
                    masters: dict[str, MasterFingerprint],
                    rng: np.random.Generator,
                    login_master: MasterFingerprint) -> RemoteSessionReport:
        """Login, then drive a gesture stream with continuous reporting.

        ``masters`` maps each gesture's ``finger_id`` to the physical
        finger touching — swap entries mid-list to model a hijack.  Tap
        gestures issue server requests carrying the live risk; swipes and
        zooms only update the local risk window (and the displayed view).
        """
        report = RemoteSessionReport(
            login=self.open(login_master, rng,
                            time_s=gestures[0].start_s - 1.0 if gestures else 0.0))
        if not report.login.success:
            return report

        for index, gesture in enumerate(gestures):
            master = masters[gesture.primary_event.finger_id]
            with self.obs.tracer.span("gesture", index=index,
                                      kind=gesture.kind.value) as span:
                event = self.pipeline.process_gesture(gesture, master, rng)
                report.gestures_processed += 1
                risk = event.assessment.risk
                report.risk_series.append(risk)
                span.set_attribute("outcome", event.outcome_kind.value)
                span.set_attribute("risk", risk)

                if gesture.changes_view:
                    # Zoom/scroll alters the displayed frame; the repeater
                    # re-hashes it so subsequent requests attest the new view.
                    self.device.flock.display.apply_view_change(
                        zoom=2.0 if gesture.kind is GestureKind.ZOOM else None,
                        scroll_px=64 if gesture.kind is GestureKind.SWIPE
                        else None,
                    )
                    span.set_attribute("decision", "view-change")
                    continue

                result = self.client.request(self.session, risk=risk, rng=rng)
                if result.success:
                    report.requests_ok += 1
                    span.set_attribute("decision", "ok")
                    continue
                if result.challenged:
                    # The server demands a fresh verified touch; whoever is
                    # holding the phone answers with *their* finger.
                    challenge_result = self.client.answer_challenge(
                        self.session, self.login_button_xy, master, rng,
                        time_s=gesture.end_s + 0.5)
                    if challenge_result.success:
                        report.challenges_answered += 1
                        span.set_attribute("decision", "challenge-answered")
                        # A verified touch just happened; record it so the
                        # risk window reflects the re-authentication.
                        from .identity_risk import TouchOutcomeKind
                        self.tracker.record(TouchOutcomeKind.VERIFIED)
                    else:
                        report.challenges_failed += 1
                        report.requests_failed += 1
                        span.set_attribute("decision", "challenge-failed")
                    continue
                report.requests_failed += 1
                span.set_attribute("decision", result.reason)
                if result.reason == "risk-too-high":
                    report.terminated = True
                    report.termination_reason = result.reason
                    break
        return report
