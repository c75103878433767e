"""FrameAuditor: the section IV-B off-line audit process."""

import numpy as np
import pytest

from repro.net import FrameAuditor, Malware, TrustClient
from .conftest import BUTTON_XY


class TestFrameAuditor:
    def test_honest_session_audits_clean(self, deployment, alice_master):
        device, server = deployment
        rng = np.random.default_rng(50)
        client = TrustClient(device, server)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        for _ in range(4):
            client.request(outcome.session, risk=0.0, rng=rng)
        device.flock.close_session(server.domain)

        report = FrameAuditor(server).audit_account("alice")
        assert report.clean
        assert report.total_entries >= 5
        assert report.verified_entries == report.total_entries

    def test_spoofed_frame_flagged(self, deployment, alice_master):
        device, server = deployment
        rng = np.random.default_rng(51)
        device.browser.infect(Malware(
            page_rewriter=lambda page: b"<html>EVIL OVERLAY</html>"))
        try:
            outcome = TrustClient(device, server).login(
                "alice", BUTTON_XY, alice_master, rng)
        finally:
            device.browser.malware = None
        assert outcome.success  # crypto is intact; only the display lied
        device.flock.close_session(server.domain)

        report = FrameAuditor(server).audit_account("alice")
        assert not report.clean
        assert report.findings
        assert report.findings[-1].account == "alice"
        assert report.verified_entries < report.total_entries

    def test_zoomed_view_still_verifies(self, deployment, alice_master):
        """User gestures change the view; the finite view set covers it."""
        device, server = deployment
        log_start = len(server.frame_audit_log)
        rng = np.random.default_rng(52)
        client = TrustClient(device, server)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        # Zoom the displayed page, then issue a request attesting the new view.
        device.flock.display.apply_view_change(zoom=2.0, scroll_px=64)
        result = client.request(outcome.session, risk=0.0, rng=rng)
        assert result.success
        device.flock.close_session(server.domain)

        # The shared server's log may hold spoofed frames from earlier
        # tests; only this test's entries are under scrutiny.
        whitelist = FrameAuditor(server).whitelist()
        new_entries = [h for account, h in server.frame_audit_log[log_start:]
                       if account == "alice"]
        assert new_entries
        assert all(h in whitelist for h in new_entries)

    def test_unknown_account_empty_report(self, deployment):
        _, server = deployment
        report = FrameAuditor(server).audit_account("nobody")
        assert report.total_entries == report.verified_entries == 0
        assert report.clean

    def test_whitelist_cached(self, deployment):
        _, server = deployment
        auditor = FrameAuditor(server)
        first = auditor.whitelist()
        assert auditor.whitelist() is first
        assert len(first) > 100  # pages x zoom steps x scroll positions

    def test_validation(self, deployment):
        _, server = deployment
        with pytest.raises(ValueError):
            FrameAuditor(server, max_scroll_px=-1)
