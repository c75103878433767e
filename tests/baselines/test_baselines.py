"""Password, swipe-sensor, keystroke, cookie-session and fuzzy-vault baselines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    CookieWebServer,
    FuzzyVault,
    GF16,
    KeystrokeAuthenticator,
    PasswordAuthModel,
    SeparateFingerprintSensor,
    TypingProfile,
    crc16,
    encode_minutia,
)
from repro.eval import equal_error_rate
from repro.fingerprint import (
    CaptureCondition,
    Minutia,
    minutiae_from_image,
    render_impression,
    synthesize_master,
)
from repro.net.message import Envelope, ProtocolError


class TestPasswordModel:
    def test_login_latency_positive_and_realistic(self):
        model = PasswordAuthModel()
        latency = model.mean_login_latency_s(np.random.default_rng(0))
        assert 2.0 < latency < 15.0

    def test_dictionary_attack_saturates_at_91pct(self):
        model = PasswordAuthModel()
        assert model.dictionary_attack_success(0) == 0.0
        assert model.dictionary_attack_success(500) == pytest.approx(0.455)
        assert model.dictionary_attack_success(10_000) == pytest.approx(0.91)

    def test_negative_guesses_rejected(self):
        with pytest.raises(ValueError):
            PasswordAuthModel().dictionary_attack_success(-1)


class TestSwipeSensor:
    def test_genuine_login_usually_accepted(self):
        sensor = SeparateFingerprintSensor()
        rng = np.random.default_rng(0)
        accepted = sum(sensor.genuine_login(rng).accepted for _ in range(100))
        assert accepted >= 90

    def test_impostor_rarely_accepted(self):
        sensor = SeparateFingerprintSensor()
        rng = np.random.default_rng(1)
        accepted = sum(sensor.authenticate(False, rng).accepted
                       for _ in range(200))
        assert accepted <= 6

    def test_login_takes_seconds(self):
        sensor = SeparateFingerprintSensor()
        latency = sensor.mean_login_latency_s(np.random.default_rng(2))
        assert 1.0 < latency < 6.0


class TestKeystroke:
    def test_eer_worse_than_fingerprint_but_sane(self):
        rng = np.random.default_rng(3)
        profiles = [TypingProfile.random(f"u{i}", rng) for i in range(6)]
        authenticator = KeystrokeAuthenticator()
        genuine, impostor = authenticator.evaluate(profiles, rng)
        eer, _ = equal_error_rate(genuine, impostor)
        assert 0.005 < eer < 0.45  # clearly usable but weaker than prints

    def test_genuine_scores_higher(self):
        rng = np.random.default_rng(4)
        profiles = [TypingProfile.random(f"u{i}", rng) for i in range(4)]
        authenticator = KeystrokeAuthenticator()
        genuine, impostor = authenticator.evaluate(profiles, rng)
        assert genuine.mean() > impostor.mean()

    def test_unenrolled_user_rejected(self):
        authenticator = KeystrokeAuthenticator()
        profile = TypingProfile.random("u", np.random.default_rng(0))
        sample = profile.sample(10, np.random.default_rng(1))
        with pytest.raises(KeyError):
            authenticator.score("ghost", sample)

    def test_enrollment_validation(self):
        authenticator = KeystrokeAuthenticator()
        with pytest.raises(ValueError):
            authenticator.enroll("u", [])

    def test_needs_two_users(self):
        authenticator = KeystrokeAuthenticator()
        profile = TypingProfile.random("u", np.random.default_rng(0))
        with pytest.raises(ValueError):
            authenticator.evaluate([profile], np.random.default_rng(1))


class TestCookieServer:
    @pytest.fixture()
    def server(self):
        server = CookieWebServer("www.legacy.com", b"legacy-seed")
        server.create_account("alice", "hunter2")
        return server

    def test_login_and_request(self, server):
        response = server.login("alice", "hunter2")
        cookie = response.fields["cookie"]
        page = server.handle_request(Envelope("r", {"cookie": cookie}))
        assert page.fields["account"] == "alice"

    def test_wrong_password(self, server):
        with pytest.raises(ProtocolError, match="bad-credentials"):
            server.login("alice", "wrong")

    def test_stolen_cookie_works_forever(self, server):
        """The vulnerability TRUST eliminates: bearer tokens."""
        cookie = server.login("alice", "hunter2").fields["cookie"]
        pages = [server.handle_request(Envelope("r", {"cookie": cookie}))
                 for _ in range(10)]
        assert all(page.fields["account"] == "alice" for page in pages)

    def test_bogus_cookie_rejected(self, server):
        with pytest.raises(ProtocolError, match="bad-cookie"):
            server.handle_request(Envelope("r", {"cookie": b"\x00" * 16}))

    def test_duplicate_account(self, server):
        with pytest.raises(ValueError):
            server.create_account("alice", "x")


class TestGF16:
    def test_add_is_xor(self):
        assert GF16.add(0b1010, 0b0110) == 0b1100

    def test_mul_identity_and_zero(self):
        assert GF16.mul(1, 0x1234) == 0x1234
        assert GF16.mul(0, 0x1234) == 0

    def test_inverse(self):
        for value in (1, 2, 0x1234, 0xFFFF):
            assert GF16.mul(value, GF16.inv(value)) == 1

    def test_inv_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            GF16.inv(0)

    def test_interpolation_roundtrip(self):
        coefficients = [5, 0x1111, 0xBEEF, 42]
        points = [(x, GF16.poly_eval(coefficients, x)) for x in (1, 7, 19, 300)]
        assert GF16.interpolate(points) == coefficients

    def test_interpolation_duplicate_x(self):
        with pytest.raises(ValueError):
            GF16.interpolate([(1, 2), (1, 3)])

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF),
                    min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_eval_interpolate_property(self, coefficients):
        xs = list(range(1, len(coefficients) + 1))
        points = [(x, GF16.poly_eval(coefficients, x)) for x in xs]
        recovered = GF16.interpolate(points)
        # Leading zeros collapse the degree; compare via evaluation.
        for x in (0, 11, 99, 30000):
            assert GF16.poly_eval(recovered, x) \
                == GF16.poly_eval(coefficients, x)


class TestFuzzyVault:
    @pytest.fixture(scope="class")
    def enrolled(self):
        master = synthesize_master("vault-f", np.random.default_rng(8))
        return master, minutiae_from_image(master.image)

    def test_crc16_known_vector(self):
        assert crc16(b"123456789") == 0x29B1

    def test_encode_minutia_within_16_bits(self):
        minutia = Minutia(row=100.0, col=50.0, direction=1.0, kind="ending")
        assert 0 <= encode_minutia(minutia) < (1 << 16)

    def test_lock_unlock_same_print(self, enrolled):
        master, minutiae = enrolled
        rng = np.random.default_rng(0)
        vault_builder = FuzzyVault(polynomial_degree=8, n_chaff=200)
        secret = b"vault-secret-123"
        vault = vault_builder.lock(minutiae, secret, rng)
        assert vault_builder.unlock(vault, minutiae, len(secret), rng) == secret

    def test_impostor_cannot_unlock(self, enrolled):
        _, minutiae = enrolled
        rng = np.random.default_rng(1)
        vault_builder = FuzzyVault(polynomial_degree=8, n_chaff=200)
        vault = vault_builder.lock(minutiae, b"secret-material!", rng)
        impostor = synthesize_master("vault-imp", np.random.default_rng(99))
        impostor_minutiae = minutiae_from_image(impostor.image)
        assert vault_builder.unlock(vault, impostor_minutiae, 16, rng) is None

    def test_vault_hides_genuine_points(self, enrolled):
        _, minutiae = enrolled
        rng = np.random.default_rng(2)
        vault_builder = FuzzyVault(polynomial_degree=8, n_chaff=150)
        vault = vault_builder.lock(minutiae, b"sixteen-byte-key", rng)
        assert len(vault) >= 150

    def test_secret_too_long(self, enrolled):
        _, minutiae = enrolled
        vault_builder = FuzzyVault(polynomial_degree=4)
        with pytest.raises(ValueError, match="capacity"):
            vault_builder.lock(minutiae, b"x" * 64, np.random.default_rng(0))

    def test_too_few_minutiae(self):
        vault_builder = FuzzyVault(polynomial_degree=8)
        few = [Minutia(10.0 * i, 10.0 * i, 0.1, "ending") for i in range(3)]
        with pytest.raises(ValueError, match="distinct minutiae"):
            vault_builder.lock(few, b"secret", np.random.default_rng(0))

    def test_helper_data_alignment_recovers_displaced_print(self, enrolled):
        master, minutiae = enrolled
        rng = np.random.default_rng(5)
        vault_builder = FuzzyVault(polynomial_degree=8, n_chaff=200)
        secret = b"vault-secret-123"
        vault, helper = vault_builder.lock_with_helper(minutiae, secret, rng)
        assert len(helper) == 5
        successes = 0
        for _ in range(6):
            probe = render_impression(master, CaptureCondition(
                rotation_deg=float(rng.uniform(-10, 10)),
                translation=(float(rng.uniform(-6, 6)),
                             float(rng.uniform(-6, 6))),
                noise=0.04), rng)
            query = minutiae_from_image(probe.image, probe.mask)
            if vault_builder.unlock_with_helper(vault, helper, query,
                                                len(secret), rng) == secret:
                successes += 1
        assert successes >= 4  # alignment restores most displaced presses

    def test_helper_data_does_not_admit_impostor(self, enrolled):
        _, minutiae = enrolled
        rng = np.random.default_rng(6)
        vault_builder = FuzzyVault(polynomial_degree=8, n_chaff=200)
        vault, helper = vault_builder.lock_with_helper(
            minutiae, b"secret-material!", rng)
        impostor = synthesize_master("vault-imp2", np.random.default_rng(55))
        impostor_minutiae = minutiae_from_image(impostor.image)
        assert vault_builder.unlock_with_helper(
            vault, helper, impostor_minutiae, 16, rng) is None

    def test_helper_requires_enough_minutiae(self):
        vault_builder = FuzzyVault(polynomial_degree=2)
        few = [Minutia(30.0 * i, 25.0 * i + 5, 0.3, "ending")
               for i in range(4)]
        with pytest.raises(ValueError, match="helper"):
            vault_builder.lock_with_helper(few, b"s",
                                           np.random.default_rng(0),
                                           n_helper=5)

    def test_displaced_print_often_fails(self, enrolled):
        """The vault has no alignment stage: realistic displacement hurts
        (the paper's FRR argument)."""
        master, minutiae = enrolled
        rng = np.random.default_rng(3)
        vault_builder = FuzzyVault(polynomial_degree=8, n_chaff=200)
        secret = b"vault-secret-123"
        vault = vault_builder.lock(minutiae, secret, rng)
        failures = 0
        trials = 8
        for _ in range(trials):
            probe = render_impression(master, CaptureCondition(
                rotation_deg=float(rng.uniform(-12, 12)),
                translation=(float(rng.uniform(-8, 8)),
                             float(rng.uniform(-8, 8))),
                noise=0.05), rng)
            query = minutiae_from_image(probe.image, probe.mask)
            if vault_builder.unlock(vault, query, len(secret), rng) != secret:
                failures += 1
        assert failures >= 1  # FRR clearly non-zero under displacement
