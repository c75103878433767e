"""CD201/CD202/CD203 — crypto discipline rule fixtures."""

import textwrap

import pytest

from repro.analysis import analyze_sources

from .conftest import rule_ids


class TestStdlibRandom:
    def test_import_random_in_crypto_is_flagged(self, lint):
        findings = lint("import random\n", module="repro.crypto.badmod")
        assert rule_ids(findings) == ["CD201"]

    def test_from_random_import_in_flock_is_flagged(self, lint):
        findings = lint("from random import randrange\n",
                        module="repro.flock.badmod")
        assert rule_ids(findings) == ["CD201"]

    def test_random_attribute_use_is_flagged(self, lint):
        findings = lint(
            "import random\n"
            "x = random.randrange(2, 100)\n",
            module="repro.crypto.badmod")
        # Both the import and the use site are reported.
        assert rule_ids(findings) == ["CD201", "CD201"]

    def test_numpy_random_is_not_stdlib_random(self, lint):
        # np.random drives the physics simulation; only the stdlib module
        # is banned.
        findings = lint(
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.uniform(0.0, 1.0)\n",
            module="repro.flock.goodmod")
        assert findings == []

    def test_random_outside_trusted_packages_is_allowed(self, lint):
        findings = lint("import random\n", module="repro.touchgen.goodmod")
        assert findings == []

    def test_inline_suppression(self, lint):
        findings = lint(
            "import random  # trust-lint: disable=CD201\n",
            module="repro.crypto.badmod")
        assert findings == []


class TestTimingUnsafeComparison:
    def test_eq_on_key_bytes_is_flagged(self, lint):
        findings = lint(
            "def check(expected_mac, session_key, stored_key):\n"
            "    return session_key == stored_key\n",
            module="repro.net.badmod")
        assert rule_ids(findings) == ["CD202"]

    def test_neq_on_mac_is_flagged(self, lint):
        findings = lint(
            "def check(expected_mac, received_mac):\n"
            "    if expected_mac != received_mac:\n"
            "        return False\n"
            "    return True\n",
            module="repro.net.badmod")
        assert rule_ids(findings) == ["CD202"]

    def test_comparison_against_literal_is_clean(self, lint):
        # Type-tag dispatch on a public constant, not a secret comparison.
        findings = lint('ok = tag == "b"\n', module="repro.net.goodmod")
        assert findings == []

    def test_public_key_comparison_is_clean(self, lint):
        findings = lint(
            "hijacked = bound_public_key == attacker.public_key\n",
            module="repro.attacks.goodmod")
        assert findings == []

    def test_key_bits_comparison_is_clean(self, lint):
        findings = lint("ok = key_bits == other_bits\n",
                        module="repro.crypto.goodmod")
        assert findings == []

    def test_constant_time_equal_is_the_fix(self, lint):
        findings = lint(
            "from repro.crypto import constant_time_equal\n"
            "def check(expected_mac, received_mac):\n"
            "    return constant_time_equal(expected_mac, received_mac)\n",
            module="repro.net.goodmod")
        assert findings == []


class TestCD202CoversWhatSC805Skips:
    """Why CD202 is not folded into SC805.

    SC805 never walks the body of a declassifier-named function
    (``verify*``, ``sign*``, ``*_mac``, ``compare_*``...), nor any module
    outside ``[tool.trust-lint.sc] modules`` (``repro.runtime``,
    ``repro.core``).  There, CD202 is the only check on ``==``.
    """

    VERIFY_MAC = """
        def verify_mac(tag, expected_tag):
            return tag == expected_tag
    """
    MODULES = ["repro.net.fixture", "repro.runtime.fixture"]

    @pytest.mark.parametrize("module", MODULES)
    def test_mac_compare_in_verify_function_fires_cd202(self, lint, module):
        findings = lint(self.VERIFY_MAC, module=module)
        assert [(f.rule, f.line) for f in findings] == [("CD202", 3)]

    @pytest.mark.parametrize("module", MODULES)
    def test_sc805_does_not_see_the_compare(self, module):
        findings = analyze_sources(
            {module: textwrap.dedent(self.VERIFY_MAC)}, taint=True, sc=True)
        assert rule_ids(findings) == ["CD202"]


class TestWeakHash:
    def test_md5_import_outside_frame_path_is_flagged(self, lint):
        findings = lint("from repro.crypto import md5\n",
                        module="repro.net.badmod")
        assert rule_ids(findings) == ["CD203"]

    def test_hashlib_md5_attribute_is_flagged(self, lint):
        findings = lint(
            "import hashlib\n"
            "digest_value = hashlib.md5(b'x')\n",
            module="repro.core.badmod")
        assert rule_ids(findings) == ["CD203"]

    def test_display_module_may_use_md5(self, lint):
        findings = lint(
            "from repro.crypto import md5, sha256\n"
            "def hash_frame(data, algorithm):\n"
            '    return sha256(data) if algorithm == "sha256" else md5(data)\n',
            module="repro.flock.display")
        assert findings == []

    def test_sha256_is_always_clean(self, lint):
        findings = lint(
            "from repro.crypto import sha256\n"
            "digest_value = sha256(b'x')\n",
            module="repro.net.goodmod")
        assert findings == []
