"""The README's code examples must actually work."""

import numpy as np


class TestReadmeQuickstart:
    def test_sixty_second_api_taste(self):
        """The '60-second taste of the API' block, verbatim semantics."""
        from repro.eval import standard_deployment, LOGIN_BUTTON_XY
        from repro.net import TrustClient

        world = standard_deployment()
        rng = np.random.default_rng(0)
        client = TrustClient(world.device, world.server, world.channel)

        outcome = client.login(world.account, LOGIN_BUTTON_XY,
                               world.user_master, rng)
        assert outcome.success

        result = client.request(outcome.session, risk=0.0, rng=rng,
                                touch_xy=LOGIN_BUTTON_XY,
                                master=world.user_master)
        assert result.success
        world.device.flock.close_session(world.server.domain)

    def test_fleet_load_block(self):
        """The 'Fleet load simulation' scripting block, scaled down."""
        from repro.runtime import FleetConfig, FleetSimulation

        result = FleetSimulation(
            FleetConfig(n_devices=12, n_shards=4, seed=3,
                        requests_per_device=1, ramp_s=5.0)).run()
        assert "TRUST fleet load: 12 devices over 4 shards" in result.summary
        assert result.unexpected_rejections == {}

    def test_crypto_block(self):
        """The 'Crypto' block: flat primitives, no engine to pick."""
        from repro.crypto import HmacDrbg, generate_keypair

        key = generate_keypair(HmacDrbg(b"seed material"), bits=1024)
        assert key.public_key.verify(b"frame", key.sign(b"frame"))

    def test_cross_layer_tracing_block(self):
        """The 'Cross-layer tracing' scripting block, with a real scenario."""
        from repro.obs import Instrumentation, render_trace_text
        from repro.runtime import FleetConfig, FleetSimulation

        obs = Instrumentation.live()
        FleetSimulation(FleetConfig(n_devices=2, n_shards=1, seed=3,
                                    requests_per_device=1), obs=obs).run()
        text = render_trace_text(obs.tracer)
        for name in ("server.dispatch", "flock.match", "sensor.capture"):
            assert name in text

    def test_package_docstring_quickstart(self):
        """The repro.__doc__ quickstart block."""
        import repro
        assert "standard_deployment" in repro.__doc__
