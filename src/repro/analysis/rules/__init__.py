"""Rule modules; importing this package populates the registry."""

from . import (boundaries, contract, crypto_discipline,  # noqa: F401
               determinism, observability, protocol_verify, robustness,
               secret_flow_taint, sidechannel)
