"""The FLock trusted module (paper Fig. 5): controllers, processors, storage.

Behavioural model of the biometric touch-display ASIC: fingerprint
controller + processor, display repeater + frame hash engine, crypto
processor, protected SRAM/Flash, and the :class:`FlockModule` composition
that enforces the trusted boundary the remote protocols rely on.
"""

from .storage import (
    ProtectedFlash,
    PublicServiceView,
    ServiceRecord,
    SramModel,
    StorageError,
)
from .display import DisplayRepeater, Frame, FrameHashEngine
from .fingerprint_controller import FingerprintController, TouchCapture
from .fingerprint_processor import (
    AuthDecision,
    ImageFingerprintProcessor,
    ModeledFingerprintProcessor,
)
from .crypto_processor import CryptoProcessor
from .module import FlockError, FlockModule, TouchAuthEvent
from .rng import SimulationRng

__all__ = [
    "ProtectedFlash", "PublicServiceView", "ServiceRecord", "SramModel",
    "StorageError",
    "DisplayRepeater", "Frame", "FrameHashEngine",
    "FingerprintController", "TouchCapture",
    "AuthDecision", "ImageFingerprintProcessor", "ModeledFingerprintProcessor",
    "CryptoProcessor",
    "FlockError", "FlockModule", "TouchAuthEvent",
    "SimulationRng",
]
