"""Synthetic fingerprint substrate: synthesis, capture, extraction, matching.

Stands in for the FVC datasets and COTS matchers the paper assumes
(assumption 3 in section IV-A cites partial-fingerprint matching as a solved
substrate).  Everything is deterministic under explicit seeds.
"""

from .image_ops import (
    binarize,
    local_contrast,
    normalize,
    segment_foreground,
)
from .orientation import (
    FingerprintClass,
    SyntheticOrientationField,
    estimate_orientation,
    orientation_coherence,
)
from .gabor import GaborBank, gabor_kernel
from .synthesis import MasterFingerprint, synthesize_master
from .impression import CaptureCondition, Impression, render_impression
from .thinning import zhang_suen_thin
from .minutiae import BIFURCATION, ENDING, Minutia, extract_minutiae, minutiae_from_image
from .matching import MatchResult, MinutiaeMatcher, minutiae_to_arrays
from .quality import QualityGate, QualityReport, assess_quality
from .templates import FingerprintTemplate, enroll_from_impressions, enroll_master
from .dataset import DifficultyProfile, FingerprintDataset, build_dataset
from .enhancement import EnhancementResult, enhance, minutiae_with_enhancement
from .texture import FusedMatcher, FusedResult, TextureDescriptor, texture_similarity
from .scoremodel import (
    DEFAULT_FULL_MODEL,
    DEFAULT_PARTIAL_MODEL,
    CalibratedScoreModel,
)

__all__ = [
    "normalize", "segment_foreground", "local_contrast",
    "binarize",
    "estimate_orientation", "orientation_coherence", "FingerprintClass",
    "SyntheticOrientationField",
    "GaborBank", "gabor_kernel",
    "MasterFingerprint", "synthesize_master",
    "CaptureCondition", "Impression", "render_impression",
    "zhang_suen_thin",
    "Minutia", "extract_minutiae", "minutiae_from_image", "ENDING", "BIFURCATION",
    "MatchResult", "MinutiaeMatcher", "minutiae_to_arrays",
    "QualityGate", "QualityReport", "assess_quality",
    "FingerprintTemplate", "enroll_from_impressions", "enroll_master",
    "DifficultyProfile", "FingerprintDataset", "build_dataset",
    "EnhancementResult", "enhance", "minutiae_with_enhancement",
    "TextureDescriptor", "texture_similarity", "FusedMatcher", "FusedResult",
    "CalibratedScoreModel", "DEFAULT_PARTIAL_MODEL", "DEFAULT_FULL_MODEL",
]
