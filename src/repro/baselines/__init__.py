"""Baselines: everything the paper compares TRUST against.

Table I's password and separate-swipe-sensor columns, the related-work
keystroke-dynamics continuous authenticator, the conventional cookie
session server (security strawman for E10), and the fingerprint fuzzy
vault the paper rejects in section V.
"""

from .password import LoginAttempt, PasswordAuthModel
from .swipe_sensor import SeparateFingerprintSensor, SwipeAttempt
from .keystroke import KeystrokeAuthenticator, KeystrokeSample, TypingProfile
from .cookie_session import CookieWebServer
from .fuzzy_vault import FuzzyVault, GF16, VaultPoint, crc16, encode_minutia
from .touch_gestures import TouchGestureAuthenticator, gesture_features

__all__ = [
    "PasswordAuthModel", "LoginAttempt",
    "SeparateFingerprintSensor", "SwipeAttempt",
    "TypingProfile", "KeystrokeSample", "KeystrokeAuthenticator",
    "CookieWebServer",
    "FuzzyVault", "GF16", "VaultPoint", "crc16", "encode_minutia",
    "TouchGestureAuthenticator", "gesture_features",
]
