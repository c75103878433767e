"""Display repeater and frame hash engine (Fig. 5).

The display repeater sits between the SoC's graphics output and the panel:
every frame the user actually sees passes through it, and the frame hash
engine digests it.  Because the repeater is inside the trusted boundary,
the hash attests *what was displayed* — a malware-controlled browser can
render whatever it wants, but it cannot make FLock report the hash of a
frame that was never shown.

Frames are modeled as page content plus a view transform (scroll/zoom); the
paper notes that gestures change the displayed view, so "the frame hash code
of a displayed frame may vary", yet the set of reachable views of one page
is finite and auditable (section IV-B).  ``canonical_bytes`` makes that
concrete: hash input = page bytes + quantized viewport.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import md5, sha256

__all__ = ["Frame", "FrameHashEngine", "DisplayRepeater"]

#: Scroll positions quantize to this many px so the reachable-view set stays
#: finite (the server can enumerate it during audit).
SCROLL_QUANTUM_PX = 32

#: Zoom levels quantize to fixed steps for the same reason.
ZOOM_STEPS = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


@dataclass(frozen=True)
class Frame:
    """One displayed frame: page content + view transform."""

    page_content: bytes  # the hyper-text the server sent
    scroll_px: int = 0
    zoom: float = 1.0

    def canonical_bytes(self) -> bytes:
        """Hash input: page bytes + quantized viewport parameters."""
        scroll = (self.scroll_px // SCROLL_QUANTUM_PX) * SCROLL_QUANTUM_PX
        zoom = min(ZOOM_STEPS, key=lambda step: abs(step - self.zoom))
        header = f"scroll={scroll};zoom={zoom};".encode("ascii")
        return header + self.page_content

    def reachable_views(self, max_scroll_px: int) -> list["Frame"]:
        """All quantized views of this page (the finite audit set)."""
        if max_scroll_px < 0:
            raise ValueError("max scroll must be non-negative")
        views = []
        for zoom in ZOOM_STEPS:
            for scroll in range(0, max_scroll_px + 1, SCROLL_QUANTUM_PX):
                views.append(Frame(self.page_content, scroll_px=scroll,
                                   zoom=zoom))
        return views


class FrameHashEngine:
    """Hardware hash engine; MD5 or SHA-256 per the paper's step 2."""

    #: Modeled throughput of the engine in bytes per second (a small
    #: dedicated pipeline at ~1 GB/s; used for latency accounting only).
    THROUGHPUT_BPS = 1_000_000_000

    def __init__(self, algorithm: str = "sha256") -> None:
        if algorithm not in ("sha256", "md5"):
            raise ValueError("frame hash algorithm must be sha256 or md5")
        self.algorithm = algorithm
        self.frames_hashed = 0

    def hash_frame(self, frame: Frame) -> bytes:
        """Digest one frame's canonical bytes."""
        data = frame.canonical_bytes()
        self.frames_hashed += 1
        return sha256(data) if self.algorithm == "sha256" else md5(data)

    def hash_time_s(self, frame: Frame) -> float:
        """Modeled engine time to hash this frame."""
        return len(frame.canonical_bytes()) / self.THROUGHPUT_BPS


class DisplayRepeater:
    """Relays frames from the SoC to the panel, hashing each one.

    Keeps only the *current* frame and its hash: the attestation attached to
    a touch-triggered request is the hash of what was on screen at touch
    time.
    """

    def __init__(self) -> None:
        self.engine = FrameHashEngine()
        self._current_frame: Frame | None = None
        self._current_hash: bytes | None = None

    def show(self, frame: Frame) -> bytes:
        """Display a frame; returns its hash (also retained)."""
        self._current_frame = frame
        self._current_hash = self.engine.hash_frame(frame)
        return self._current_hash

    @property
    def current_frame(self) -> Frame:
        """The frame currently on screen; RuntimeError before the first."""
        if self._current_frame is None:
            raise RuntimeError("no frame has been displayed")
        return self._current_frame

    @property
    def current_hash(self) -> bytes:
        """Hash of the frame currently on screen."""
        if self._current_hash is None:
            raise RuntimeError("no frame has been displayed")
        return self._current_hash

    def apply_view_change(self, scroll_px: int | None = None,
                          zoom: float | None = None) -> bytes:
        """User gesture changed the view of the same page (zoom/scroll)."""
        frame = self.current_frame
        new_frame = Frame(
            page_content=frame.page_content,
            scroll_px=frame.scroll_px if scroll_px is None else scroll_px,
            zoom=frame.zoom if zoom is None else zoom,
        )
        return self.show(new_frame)
