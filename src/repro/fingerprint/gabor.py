"""Gabor filtering steered by an orientation field.

Used in two directions:

- *synthesis* (SFinGe-style): iterated orientation-steered Gabor filtering of
  an initial random seed grows a ridge pattern that follows the field;
- *enhancement*: one pass of the same filter bank cleans a noisy impression
  before binarization and thinning.

For speed, orientations are quantized into ``n_orientations`` bins, the
image is FFT-convolved once per used bin, and per-pixel outputs are composed
from the bin selected by the local orientation.

Each convolution repeats scipy's ``fftconvolve(image, kernel,
mode="same")`` step for step on ``scipy.fft`` (``_SameConvolution``), so
the results are bit-identical to it, while the transforms are shared: one
``filter`` call transforms the image once for all of its bins, and
``synthesize`` transforms each used kernel once for all of its passes.  No
spectrum outlives the call that made it.  scipy's signal-processing
package, where ``fftconvolve`` lives, is not imported at all: with scipy
1.17 it alone adds about 48 MB resident and 431 modules to
``import repro``.
"""

from __future__ import annotations

import numpy as np
from scipy import fft

__all__ = ["gabor_kernel", "GaborBank"]


def gabor_kernel(orientation: float, wavelength: float) -> np.ndarray:
    """Real even-symmetric Gabor kernel for ridges at ``orientation``.

    ``orientation`` is the *ridge direction*; the cosine wave oscillates
    perpendicular to it.  The envelope's sigmas are 0.6 wavelength along
    the ridge and 0.5 across it, the usual fingerprint-enhancement setting.
    """
    if wavelength <= 2.0:
        raise ValueError("wavelength must exceed 2 pixels")
    sigma_parallel = 0.6 * wavelength
    sigma_perpendicular = 0.5 * wavelength
    half = int(np.ceil(3.0 * max(sigma_parallel, sigma_perpendicular)))
    coords = np.arange(-half, half + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords)  # x: col offset, y: row offset

    # Rotate into the ridge frame: u along the ridge, v across it.
    cos_t, sin_t = np.cos(orientation), np.sin(orientation)
    u = x * cos_t + y * sin_t
    v = -x * sin_t + y * cos_t
    envelope = np.exp(-0.5 * ((u / sigma_parallel) ** 2 + (v / sigma_perpendicular) ** 2))
    carrier = np.cos(2.0 * np.pi * v / wavelength)
    kernel = envelope * carrier
    # Zero-DC so flat regions stay flat.
    kernel -= kernel.mean()
    return kernel


class GaborBank:
    """A bank of orientation-quantized Gabor filters at one ridge wavelength."""

    def __init__(self, wavelength: float, n_orientations: int = 16) -> None:
        if n_orientations < 4:
            raise ValueError("need at least 4 orientation bins")
        self.wavelength = float(wavelength)
        self.n_orientations = int(n_orientations)
        self.angles = np.arange(n_orientations) * np.pi / n_orientations
        self.kernels = [gabor_kernel(a, wavelength) for a in self.angles]

    def bin_of(self, orientation_field: np.ndarray) -> np.ndarray:
        """Nearest orientation-bin index per pixel."""
        step = np.pi / self.n_orientations
        bins = np.round(orientation_field / step).astype(int) % self.n_orientations
        return bins

    def filter(self, image: np.ndarray, orientation_field: np.ndarray) -> np.ndarray:
        """Filter ``image`` with the locally appropriate kernel everywhere."""
        image = np.asarray(image, dtype=np.float64)
        bins, used, convolution = self._plan(image, orientation_field)
        return _steer(image, bins, used, convolution,
                      lambda index: convolution.spectrum(self.kernels[index]))

    def synthesize(self, seed_image: np.ndarray, orientation_field: np.ndarray,
                   iterations: int = 6, gain: float = 3.0) -> np.ndarray:
        """Grow a ridge pattern by iterated filter-and-squash.

        Each pass filters with the steered bank then applies a soft
        sigmoid squashing; fixed points of this dynamic are ridge/valley
        stripes locked to the orientation field, which is exactly the
        SFinGe master-fingerprint construction.
        """
        if iterations < 1:
            raise ValueError("need at least one iteration")
        state = np.asarray(seed_image, dtype=np.float64)
        bins, used, convolution = self._plan(state, orientation_field)
        # Every pass steers by the same field: transform its kernels once.
        spectra = {index: convolution.spectrum(self.kernels[index])
                   for index in used}
        for _ in range(iterations):
            state = _steer(state, bins, used, convolution, spectra.__getitem__)
            scale = np.abs(state).max()
            if scale < 1e-12:
                raise ValueError("synthesis collapsed to a flat image; "
                                 "seed the image with non-zero content")
            state = np.tanh(gain * state / scale)
        # Map [-1, 1] to [0, 1] with ridges at 1.
        return 0.5 * (state + 1.0)

    def _plan(self, image: np.ndarray, orientation_field: np.ndarray):
        """Per-pixel bins, the bins in use, and the image's convolution."""
        if image.shape != orientation_field.shape:
            raise ValueError("image and orientation field shapes differ")
        bins = self.bin_of(orientation_field)
        used = np.flatnonzero(np.bincount(bins.ravel(),
                                          minlength=self.n_orientations))
        return bins, used, _SameConvolution(image.shape, self.kernels[0].shape)


class _SameConvolution:
    """``fftconvolve(image, kernel, mode="same")`` of one shape, in steps.

    The FFT axes are those where neither side is 1; a length-1 axis
    broadcasts in the spectra's product instead.  The full shape is
    ``s1 + s2 - 1`` on FFT axes and ``max(s1, s2)`` elsewhere, each FFT
    axis is padded to ``next_fast_len(n, True)``, and the inverse of the
    product is cropped to the centre ``image_shape`` of the full shape.
    With no FFT axis (a 1 x 1 image) the "spectra" are the arrays and
    their product is the full result.
    """

    def __init__(self, image_shape: tuple[int, ...],
                 kernel_shape: tuple[int, ...]) -> None:
        sides = list(zip(image_shape, kernel_shape))
        self.axes = [axis for axis, (s1, s2) in enumerate(sides)
                     if s1 != 1 and s2 != 1]
        full = [s1 + s2 - 1 if axis in self.axes else max(s1, s2)
                for axis, (s1, s2) in enumerate(sides)]
        self.lengths = [fft.next_fast_len(full[axis], True)
                        for axis in self.axes]
        self.crop = tuple(slice((n - s) // 2, (n - s) // 2 + s)
                          for n, s in zip(full, image_shape))

    def spectrum(self, array: np.ndarray) -> np.ndarray:
        if not self.axes:
            return array
        return fft.rfftn(array, self.lengths, axes=self.axes)

    def same(self, image_spectrum: np.ndarray,
             kernel_spectrum: np.ndarray) -> np.ndarray:
        product = image_spectrum * kernel_spectrum
        if self.axes:
            product = fft.irfftn(product, self.lengths, axes=self.axes)
        return product[self.crop]


def _steer(image: np.ndarray, bins: np.ndarray, used: np.ndarray,
           convolution: _SameConvolution, kernel_spectrum) -> np.ndarray:
    """Each pixel from the convolution with its bin's kernel.

    The image is transformed once; ``kernel_spectrum(bin)`` gives each
    used bin's kernel spectrum.
    """
    output = np.zeros_like(image)
    if used.size:
        image_spectrum = convolution.spectrum(image)
        for index in used:
            filtered = convolution.same(image_spectrum, kernel_spectrum(index))
            selection = bins == index
            output[selection] = filtered[selection]
    return output
