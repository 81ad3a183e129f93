"""Discrete spectra scaled to approximate the continuous Fourier transform.

The DFT of the sampled box, multiplied by dz, approximates
F(k) = integral dz F(z) exp(-i k z); the k grid spacing is 2*pi over the box
length.  Energy fractions are computed on magnitude-normalized values so
that signals whose samples reach e^700 never overflow the quadratic forms.

The grid origin enters through the DFT shift theorem, never through a phase
ramp exp(-i k z_min), whose argument reaches 1e5 rad on a long box.  With
r = z_min/dz = m + f (m integer, |f| <= 1/2), exp(-i k_j z_min) is
exp(-2 pi i j m/n) exp(-2 pi i j f/n): the first factor is a roll of the
samples by m, the second a ramp whose argument stays below pi/2 (signed j),
and absent on grids whose origin is a whole number of samples.  A real
signal is transformed by ``rfft``; its negative-k half is the exact
conjugate mirror of the positive one, so its spectrum is exactly Hermitian.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .signal import SampledSignal

BOUNDARY_DECAY = 1e-6
EPS_BAND_DEFAULT = 1e-4


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Box transform of n samples at z_min + p dz, on k_j = 2 pi j / (n dz).

    ``values`` runs over signed j in ascending order (``fftshift`` order), so
    k = 0 sits at index n // 2; ``k`` is derived from the box, never stored
    independently of it.
    """

    values: np.ndarray
    band_limit: float
    eps_band: float
    z_min: float
    dz: float

    @property
    def n_samples(self) -> int:
        return self.values.size

    @functools.cached_property
    def k(self) -> np.ndarray:
        return np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.dz))

    def k_at(self, j: int) -> float:
        """k[n // 2 + j] without building ``k``: fftfreq's own arithmetic, bit for bit."""
        return 2.0 * np.pi * (j * (1.0 / (self.n_samples * self.dz)))

    @property
    def dk(self) -> float:
        """k[1] - k[0]."""
        half = self.n_samples // 2
        return self.k_at(1 - half) - self.k_at(-half)

    def band_energy_fraction(self, k_lo: float, k_hi: float) -> float:
        """Fraction of spectral energy inside [k_lo, k_hi] (overflow-safe).

        The band is one contiguous run of bins, found by bisecting the
        monotone ``k_at`` with the comparisons of the mask k >= k_lo and
        k <= k_hi, and summed as a slice; ``k`` is not built.
        """
        mag = np.abs(self.values)
        if mag.max() == 0.0:
            return 1.0  # vacuum spectrum is trivially confined
        if not k_lo <= k_hi:  # also a NaN edge: the mask is empty
            return 0.0
        scaled = mag / mag.max()
        energy = scaled**2
        j = range(-(self.n_samples // 2), self.n_samples - self.n_samples // 2)
        band = energy[bisect.bisect_left(j, k_lo, key=self.k_at):
                      bisect.bisect_right(j, k_hi, key=self.k_at)]
        return float(band.sum() / energy.sum())


def _origin_shift(z0: float, dz: float) -> tuple[int, float]:
    """z0/dz as m + f, m an integer and |f| <= 1/2.

    ``math.remainder`` is exact, so f carries one rounding however large m is.
    """
    frac = math.remainder(z0, dz)
    return round((z0 - frac) / dz), frac / dz


def box_fft(values: np.ndarray, z0: float, dz: float) -> np.ndarray:
    """dz * sum_p v_p exp(-i k_j (z0 + p dz)) at k_j = 2 pi j / (n dz).

    Real values give the ``rfft`` half, j = 0 .. n//2; complex values the
    full ``fft``, in numpy's order of signed j.
    """
    n = values.size
    m, f = _origin_shift(z0, dz)
    full = np.iscomplexobj(values)
    out = (np.fft.fft if full else np.fft.rfft)(np.roll(values, m))
    if f:
        out *= np.exp(-2j * np.pi * f * (np.fft.fftfreq(n) if full else np.fft.rfftfreq(n)))
    out *= dz
    return out


def box_irfft(half: np.ndarray, z0: float, dz: float, n: int) -> np.ndarray:
    """Real samples at z0 + p dz, p = 0 .. n-1, whose ``box_fft`` is ``half``.

    ``half`` holds j = 0 .. n//2; as in ``irfft``, the imaginary parts of
    the j = 0 bin and (even n) of the Nyquist bin are dropped.
    """
    m, f = _origin_shift(z0, dz)
    if f:
        half = half * np.exp(2j * np.pi * f * np.fft.rfftfreq(n))
    out = np.roll(np.fft.irfft(half, n), -m)
    out /= dz
    return out


def spectrum(s: SampledSignal, band_limit: float,
             eps_band: float = EPS_BAND_DEFAULT) -> SpectralDensity:
    """Continuous-transform approximation of the sampled signal.

    Requires the boundary samples to have decayed below 1e-6 of the grid
    maximum, i.e. the box must contain the (windowed) signal.
    """
    v = s.values
    boundary = max(abs(v[0]), abs(v[-1]))
    if boundary > BOUNDARY_DECAY * s.max_abs:
        raise TruncationError(
            f"boundary samples at {boundary / s.max_abs:.2e} of max exceed "
            f"{BOUNDARY_DECAY:.0e}: box does not contain the signal"
        )
    n = s.n
    transform = box_fft(v, s.z_min, s.dz)
    if s.real_valued:  # negative k: the conjugate mirror of the rfft half
        transform = np.concatenate([np.conj(transform[:0:-1]), transform[:n - n // 2]])
    else:
        transform = np.fft.fftshift(transform)
    sd = SpectralDensity(values=transform, band_limit=band_limit, eps_band=eps_band,
                         z_min=s.z_min, dz=s.dz)
    if sd.k_at(-(n // 2)) > -band_limit or sd.k_at((n - 1) // 2) < 2.0 * band_limit:
        raise TruncationError("k grid does not cover [-k0, 2 k0]; refine dz")
    return sd


def parseval_residual(s: SampledSignal, sd: SpectralDensity) -> float:
    """Relative mismatch of sum|F(k)|^2 dk/2pi against sum|F(z)|^2 dz."""
    scale = s.max_abs
    if scale == 0.0:
        return 0.0
    lhs = (np.abs(sd.values / (scale * s.box_length)) ** 2).sum() * sd.dk / (2.0 * np.pi)
    rhs = (np.abs(s.values / scale) ** 2).sum() * s.dz / s.box_length**2
    return float(abs(lhs - rhs) / rhs)
