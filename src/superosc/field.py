"""Coherent-state description of the field realizing a sampled waveform.

A box of length L carries modes k_n = 2 pi n / L (n >= 1) with omega = c k
(c = 1 in working units).  A mode grid is the pair (L, n_modes): the modes
n = 1 .. n_modes, whose wavenumbers are derived from L and never stored
apart from it.  Mode n is DFT bin n of a signal sampled on a box of the same
length, so every lattice index is a slice (bins 1 .. n_modes of the rfft
half, or n_samples // 2 + 1 onward on the signed spectral grid), and the map
signal -> spectrum -> per-mode amplitudes -> field expectation is an exact
round trip up to the dropped k <= 0 bins.

Per-mode amplitude: alpha_k = i sqrt(L / (2 pi omega_k)) F(k), which makes
the magnetic-field expectation
  B(z, t) = sum_k sqrt(8 pi omega_k / L^3)
            (Re alpha_k sin(k z - w t) + Im alpha_k cos(k z - w t))
reproduce the right-moving waveform F(z - c t).

On the sample grid, B(z, t) is therefore the t = 0 field moved by c t: its
mode sum is the inverse box transform of F(k) with the grid origin moved
from z_min to z_min - c t, which ``spectral.box_irfft`` applies by the DFT
shift theorem instead of a second phase ramp exp(-i omega t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CutoffMissing, InfraredError, TruncationError
from .params import MAX_COUNT
from .signal import SampledSignal
from .spectral import SpectralDensity, box_fft, box_irfft

ENERGY_ROUTE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """The n_modes lowest positive-k modes k_n = n 2 pi / L of a box of length L."""

    box_length: float
    n_modes: int
    uv_cutoff: float | None = None
    wavenumbers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.box_length > 0.0 and math.isfinite(self.box_length)):
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")
        if not 1 <= self.n_modes <= MAX_COUNT:
            raise ValueError(f"n_modes = {self.n_modes} outside [1, {MAX_COUNT}]")
        k = self.dk * np.arange(1, self.n_modes + 1)
        if self.uv_cutoff is not None:
            if self.uv_cutoff <= 0.0:
                raise ValueError("uv_cutoff must be positive")
            if k[-1] > self.uv_cutoff:
                raise ValueError("mode lattice extends beyond the UV cutoff")
        object.__setattr__(self, "wavenumbers", k)

    @property
    def dk(self) -> float:
        return 2.0 * math.pi / self.box_length

    @property
    def omega(self) -> np.ndarray:
        return self.wavenumbers  # c = 1

    @classmethod
    def for_box(cls, box_length: float, k_cut: float,
                uv_cutoff: float | None = None) -> "ModeGrid":
        """Every mode of the box with k <= k_cut."""
        n = int(math.floor(k_cut / (2.0 * math.pi / box_length)))
        return cls(box_length=box_length, n_modes=n, uv_cutoff=uv_cutoff)

    @classmethod
    def for_signal(cls, s: SampledSignal, uv_cutoff: float | None = None) -> "ModeGrid":
        """Mode lattice of the signal's box: the full half-lattice below Nyquist.

        That is bins 1 .. (n - 1) // 2; an even n's bin n / 2 is Nyquist
        itself.  The full lattice makes the signal -> amplitudes ->
        expectation round trip exact to rounding.
        """
        return cls(box_length=s.box_length, n_modes=(s.n - 1) // 2, uv_cutoff=uv_cutoff)


def _mode_sum(k: np.ndarray, a: np.ndarray, b: np.ndarray, z, t: float) -> np.ndarray:
    """Direct sum_n a_n cos(k_n z - w_n t) + b_n sin(k_n z - w_n t), w = c k.

    Chunked over modes to bound memory.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.zeros(z.size)
    step = 4096
    for i in range(0, k.size, step):
        kk = k[i:i + step]
        ph = np.outer(z, kk) - kk * t
        out += np.sin(ph) @ b[i:i + step]
        out += np.cos(ph) @ a[i:i + step]
    return out


@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Real Fourier-series coefficients on the mode lattice."""

    grid: ModeGrid
    a: np.ndarray  # cosine channel
    b: np.ndarray  # sine channel

    def reconstruct(self, z, t: float = 0.0) -> np.ndarray:
        """Direct resummation sum_n a_n cos(k z - w t) + b_n sin(k z - w t)."""
        return _mode_sum(self.grid.wavenumbers, self.a, self.b, z, t)


def fourier_coeffs(s: SampledSignal, grid: ModeGrid) -> FourierCoeffs:
    """Cosine/sine coefficients a_n = (2/L) int F cos(k_n z), b_n likewise with sine.

    Rectangle-rule quadrature on the sample grid, evaluated through the DFT:
    mode n is DFT bin n of the signal's box.
    """
    if not s.real_valued:
        raise TruncationError("fourier_coeffs requires a real-valued signal")
    if not math.isclose(grid.box_length, s.box_length, rel_tol=1e-9):
        raise TruncationError(
            f"mode lattice box {grid.box_length} != signal box {s.box_length}"
        )
    m = grid.n_modes
    if 2 * m >= s.n:
        raise TruncationError("mode lattice reaches the Nyquist wavenumber")
    transform = box_fft(s.values, s.z_min, s.dz)
    coeff = (2.0 / grid.box_length) * transform[1:m + 1]
    return FourierCoeffs(grid=grid, a=np.real(coeff), b=-np.imag(coeff))


@dataclass(frozen=True, eq=False)
class CoherentAmplitudes:
    """Per-mode coherent amplitudes alpha_k on the sample box they were read from.

    The box is the n_samples points z_min + p dz; its length n_samples * dz
    must be the mode grid's box length.
    """

    grid: ModeGrid
    alpha: np.ndarray
    z_min: float
    dz: float
    n_samples: int

    def __post_init__(self):
        if np.shape(self.alpha) != (self.grid.n_modes,):
            raise ValueError(
                f"alpha has shape {np.shape(self.alpha)}; the grid has {self.grid.n_modes} modes"
            )
        if not math.isclose(self.n_samples * self.dz, self.grid.box_length, rel_tol=1e-9):
            raise ValueError(
                f"sample box {self.n_samples} x {self.dz} != mode grid box "
                f"{self.grid.box_length}"
            )

    @property
    def mean_photon_numbers(self) -> np.ndarray:
        return np.abs(self.alpha) ** 2

    def is_classical(self, threshold: float = 10.0, support_frac: float = 1e-3) -> bool:
        """All amplitudes large on the occupied support."""
        mag = np.abs(self.alpha)
        support = mag >= support_frac * mag.max()
        return bool(support.any() and mag[support].min() >= threshold)

    def spectral_values(self) -> np.ndarray:
        """F(k) on the mode lattice, inverted from the amplitudes."""
        return -1j * self.alpha * np.sqrt(2.0 * math.pi * self.grid.omega / self.grid.box_length)


def amplitudes_from_spectrum(sd: SpectralDensity, grid: ModeGrid,
                             require_band_limited: float | None = None) -> CoherentAmplitudes:
    """alpha_k = i sqrt(L/(2 pi omega_k)) F(k_n) on the mode lattice.

    Mode n is spectral bin n // 2 + n of the signed-k grid, whose k = 0 bin
    sits at n_samples // 2.  Pass ``require_band_limited=half_width`` to
    insist the spectral density carries its band-confinement certificate for
    that blur width first (grid-truncated signals are legitimate states but
    not certifiable).
    """
    if require_band_limited is not None and not sd.is_band_limited(require_band_limited):
        raise TruncationError(
            f"spectral density not band-limited at eps_band = {sd.eps_band:g}"
        )
    if not math.isclose(sd.dk, grid.dk, rel_tol=1e-9):
        raise TruncationError(
            f"spectral spacing {sd.dk} does not match mode spacing {grid.dk}"
        )
    first = sd.n_samples // 2 + 1
    if first + grid.n_modes > sd.n_samples:
        raise TruncationError("mode lattice not covered by the spectral grid")
    f_k = sd.values[first:first + grid.n_modes]
    alpha = 1j * np.sqrt(grid.box_length / (2.0 * math.pi * grid.omega)) * f_k
    if not np.all(np.isfinite(alpha)):
        raise InfraredError("divergent amplitude on the lowest modes")
    return CoherentAmplitudes(grid=grid, alpha=alpha, z_min=sd.z_min, dz=sd.dz,
                              n_samples=sd.n_samples)


def expectation_B(ca: CoherentAmplitudes, z=None, t: float = 0.0):
    """Field expectation at time t.

    With z omitted, evaluates on the originating sample grid through one
    inverse FFT (exact mode resummation); as omega = c k with c = 1, time t
    is a move of the grid origin by -t.  With explicit z (scalar or array),
    performs the direct mode sum.
    """
    if z is None:
        n, m = ca.n_samples, ca.grid.n_modes
        if 2 * m >= n:
            raise TruncationError("mode lattice reaches the Nyquist wavenumber of the grid")
        half = np.zeros(n // 2 + 1, dtype=complex)
        half[1:m + 1] = ca.spectral_values()
        # irfft supplies the k < 0 half as the conjugate mirror of the modes
        return box_irfft(half, ca.z_min - t, ca.dz, n)

    coeff = np.sqrt(8.0 * math.pi * ca.grid.omega / ca.grid.box_length**3)
    out = _mode_sum(ca.grid.wavenumbers, coeff * np.imag(ca.alpha),
                    coeff * np.real(ca.alpha), z, t)
    return out if out.size > 1 else float(out[0])


class TwoPointResult(NamedTuple):
    product: float
    vacuum: complex

    @property
    def total(self) -> complex:
        return self.product + self.vacuum


def vacuum_two_point(box_length: float, uv_cutoff: float, tau: float) -> complex:
    """(1/L^2) int_0^{w_uv} dw w exp(i w tau), in closed form (c = hbar = 1)."""
    w_uv = uv_cutoff  # omega = c k
    if tau == 0.0:
        integral = 0.5 * w_uv**2
    else:
        e = np.exp(1j * w_uv * tau)
        integral = w_uv * e / (1j * tau) + (e - 1.0) / tau**2
    return complex(integral / box_length**2)


def two_point_function(ca: CoherentAmplitudes, z0: float, t1: float,
                       t2: float) -> TwoPointResult:
    """Product term F(z0-t1) F(z0-t2) plus the explicit cutoff vacuum term."""
    if ca.grid.uv_cutoff is None:
        raise CutoffMissing("two_point_function requires uv_cutoff on the mode grid")
    b1 = expectation_B(ca, z0, t1)
    b2 = expectation_B(ca, z0, t2)
    vac = vacuum_two_point(ca.grid.box_length, ca.grid.uv_cutoff, t2 - t1)
    return TwoPointResult(product=float(b1 * b2), vacuum=vac)


class EnergyBefore(NamedTuple):
    spectral_route: float   # (L^2 / 4 pi^2) int dk |F(k)|^2
    mode_sum_route: float   # sum_k omega_k |alpha_k|^2 under the same measure

    @property
    def value(self) -> float:
        return self.spectral_route


def energy_before(ca: CoherentAmplitudes) -> EnergyBefore:
    """Field energy of the state, by two routes that must agree to 1e-8.

    Both routes realize the mode sum under the same continuum measure
    (sum_k -> (L/2pi) int dk with trapezoid weights); one starts from the
    spectral density, the other from photon occupations, so their agreement
    checks the amplitude map's normalization.
    """
    f_k = ca.spectral_values()
    L = ca.grid.box_length
    spectral = (L**2 / (4.0 * math.pi**2)) * float(
        np.trapezoid(np.abs(f_k) ** 2, ca.grid.wavenumbers)
    )
    mode_sum = (L / (2.0 * math.pi)) * float(
        np.trapezoid(ca.grid.omega * ca.mean_photon_numbers, ca.grid.wavenumbers)
    )
    if mode_sum > 0.0 and abs(spectral - mode_sum) > ENERGY_ROUTE_TOL * mode_sum:
        raise ValueError(
            f"energy routes disagree: spectral {spectral!r} vs mode sum {mode_sum!r}"
        )
    return EnergyBefore(spectral, mode_sum)
