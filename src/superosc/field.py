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

B(z, t) is evaluated on the sample grid only, where it is the t = 0 field
moved by c t: its mode sum is the inverse box transform of F(k) with the
grid origin moved from z_min to z_min - c t, which ``spectral.box_irfft``
applies by the DFT shift theorem instead of a second phase ramp
exp(-i omega t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InfraredError, TruncationError
from .params import MAX_COUNT
from .signal import SampledSignal
from .spectral import SpectralDensity, box_irfft

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
            if not math.isfinite(self.uv_cutoff):
                raise ValueError(f"uv_cutoff must be finite, got {self.uv_cutoff}")
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

    def spectral_values(self) -> np.ndarray:
        """F(k) on the mode lattice, inverted from the amplitudes."""
        return -1j * self.alpha * np.sqrt(2.0 * math.pi * self.grid.omega / self.grid.box_length)


def amplitudes_from_spectrum(sd: SpectralDensity, grid: ModeGrid) -> CoherentAmplitudes:
    """alpha_k = i sqrt(L/(2 pi omega_k)) F(k_n) on the mode lattice.

    Mode n is spectral bin n // 2 + n of the signed-k grid, whose k = 0 bin
    sits at n_samples // 2.
    """
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


def expectation_B(ca: CoherentAmplitudes, t: float = 0.0) -> np.ndarray:
    """Field expectation at time t on the originating sample grid.

    One inverse FFT resums the modes exactly; as omega = c k with c = 1,
    time t is a move of the grid origin by -t.
    """
    n, m = ca.n_samples, ca.grid.n_modes
    if 2 * m >= n:
        raise TruncationError("mode lattice reaches the Nyquist wavenumber of the grid")
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[1:m + 1] = ca.spectral_values()
    # irfft supplies the k < 0 half as the conjugate mirror of the modes
    return box_irfft(half, ca.z_min - t, ca.dz, n)


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
