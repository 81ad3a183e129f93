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

The field energy has one route, the trapezoid of |F(k)|^2 over the lattice.
Its photon-occupation form, sum_k omega_k |alpha_k|^2, is not a second
route: alpha_k is F(k) times a fixed per-mode factor, so the two sums agree
term by term, and comparing them could catch no error.  The independent
check is the spatial integral of F(z)^2 (Parseval), which the tests make.

B(z, t) is evaluated on the sample grid only, where it is the t = 0 field
moved by c t: its mode sum is the inverse box transform of F(k) with the
grid origin moved from z_min to z_min - c t, which ``spectral.box_irfft``
applies by the DFT shift theorem instead of a second phase ramp
exp(-i omega t).

Caching: every per-mode weight depends on (L, n_modes) alone, and
``_mode_tables``, a bounded LRU cache keyed by (box_length, n_modes) with
maxsize 4, holds them read-only: the wavenumbers k_n (``ModeGrid.wavenumbers``
is this array), i sqrt(L / (2 pi omega_k)), its inverse -i sqrt(2 pi omega_k
/ L), and the trapezoid steps diff(k).  An entry takes 48 bytes per mode:
1.5 MiB on the 2^16-sample dyn grid (32 767 modes), 384 MiB at the
2^24-sample grid limit.  A grid builds its tables on first use, so one that
only carries (L, uv_cutoff) to ``energy.compute_I3`` builds none.  With
them, the amplitudes and F(k) on the lattice cost one complex product per
mode, ``expectation_B`` writes that product straight into the irfft half,
and ``energy_before``'s trapezoid takes the cached steps; each keeps the
rounding of the expressions it replaced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TruncationError
from .params import MAX_COUNT
from .signal import SampledSignal
from .spectral import SpectralDensity, box_irfft


class _ModeTables(NamedTuple):
    """Read-only per-mode arrays of the box (L, n_modes); omega = k as c = 1."""

    k: np.ndarray         # (2 pi / L) * arange(1, n_modes + 1)
    to_alpha: np.ndarray  # 1j * sqrt(L / (2 pi omega)): F(k) -> alpha
    to_f: np.ndarray      # -1j * sqrt(2 pi omega / L): alpha -> F(k)
    steps: np.ndarray     # diff(k), the trapezoid's steps


@functools.lru_cache(maxsize=4)
def _mode_tables(box_length: float, n_modes: int) -> _ModeTables:
    k = 2.0 * math.pi / box_length * np.arange(1, n_modes + 1)
    tables = _ModeTables(k=k,
                         to_alpha=1j * np.sqrt(box_length / (2.0 * math.pi * k)),
                         to_f=-1j * np.sqrt(2.0 * math.pi * k / box_length),
                         steps=np.diff(k))
    for table in tables:
        table.flags.writeable = False
    return tables


def _trapezoid(y: np.ndarray, steps: np.ndarray) -> float:
    """np.trapezoid(y, k) for steps = diff(k), in its order of operations, in place."""
    total = np.add(y[1:], y[:-1])
    total *= steps
    total /= 2.0
    return float(total.sum())


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """The n_modes lowest positive-k modes k_n = n 2 pi / L of a box of length L."""

    box_length: float
    n_modes: int
    uv_cutoff: float | None = None

    def __post_init__(self):
        if not (self.box_length > 0.0 and math.isfinite(self.box_length)):
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")
        if not 1 <= self.n_modes <= MAX_COUNT:
            raise ValueError(f"n_modes = {self.n_modes} outside [1, {MAX_COUNT}]")
        if self.uv_cutoff is not None:
            if not math.isfinite(self.uv_cutoff):
                raise ValueError(f"uv_cutoff must be finite, got {self.uv_cutoff}")
            if self.uv_cutoff <= 0.0:
                raise ValueError("uv_cutoff must be positive")
            if self.dk * self.n_modes > self.uv_cutoff:  # the top wavenumber, bit for bit
                raise ValueError("mode lattice extends beyond the UV cutoff")

    @property
    def _tables(self) -> _ModeTables:
        return _mode_tables(self.box_length, self.n_modes)

    @property
    def wavenumbers(self) -> np.ndarray:
        return self._tables.k

    @property
    def dk(self) -> float:
        return 2.0 * math.pi / self.box_length

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

    def spectral_values(self) -> np.ndarray:
        """F(k) on the mode lattice, inverted from the amplitudes."""
        return self.alpha * self.grid._tables.to_f


def amplitudes_from_spectrum(sd: SpectralDensity, grid: ModeGrid) -> CoherentAmplitudes:
    """alpha_k = i sqrt(L/(2 pi omega_k)) F(k_n) on the mode lattice.

    Mode n is bin j = n of the transform, ``transform[n]`` in both of its
    layouts; the lattice must stay below Nyquist, n <= (n_samples - 1) // 2.
    """
    if not math.isclose(sd.dk, grid.dk, rel_tol=1e-9):
        raise TruncationError(
            f"spectral spacing {sd.dk} does not match mode spacing {grid.dk}"
        )
    if grid.n_modes > (sd.n_samples - 1) // 2:
        raise TruncationError("mode lattice not covered by the spectral grid")
    with np.errstate(over="ignore"):
        alpha = grid._tables.to_alpha * sd.transform[1:grid.n_modes + 1]
    if not np.all(np.isfinite(alpha)):  # k >= 2 pi / L: only an overflow makes one infinite
        raise DomainError("a coherent amplitude alpha overflows a double")
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
    np.multiply(ca.alpha, ca.grid._tables.to_f, out=half[1:m + 1])  # spectral_values()
    # irfft supplies the k < 0 half as the conjugate mirror of the modes
    return box_irfft(half, ca.z_min - t, ca.dz, n)


def energy_before(ca: CoherentAmplitudes) -> float:
    """Field energy of the state, (L^2 / 4 pi^2) int dk |F(k)|^2.

    The mode sum under the continuum measure sum_k -> (L/2pi) int dk, with
    trapezoid weights.  Its photon-occupation form is the same sum, as
    |alpha_k to_f|^2 = (2 pi omega_k / L) |alpha_k|^2 (see the module docstring).
    """
    L, tables = ca.grid.box_length, ca.grid._tables
    with np.errstate(over="ignore"):  # an overflow is refused below, by the sum
        density = np.abs(ca.spectral_values())
        np.square(density, out=density)
        energy = (L**2 / (4.0 * math.pi**2)) * _trapezoid(density, tables.steps)
    if not math.isfinite(energy):
        raise DomainError("the field energy overflows a double")
    return energy
