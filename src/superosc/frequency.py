"""Local-frequency measurement on complex sampled signals: a profile over a
window, and its mean.

The local wavenumber is the spatial derivative of the unwrapped phase, by
central differences.  A profile over [z_lo, z_hi] unwraps only the samples
inside the window plus the one stencil sample beyond each end: central
differences of an unwrapped phase are local, so the result is the whole-grid
unwrap's, without the rounding of a phase that has grown across the whole
box.  Nor does the magnitude enter: admissible waveforms carry an
exponential bump elsewhere on the grid that exceeds the window amplitude by
hundreds of orders of magnitude, while the phase remains well conditioned
locally.

A real signal has no phase to differentiate and is refused with
DomainError; measure the complex pair it is the imaginary part of.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EdgeError, NodeError
from .signal import SampledSignal


def frequency_profile(s: SampledSignal, z_lo: float | None = None,
                      z_hi: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(z, local wavenumber) over [z_lo, z_hi]; see the module docstring."""
    if not np.iscomplexobj(s.values):
        raise DomainError("a real signal has no phase: measure the complex signal")
    # interior samples only (the grid ends have no central difference); an
    # empty window leaves an empty slice
    i_lo, i_hi = s.index_range(-np.inf if z_lo is None else z_lo,
                               np.inf if z_hi is None else z_hi)
    lo, hi = max(1, i_lo), min(s.n - 2, i_hi - 1)
    phase = np.unwrap(np.angle(s.values[lo - 1:hi + 2]))
    return s.z_slice(lo, hi + 1), (phase[2:] - phase[:-2]) / (2.0 * s.dz)


def window_frequency(s: SampledSignal, z_lo: float, z_hi: float) -> float:
    """Mean local wavenumber over [z_lo, z_hi].

    This is the certificate measurement for the in-window oscillation rate:
    averaging removes the small two-term interference ripple that modulates
    the pointwise value.
    """
    if not s.covers(z_lo, z_hi):
        raise EdgeError(f"window [{z_lo}, {z_hi}] not inside the grid")
    _, k_loc = frequency_profile(s, z_lo, z_hi)
    if k_loc.size == 0:
        raise NodeError("no frequency samples inside the window")
    return float(np.mean(k_loc))
